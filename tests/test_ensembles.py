"""Samplers: laws, invariants, dispatch, and reproducibility."""

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_rmt.ensembles import (
    CornerOfHaar,
    EnsembleSpec,
    FixedSN,
    GSpFixedSN,
    GSpHaar,
    HaarEntries,
    SNMixture,
    _det_mod_p,
    draw_step_matrix,
    sample_bi_invariant,
    sample_corner_of_haar,
    sample_haar_gl,
    sample_uniform_residue,
    step_grid,
)
from padic_rmt.errors import PrecisionExhausted
from padic_rmt.padic import (
    Prime,
    Signature,
    _certified_precision,
    corner,
    minor_profile_masks,
    smith_singular_numbers,
)
from padic_rmt.presets import build_preset, preset_names
from padic_rmt.processes import EnsembleSource
from padic_rmt.rng import RngStream
from padic_rmt.stats import chi_square_gof
from padic_rmt.symplectic import is_gsp, sample_bi_invariant_gsp


# SHA-256 over draw_step_matrix at 200 steps of every preset and two more
# laws; see TestDispatch.test_step_matrix_golden
STEP_MATRIX_GOLDEN_SHA256 = "ddac7e70105978703978bcc3625afa8a2e1bfa1581f5b05d25d9e34604d781f2"


class TestSpec:
    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SNMixture(((Signature((1, 0)), Fraction(1, 3)),))

    def test_json_roundtrip_matches_documented_format(self):
        text = (
            '{"p":2,"n":2,"precision_base":32,"kind":'
            '{"SNMixture":[[["1","0"],"1/2"],[["0","0"],"1/2"]]}}'
        )
        spec = EnsembleSpec.from_json(json.loads(text))
        assert spec.p.p == 2 and spec.n == 2
        assert isinstance(spec.kind, SNMixture)
        again = EnsembleSpec.from_json(spec.to_json())
        assert again == spec

    def test_other_kinds_roundtrip(self):
        from padic_rmt.ensembles import GSpFixedSN

        for kind, n in (
            (FixedSN(Signature((2, 0))), 2),
            (CornerOfHaar(5), 3),
            (CornerOfHaar(None), 3),
            (HaarEntries(), 2),
            (GSpHaar(2), 4),
            (GSpFixedSN(Signature((1, 1, 0, 0))), 4),
        ):
            spec = EnsembleSpec(Prime(3), n, kind)
            assert EnsembleSpec.from_json(spec.to_json()) == spec

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            EnsembleSpec(Prime(2), 3, FixedSN(Signature((1, 0))))
        with pytest.raises(ValueError):
            EnsembleSpec(Prime(2), 3, GSpHaar(1))


class TestUniformResidue:
    def test_single_digit(self):
        rng = RngStream(20, 0)
        vals = {sample_uniform_residue(rng, 2, 1, ("d", i)) for i in range(64)}
        assert vals == {0, 1}

    def test_two_digit_uniform(self):
        rng = RngStream(21, 0)
        counts = Counter(
            sample_uniform_residue(rng, 3, 2, ("d", i)) for i in range(20000)
        )
        expected = {v: Fraction(1, 9) for v in range(9)}
        assert chi_square_gof(counts, expected, alpha=0.01).passed


class TestHaar:
    def test_always_invertible_and_trivial_sn(self):
        rng = RngStream(22, 0)
        for trial in range(60):
            mat = sample_haar_gl(3, 2, 16, rng, ("h", trial))
            assert smith_singular_numbers(mat).parts == (0, 0, 0)

    def test_scalar_pushforward_uniform_on_units(self):
        rng = RngStream(23, 0)
        counts = Counter(
            sample_haar_gl(1, 3, 4, rng, ("h", i)).residues[0][0] % 3
            for i in range(10000)
        )
        expected = {1: Fraction(1, 2), 2: Fraction(1, 2)}
        assert chi_square_gof(counts, expected, alpha=0.01).passed

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.sampled_from([2, 3, 5]),
        n=st.integers(1, 6),
        entries=st.lists(st.integers(0, 4), min_size=36, max_size=36),
    )
    def test_det_mod_p_is_the_determinant(self, p, n, entries):
        rows = [[x % p for x in entries[i * n : (i + 1) * n]] for i in range(n)]
        leibniz = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            leibniz += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
        assert _det_mod_p([row[:] for row in rows], p) == leibniz % p


class TestBiInvariant:
    def test_sn_exact(self):
        rng = RngStream(24, 0)
        for trial in range(200):
            mat = sample_bi_invariant(
                Signature((1, 0)), 2, 2, 2, None, rng, ("b", trial)
            )
            assert smith_singular_numbers(mat).parts == (1, 0)

    def test_zero_signature_is_haar(self):
        rng = RngStream(37, 0)
        for trial in range(30):
            mat = sample_bi_invariant(
                Signature((0, 0)), 2, 2, 2, None, rng, ("z", trial)
            )
            assert mat.shift == 0
            assert smith_singular_numbers(mat).parts == (0, 0)

    def test_negative_parts_use_shift(self):
        rng = RngStream(25, 0)
        mat = sample_bi_invariant(Signature((0, -2)), 2, 2, 2, None, rng)
        assert mat.shift == -2
        assert smith_singular_numbers(mat).parts == (0, -2)

    def test_positive_smallest_part_is_the_shift(self):
        # the default precision covers the spread, not the magnitude
        rng = RngStream(25, 1)
        mat = sample_bi_invariant(Signature((35, 34, 33)), 3, 3, 3, None, rng)
        assert (mat.shift, mat.precision) == (33, 34)
        assert smith_singular_numbers(mat).parts == (35, 34, 33)

    def test_rectangular(self):
        rng = RngStream(26, 0)
        mat = sample_bi_invariant(Signature((2, 1)), 2, 4, 3, None, rng)
        assert smith_singular_numbers(mat).parts == (2, 1)


class TestCornerOfHaar:
    def test_full_block_is_the_group(self):
        rng = RngStream(27, 0)
        for trial in range(30):
            mat = sample_corner_of_haar(2, 2, 2, 3, 12, rng, ("c", trial))
            assert smith_singular_numbers(mat).parts == (0, 0)

    def test_infinite_scalar_valuation_is_geometric(self):
        # valuation of one uniform integral scalar: P(v = k) = (1-1/p) p^-k
        rng = RngStream(28, 0)
        counts = Counter()
        for i in range(20000):
            mat = sample_corner_of_haar(1, 1, None, 2, 30, rng, ("c", i))
            counts[smith_singular_numbers(mat).parts[0]] += 1
        expected = {k: Fraction(1, 2 ** (k + 1)) for k in range(12)}
        assert chi_square_gof(counts, expected, alpha=0.01).passed

    def test_shape_constraints(self):
        rng = RngStream(29, 0)
        with pytest.raises(Exception):
            sample_corner_of_haar(3, 2, 4, 2, 8, rng)


class TestDispatch:
    def test_fixed(self):
        spec = EnsembleSpec(Prime(2), 2, FixedSN(Signature((1, 0))))
        rng = RngStream(30, 0)
        for k in range(20):
            mat = draw_step_matrix(spec, rng, k)
            assert smith_singular_numbers(mat).parts == (1, 0)

    def test_mixture_frequencies(self):
        spec = EnsembleSpec(
            Prime(2),
            2,
            SNMixture(
                (
                    (Signature((1, 0)), Fraction(1, 2)),
                    (Signature((0, 0)), Fraction(1, 2)),
                )
            ),
        )
        rng = RngStream(31, 0)
        trials = 4000
        ones = sum(
            smith_singular_numbers(draw_step_matrix(spec, rng, k)).parts == (1, 0)
            for k in range(trials)
        )
        # binomial(trials, 1/2): three standard deviations
        band = 3 * math.sqrt(trials * 0.25)
        assert abs(ones - trials / 2) <= band

    def test_gsp_dispatch(self):
        spec = EnsembleSpec(Prime(3), 4, GSpHaar(2))
        mat = draw_step_matrix(spec, RngStream(32, 0), 0)
        assert is_gsp(mat) is not None

    def test_determinism_and_extension(self):
        spec = EnsembleSpec(Prime(2), 2, FixedSN(Signature((1, 0))))
        a = draw_step_matrix(spec, RngStream(33, 5), 9)
        b = draw_step_matrix(spec, RngStream(33, 5), 9)
        assert a.residues == b.residues
        big = draw_step_matrix(spec, RngStream(33, 5), 9, precision=a.precision * 2)
        mod = 2**a.precision
        assert tuple(tuple(x % mod for x in row) for row in big.residues) == a.residues
        other = draw_step_matrix(spec, RngStream(33, 6), 9)
        assert other.residues != a.residues

    def test_step_matrix_golden(self):
        """The step matrices the direct route redraws are a fixed function
        of (seed, trial, step law, precision), at the default precision and
        at twice it."""
        specs = [(name, build_preset(name)) for name in preset_names()]
        specs = [(name, spec) for name, spec in specs if isinstance(spec, EnsembleSpec)]
        specs.append(("corner-4-base-4", EnsembleSpec(Prime(2), 3, CornerOfHaar(4), precision_base=4)))
        mixture = SNMixture(
            (
                (Signature((2, 1, 0)), Fraction(1, 3)),
                (Signature((1, 1, -1)), Fraction(2, 3)),
            )
        )
        specs.append(("mixture-p3", EnsembleSpec(Prime(3), 3, mixture)))
        h = hashlib.sha256()
        for name, spec in specs:
            rng = RngStream(2024, 7)
            for k in range(1, 201):
                mat = draw_step_matrix(spec, rng, k)
                big = draw_step_matrix(spec, rng, k, 2 * mat.precision)
                for m in (mat, big):
                    h.update(repr((name, k, m.residues, m.shift, m.precision)).encode())
        assert h.hexdigest() == STEP_MATRIX_GOLDEN_SHA256


class TestLawInvariance:
    def test_corner_law_same_across_seed_ranges(self):
        # the corner-signature law of a bi-invariant draw cannot depend on
        # which Haar factors were drawn: histograms from two disjoint seed
        # ranges both match the exact corner law
        from padic_rmt.hall_littlewood import corner_distribution
        from padic_rmt.padic import corner

        exact = corner_distribution(Signature((1, 0)), Fraction(1, 2))
        expected = {sig: pr for sig, pr in exact.probs.items()}
        for base_seed in (500, 501):
            rng = RngStream(base_seed, 0)
            counts = Counter()
            for i in range(4000):
                mat = sample_bi_invariant(
                    Signature((1, 0)), 2, 2, 2, None, rng, ("m", i)
                )
                counts[smith_singular_numbers(corner(mat, 2))] += 1
            assert chi_square_gof(counts, expected, alpha=0.01).passed

    def test_rectangular_corner_matches_measure(self):
        # 1 x 2 corner of a rank-3 Haar element: the exact measure puts
        # mass 6/7 at the zero signature (complement of the unique nonzero
        # residue pattern with both tracked entries even)
        from padic_rmt.hall_littlewood import hl_haar_corner_measure
        from padic_rmt.stats import tv_distance

        measure = hl_haar_corner_measure(1, 2, 3, 2)
        assert measure.prob(Signature((0,))) == Fraction(6, 7)
        rng = RngStream(502, 0)
        counts = Counter()
        for i in range(20000):
            mat = sample_corner_of_haar(1, 2, 3, 2, 24, rng, ("c", i))
            counts[smith_singular_numbers(mat)] += 1
        assert tv_distance(counts, measure) < Fraction(1, 50)


def _profile_or_none(grid, p, precision):
    """The row-subset minor profile, or None when it is uncertified."""
    try:
        return minor_profile_masks(grid, p, precision)
    except PrecisionExhausted:
        return None


class TestLeftFactor:
    """The engine reads the profile of U * D; the public step matrix is
    U * D * V.  Cauchy-Binet makes the two profiles equal."""

    @pytest.mark.parametrize(
        "name", [name for name in preset_names() if name != "paper-counterexample"]
    )
    def test_engine_profile_equals_step_matrix_profile(self, name):
        spec = build_preset(name)
        source = EnsembleSource(spec)
        p = spec.p.p
        for k in range(1, 61):
            grid, shift, n_used = step_grid(spec, RngStream(40, 2), k)
            mat = draw_step_matrix(spec, RngStream(40, 2), k, n_used)
            assert mat.shift == shift, (name, k)
            g = _profile_or_none(grid, p, n_used)
            assert g is not None, (name, k)
            assert g == _profile_or_none(mat.residues, p, n_used), (name, k)
            assert source.profile(k, RngStream(40, 2)) == (g, shift, []), (name, k)

    @staticmethod
    def _check_gsp_step_matrix(spec):
        """The step matrix is the public sampler's draw, with the smallest
        part as its shift, and the similitude the sampler derives,
        u_U * p^spread * u_V, is is_gsp's reading."""
        lam = spec.kind.lam
        for k in range(5):
            mat = draw_step_matrix(spec, RngStream(41, 0), k)
            el = sample_bi_invariant_gsp(lam, spec.p, mat.precision, RngStream(41, 0), ("step", k))
            assert mat == el.matrix
            assert mat.shift == lam[spec.n - 1]
            assert is_gsp(el.matrix) == el.similitude

    def test_gsp_step_matrix_is_the_public_sampler(self):
        self._check_gsp_step_matrix(build_preset("gsp4-fixed-1100"))

    @pytest.mark.parametrize("parts", [(1, 1, 0, 0), (3, 2, 2, 1), (2, 1, 1, 0)])
    def test_gsp_step_matrix_is_the_public_sampler_at_p3(self, parts):
        self._check_gsp_step_matrix(EnsembleSpec(Prime(3), 4, GSpFixedSN(Signature(parts))))

    def test_gsp_similitude_unreadable_at_the_spread(self):
        # p^spread is 0 mod p^precision, so u_U * p^spread * u_V is unreadable
        with pytest.raises(PrecisionExhausted):
            sample_bi_invariant_gsp(Signature((3, 2, 2, 1)), 3, 2, RngStream(41, 0))

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from([2, 3]),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        parts=st.lists(st.integers(-2, 7), min_size=4, max_size=4),
    )
    def test_right_factor_keeps_the_profile(self, p, n, seed, parts):
        lam = Signature(tuple(sorted(parts[:n], reverse=True)))
        precision = lam.spread() + 4
        rng = RngStream(seed, 0)
        u = sample_haar_gl(n, p, precision, rng, ("u",)).residues
        v = sample_haar_gl(n, p, precision, rng, ("v",)).residues
        mod = p**precision
        scale = [p ** (x - lam[n - 1]) for x in lam]
        ud = [[x * s % mod for x, s in zip(row, scale)] for row in u]
        udv = [
            [sum(ud[i][t] * v[t][j] for t in range(n)) % mod for j in range(n)]
            for i in range(n)
        ]
        assert _profile_or_none(ud, p, precision) == _profile_or_none(udv, p, precision)


@st.composite
def _bi_invariant_laws(draw):
    """A FixedSN law with n <= 5 or a GSpFixedSN law with n in (2, 4), of
    spread <= 6 (0: all parts equal) and smallest part in [-2, 2], at
    p in {2, 3, 5}."""
    p = draw(st.sampled_from([2, 3, 5]))
    shift = draw(st.integers(-2, 2))
    spread = draw(st.integers(0, 6))
    if draw(st.booleans()):
        # balanced: part i and part 2h+1-i sum to the spread
        half = draw(st.integers(1, 2))
        rest = draw(st.lists(st.integers(-(-spread // 2), spread), min_size=half - 1, max_size=half - 1))
        top = [spread] + sorted(rest, reverse=True)
        d, kind = top + [spread - x for x in reversed(top)], GSpFixedSN
    else:
        n = draw(st.integers(1, 5))
        mid = draw(st.lists(st.integers(0, spread), min_size=n - 2, max_size=n - 2)) if n > 1 else []
        d = [spread] + sorted(mid, reverse=True) + [0] if n > 1 else [0]
        kind = FixedSN
    lam = Signature(tuple(x + shift for x in d))
    return EnsembleSpec(Prime(p), len(lam), kind(lam)), d


class TestCertifiedPrecision:
    """weight(lam - shift) + 1 digits of U * diag(p^(lam - shift)) * V
    certify every row-subset profile entry and every row corner's singular
    numbers, and no fewer digits do."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(law=_bi_invariant_laws(), seed=st.integers(0, 2**32 - 1))
    def test_the_bound_certifies_the_engine_and_the_corners(self, law, seed):
        spec, d = law
        lam, p, n = spec.kind.lam, spec.p.p, spec.n
        bound = sum(d) + 1
        assert _certified_precision(lam.parts, spec.precision_base) == bound
        rng = RngStream(seed, 0)
        for step in (1, 2):
            grid, shift, n_used = step_grid(spec, rng, step, bound)
            wide, wide_shift, wide_used = step_grid(spec, rng, step)
            assert (shift, n_used, wide_used) == (wide_shift, bound, lam.spread() + spec.precision_base)
            assert minor_profile_masks(grid, p, bound) == minor_profile_masks(wide, p, wide_used)
        narrow = sample_bi_invariant(lam, n, n, p, bound, rng, ("bi",))
        wide = sample_bi_invariant(lam, n, n, p, None, rng, ("bi",))
        for level in range(1, n + 1):
            assert smith_singular_numbers(corner(narrow, level)) == smith_singular_numbers(corner(wide, level))
        if sum(d):
            # the bound is tight: diag(p^d)'s full minor p^weight(d) vanishes
            # mod p^weight(d)
            diag = [[p**x if i == j else 0 for j in range(n)] for i, x in enumerate(d)]
            with pytest.raises(PrecisionExhausted):
                minor_profile_masks([[x % p ** sum(d) for x in row] for row in diag], p, sum(d))
