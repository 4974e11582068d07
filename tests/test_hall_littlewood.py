"""Exact symmetric-function engine: identities, tables, predictions."""

import hashlib
from fractions import Fraction

import pytest

from padic_rmt.errors import (
    InequalityViolated,
    KernelPole,
    NotInterlacing,
    RepeatedPoints,
)
from padic_rmt.hall_littlewood import (
    SignatureDistribution,
    UniPoly,
    b_normalization,
    cauchy_kernel,
    corner_distribution,
    corner_weight_covariance,
    corner_weight_pgf,
    enumerate_chains,
    expected_corner_weight,
    expected_corner_weight_direct,
    haar_corner_increment_mean,
    haar_corner_increment_pgf,
    haar_corner_lln_prediction,
    haar_entries_lln_prediction,
    hl_haar_corner_measure,
    hl_p_eval,
    hl_p_symmetrized_oracle,
    hl_q_eval,
    hl_skew_eval,
    interlacings_below,
    joint_corner_distribution,
    kth_corner_distribution,
    lln_prediction,
    principal_specialization,
    psi,
    verify_corner_inequality,
)
from padic_rmt.padic import Signature
from padic_rmt.rng import RngStream

F = Fraction
T = F(1, 2)


def sig(*parts):
    return Signature(tuple(parts))


def all_signatures(n, lo, hi):
    def rec(prefix, top):
        if len(prefix) == n:
            yield Signature(prefix)
            return
        for x in range(top, lo - 1, -1):
            yield from rec(prefix + (x,), x)

    yield from rec((), hi)


class TestUniPoly:
    def test_arithmetic(self):
        x = UniPoly.x()
        p = (x + 1) * (x - 1)
        assert p == UniPoly({2: F(1), 0: F(-1)})
        assert p.evaluate(F(3)) == 8
        assert p.derivative() == UniPoly({1: F(2)})

    def test_monomial_negative_power(self):
        m = UniPoly.x(2, F(1, 3))
        assert m**-1 == UniPoly({-2: F(3)})

    def test_general_negative_power_rejected(self):
        with pytest.raises(ValueError):
            (UniPoly.x() + 1) ** -1


class TestPsi:
    def test_no_multiplicity_growth(self):
        # no value gains multiplicity going from (1,0) to (1) or (0)
        assert psi(sig(1, 0), sig(1), T) == 1
        assert psi(sig(1, 0), sig(0), T) == 1

    def test_multiplicity_growth(self):
        # 1 appears once in (1) but 0 times in (2,0)
        assert psi(sig(2, 0), sig(1), T) == 1 - T

    def test_not_interlacing(self):
        with pytest.raises(NotInterlacing):
            psi(sig(2, 2), sig(0), T)


class TestChains:
    def test_counts(self):
        assert len(list(enumerate_chains(sig(1, 0), Signature(()), 2))) == 2
        assert len(list(enumerate_chains(sig(3, 3), sig(3), 1))) == 1
        assert len(list(enumerate_chains(sig(2, 0), Signature(()), 2))) == 3

    def test_chain_weights(self):
        (chain,) = enumerate_chains(sig(3, 3), sig(3), 1)
        assert chain.weights() == (3,)
        # multiplicity of 3 drops from 2 to 1 going down, so no factor
        assert chain.psi_product(T) == 1
        # a factor appears when a value's multiplicity grows going down
        (chain,) = enumerate_chains(sig(2, 0), sig(1), 1)
        assert chain.psi_product(T) == 1 - T


class TestEvaluation:
    def test_skew_single_point(self):
        assert hl_skew_eval(sig(1, 0), sig(1), [F(1)], T) == 1

    def test_skew_is_full_polynomial_over_empty(self):
        # P over (1,0) at two points is x1 + x2
        for pts in ([F(1), F(2)], [F(1, 2), F(5)]):
            assert hl_skew_eval(sig(1, 0), Signature(()), pts, T) == sum(pts)

    def test_shift_covariance(self):
        pts = [F(2), F(3)]
        lam, mu = sig(2, 1, 0, -1), sig(1, 0)
        base = hl_skew_eval(lam, mu, pts, T)
        shifted = hl_skew_eval(lam.shifted(3), mu.shifted(3), pts, T)
        assert shifted == base * (pts[0] * pts[1]) ** 3

    def test_p_examples(self):
        assert hl_p_eval(sig(0, 0, 0), [F(1), F(7), F(9)], T) == 1
        assert hl_p_eval(sig(1, 0), [F(1), T], T) == 1 + T
        assert hl_p_eval(sig(1, 0, 0), [F(1), T, T**2], T) == 1 + T + T**2
        assert hl_p_eval(sig(1, 0), [F(2), F(3)], T) == 5

    def test_two_row_coefficients(self):
        # P over (2,0) is x1^2 + x2^2 + (1-t) x1 x2: check at three points
        for x1, x2 in ((F(2), F(3)), (F(1), F(5)), (F(1, 2), F(4))):
            want = x1**2 + x2**2 + (1 - T) * x1 * x2
            assert hl_p_eval(sig(2, 0), [x1, x2], T) == want

    def test_oracle_equivalence_random(self):
        rng = RngStream(40, 0)
        pts3 = [F(2), F(3), F(5, 2)]
        for trial in range(120):
            n = 2 + rng.uniform_int(("n", trial), 3)
            parts = sorted(
                (rng.uniform_int(("p", trial, i), 6) - 2 for i in range(n)),
                reverse=True,
            )
            lam = Signature(tuple(parts))
            pts = pts3[:n] if n <= 3 else [F(2), F(3), F(5, 2), F(7, 3)]
            assert hl_p_eval(lam, pts, T) == hl_p_symmetrized_oracle(lam, pts, T)

    def test_oracle_needs_distinct_points(self):
        with pytest.raises(RepeatedPoints):
            hl_p_symmetrized_oracle(sig(1, 0), [F(1), F(1)], T)

    def test_padding_with_zeros(self):
        assert hl_p_eval(sig(2), [F(2), F(3)], T) == hl_p_eval(sig(2, 0), [F(2), F(3)], T)


class TestPrincipalSpecialization:
    def test_examples(self):
        x = F(3, 4)
        assert principal_specialization(sig(1, 0), x, T) == x * (1 + T)
        for c, n in ((2, 3), (-1, 4)):
            lam = Signature((c,) * n)
            want = x ** (n * c) * T ** (c * n * (n - 1) // 2)
            assert principal_specialization(lam, x, T) == want

    def test_identity_with_chain_evaluator(self):
        x = F(2, 3)
        for lam in all_signatures(3, -2, 3):
            pts = [x * T**i for i in range(3)]
            assert hl_p_eval(lam, pts, T) == principal_specialization(lam, x, T)


class TestCornerDistribution:
    def test_two_row_table(self):
        dist = corner_distribution(sig(1, 0), T)
        assert dist.probs == {sig(1): F(1, 3), sig(0): F(2, 3)}

    def test_constant_point_mass(self):
        dist = corner_distribution(sig(4, 4), T)
        assert dist.probs == {sig(4): F(1)}

    def test_three_row_table(self):
        dist = corner_distribution(sig(1, 0, 0), T)
        denom = 1 + T + T**2
        assert dist.probs == {
            sig(1, 0): T * (1 + T) / denom,
            sig(0, 0): 1 / denom,
        }

    def test_mass_one_with_negative_parts(self):
        assert corner_distribution(sig(2, 0, -3), T).total == 1


class TestJointDistribution:
    def test_two_rows_match_single_corner(self):
        joint = joint_corner_distribution(sig(1, 0), T)
        flat = {chain[0]: mass for chain, mass in joint.items()}
        assert flat == corner_distribution(sig(1, 0), T).probs

    def test_marginals_match_kth(self):
        for lam in (sig(1, 0, 0), sig(2, 1, 0)):
            joint = joint_corner_distribution(lam, T)
            for k in range(2, 4):
                marg = {}
                for chain, mass in joint.items():
                    key = chain[k - 2]
                    marg[key] = marg.get(key, F(0)) + mass
                assert marg == kth_corner_distribution(lam, k, T).probs

    def test_nonnegative_chain_masses(self):
        joint = joint_corner_distribution(sig(2, 0, -1), T)
        assert all(mass >= 0 for mass in joint.values())
        assert sum(joint.values()) == 1

    def test_kth_mass_one_exhaustive(self):
        for n in (2, 3, 4):
            for lam in all_signatures(n, 0, 3):
                for k in range(2, n + 1):
                    assert kth_corner_distribution(lam, k, T).total == 1

    def test_monte_carlo_vs_formula(self):
        # sampled corner signatures of a bi-invariant (1,0,0) matrix
        from padic_rmt.ensembles import sample_bi_invariant
        from padic_rmt.padic import corner, smith_singular_numbers
        from padic_rmt.stats import tv_distance

        rng = RngStream(41, 0)
        trials = 4000
        counts = {2: {}, 3: {}}
        for i in range(trials):
            mat = sample_bi_invariant(sig(1, 0, 0), 3, 3, 2, None, rng, ("m", i))
            for k in (2, 3):
                snk = smith_singular_numbers(corner(mat, k))
                counts[k][snk] = counts[k].get(snk, 0) + 1
        for k in (2, 3):
            tv = tv_distance(counts[k], kth_corner_distribution(sig(1, 0, 0), k, T))
            assert tv <= 0.05, (k, float(tv))


class TestPgfAndMoments:
    def test_level_one_is_total_weight(self):
        assert corner_weight_pgf(sig(2, 1, 0), 1, T) == UniPoly({3: F(1)})

    def test_two_row_pgf(self):
        assert corner_weight_pgf(sig(1, 0), 2, T) == UniPoly({0: F(2, 3), 1: F(1, 3)})

    def test_normalization_at_one(self):
        for lam in (sig(1, 0), sig(2, 1, 0), sig(3, 0, -1)):
            for j in range(1, len(lam) + 1):
                assert corner_weight_pgf(lam, j, T).evaluate(1) == 1

    def test_expected_weight_examples(self):
        law = {sig(1, 0): F(1)}
        assert expected_corner_weight(law, 2, T) == F(1, 3)
        law3 = {sig(2, 2, 2): F(1)}
        for j in range(1, 4):
            assert expected_corner_weight(law3, j, T) == 2 * (3 - j + 1)

    def test_dual_route_exhaustive(self):
        for n in (2, 3, 4):
            for lam in all_signatures(n, 0, 3):
                law = {lam: F(1)}
                for j in range(1, n + 1):
                    assert expected_corner_weight(law, j, T) == expected_corner_weight_direct(law, j, T)

    def test_lln_prediction(self):
        assert lln_prediction({sig(1, 0): F(1)}, T) == (F(2, 3), F(1, 3))
        assert lln_prediction({sig(3, 3, 3): F(1)}, T) == (F(3), F(3), F(3))

    def test_lln_components_telescope(self):
        law = {sig(2, 1, 0): F(1, 2), sig(1, 1, 1): F(1, 2)}
        pred = lln_prediction(law, T)
        mean_weight = sum(pr * lam.weight for lam, pr in law.items())
        assert sum(pred) == mean_weight

    def test_shift_covariance_of_corner_laws(self):
        lam = sig(2, 1, 0)
        c = 3
        base = kth_corner_distribution(lam, 2, T)
        shifted = kth_corner_distribution(lam.shifted(c), 2, T)
        assert shifted.probs == {s.shifted(c): pr for s, pr in base.probs.items()}
        for j in range(1, 4):
            gain = (3 - j + 1) * c
            assert (
                expected_corner_weight({lam.shifted(c): F(1)}, j, T)
                == expected_corner_weight({lam: F(1)}, j, T) + gain
            )


class TestCovariance:
    def test_constant_law_is_deterministic(self):
        sigma, lsig = corner_weight_covariance({sig(2, 2): F(1)}, T)
        assert all(x == 0 for row in sigma for x in row)
        assert all(x == 0 for row in lsig for x in row)

    def test_two_row_values(self):
        # top corner weight is deterministic (= 1); the bottom corner weight
        # is Bernoulli(1/3), so it has variance 2/9
        sigma, lsig = corner_weight_covariance({sig(1, 0): F(1)}, T)
        assert sigma[0][0] == 0 and sigma[0][1] == 0
        assert sigma[1][1] == F(2, 9)
        assert lsig == ((F(2, 9), F(-2, 9)), (F(-2, 9), F(2, 9)))

    def test_positive_semidefinite(self):
        for law in ({sig(2, 1, 0): F(1)}, {sig(1, 0): F(1, 3), sig(2, 0): F(2, 3)}):
            sigma, _ = corner_weight_covariance(law, T)
            n = len(sigma)
            # leading principal minors of a PSD matrix are nonnegative
            for k in range(1, n + 1):
                assert _det([row[:k] for row in sigma[:k]]) >= 0


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = F(0)
    sign = 1
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        out += sign * m[0][j] * _det(sub)
        sign = -sign
    return out


class TestCornerInequality:
    def test_two_row(self):
        report = verify_corner_inequality({sig(1, 0): F(1)}, T)
        assert report.applicable and report.strict
        assert report.gaps == (F(2, 3), F(1, 3))

    def test_degenerate(self):
        report = verify_corner_inequality({sig(2, 2): F(1)}, T)
        assert not report.applicable
        assert "degenerate" in report.note

    def test_three_rows_strict(self):
        for p in (2, 3):
            report = verify_corner_inequality({sig(2, 1, 0): F(1)}, F(1, p))
            assert report.strict
            gaps = report.gaps
            assert gaps[0] > gaps[1] > gaps[2] > 0


class TestDualFamilyAndKernel:
    def test_q_zero_signature(self):
        # zero parts carry no normalization factor (partition convention,
        # pinned by the sampled corner law agreeing with the measure below)
        assert hl_q_eval(sig(0, 0), [T], T) == 1

    def test_q_single_row(self):
        # generating function over one variable y: Q over (k) is (1-t) y^k
        for k in (1, 2, 5):
            assert hl_q_eval(sig(k), [F(1, 3)], T) == (1 - T) * F(1, 3) ** k

    def test_q_vanishes_beyond_length(self):
        assert hl_q_eval(sig(2, 1), [T], T) == 0

    def test_b_normalization(self):
        assert b_normalization(sig(3, 3, 0), T) == (1 - T) * (1 - T**2)

    def test_kernel(self):
        assert cauchy_kernel([F(1), T], [], T) == 1
        with pytest.raises(KernelPole):
            cauchy_kernel([F(2)], [F(1, 2)], T)

    def test_kernel_value(self):
        # single pair: (1 - t a b) / (1 - a b)
        assert cauchy_kernel([F(1)], [T], T) == (1 - T * T) / (1 - T)


class TestHaarCornerMeasure:
    def test_point_mass_when_block_is_whole_group(self):
        dist = hl_haar_corner_measure(2, 2, 2, 2)
        assert dist.probs == {sig(0, 0): F(1)}

    def test_total_mass_certified(self):
        dist = hl_haar_corner_measure(2, 2, 3, 2)
        assert 1 - dist.total <= F(1, 10**6)

    def test_closed_form_for_rank_three(self):
        # support is (a, 0); mass 4/7 at zero and 3/(7 2^a) for a >= 1
        dist = hl_haar_corner_measure(2, 2, 3, 2)
        assert dist.prob(sig(0, 0)) == F(4, 7)
        for a in (1, 2, 5):
            assert dist.prob(Signature((a, 0))) == F(3, 7 * 2**a)

    def test_zero_has_largest_mass(self):
        dist = hl_haar_corner_measure(2, 2, 8, 2)
        top = max(dist.probs.values())
        assert dist.prob(sig(0, 0)) == top

    def test_increment_pgf_normalized(self):
        for j in (1, 2):
            assert haar_corner_increment_pgf(2, 3, j, T, F(1)) == 1

    def test_increment_means_match_measure_expectation(self):
        # dual route: the sum of the increment means is the expected top
        # corner weight under the measure (up to the certified truncation)
        n, ambient = 2, 3
        means = [haar_corner_increment_mean(n, ambient, j, T) for j in (1, 2)]
        dist = hl_haar_corner_measure(n, n, ambient, 2, F(1, 10**9))
        direct = sum(pr * lam.weight for lam, pr in dist.probs.items())
        assert abs(float(sum(means) - direct)) < 1e-7
        # and the second increment mean is the expected second-corner weight
        direct2 = F(0)
        for lam, pr in dist.probs.items():
            direct2 += pr * expected_corner_weight({lam: F(1)}, 2, T)
        assert abs(float(means[1] - direct2)) < 1e-7

    def test_known_increment_means(self):
        # closed sums: t/(1-t^2) and t^2 (1-t)/((1-t^2)(1-t^3))
        assert haar_corner_increment_mean(2, 3, 1, T) == F(2, 3)
        assert haar_corner_increment_mean(2, 3, 2, T) == F(4, 21)
        assert haar_corner_lln_prediction(2, 3, 2) == (F(2, 3), F(4, 21))

    def test_infinite_ambient_scalar_mean(self):
        # expected valuation of one uniform integral scalar is t/(1-t) = 1
        (mean,) = haar_entries_lln_prediction(1, 2)
        assert abs(float(mean) - 1.0) < 1e-9


class TestSignatureDistributionType:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            SignatureDistribution({sig(0): F(1, 2)})
        with pytest.raises(ValueError):
            SignatureDistribution({sig(0): F(-1), sig(1): F(2)})

    def test_json_entries(self):
        dist = corner_distribution(sig(1, 0), T)
        entries = dist.to_json_entries()
        assert {"signature": [1], "prob": "1/3"} in entries


# SHA-256 digests of the exact layer's tables and predictions; see
# TestExactLayerGolden
CORNER_TABLES_SHA256 = "30372cd1cb6b80c8aec099754f0d0d8e167078c02b3d7fca6233d6469082aca8"
PREDICTIONS_SHA256 = "5829864eecbe592a8a1d1ef77d5fad5c42ca39f905a65ca6d42cc5afed397dbe"
GOLDEN_TS = (F(1, 2), F(1, 3), F(1, 5))


def golden_signatures():
    """Every signature of length 1 to 4 with parts in [-1, 3]."""
    for n in range(1, 5):
        yield from all_signatures(n, -1, 3)


class TestExactLayerGolden:
    """Every corner law and every prediction built on them is a fixed
    exact table: a rewrite of the routes behind them must not move a
    digit."""

    def test_corner_tables_golden(self):
        h = hashlib.sha256()
        for lam in golden_signatures():
            for t in GOLDEN_TS:
                for k in range(1, len(lam) + 1):
                    entries = kth_corner_distribution(lam, k, t).to_json_entries()
                    h.update(repr((lam.parts, k, t, entries)).encode())
                if len(lam) >= 2:
                    entries = corner_distribution(lam, t).to_json_entries()
                    h.update(repr((lam.parts, t, entries)).encode())
        for t in GOLDEN_TS:
            h.update(repr(corner_distribution(sig(40, 20, 0), t).to_json_entries()).encode())
        assert h.hexdigest() == CORNER_TABLES_SHA256

    def test_predictions_golden(self):
        # point laws, and two-component mixtures of consecutive signatures
        # up to length 3; length 4 only at t = 1/2, which keeps the test to
        # a few seconds
        h = hashlib.sha256()
        for n in range(1, 5):
            sigs = list(all_signatures(n, -1, 3))
            laws = [{lam: F(1)} for lam in sigs]
            if n < 4:
                laws += [{a: F(1, 3), b: F(2, 3)} for a, b in zip(sigs, sigs[1:])]
            for law in laws:
                for t in GOLDEN_TS if n < 4 else (T,):
                    gaps = verify_corner_inequality(law, t).gaps
                    row = (lln_prediction(law, t), corner_weight_covariance(law, t), gaps)
                    h.update(str(row).encode())
        for n in range(1, 4):
            for p in (2, 3):
                h.update(str(haar_entries_lln_prediction(n, p)).encode())
                for ambient in range(n, 6):
                    h.update(str(haar_corner_lln_prediction(n, ambient, p)).encode())
        h.update(str(hl_haar_corner_measure(2, 2, 3, 2)).encode())
        h.update(str(hl_haar_corner_measure(2, 3, 4, 3)).encode())
        assert h.hexdigest() == PREDICTIONS_SHA256
