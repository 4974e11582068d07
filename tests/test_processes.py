"""The coupled product / corner-sum dynamics."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padic_rmt
from padic_rmt.ensembles import (
    CornerOfHaar,
    EnsembleSpec,
    FixedSN,
    GSpFixedSN,
    HaarEntries,
    SNMixture,
    draw_step_matrix,
)
from padic_rmt.errors import PrecisionExhausted
from padic_rmt.padic import Prime, Signature, corner, reduce, smith_singular_numbers
from padic_rmt.processes import (
    CounterexampleSource,
    EnsembleSource,
    InterpolatingState,
    as_source,
    check_equal_difference,
    corner_weights,
    interpolation_step,
    iter_coupled_steps,
    literal_product_sn,
    lyapunov_estimates,
    product_step,
    run_coupled_trajectory,
    split_margins,
)
from padic_rmt.presets import build_preset, preset_names
from padic_rmt.rng import RngStream

F = Fraction

SPEC_PRESETS = [name for name in preset_names() if name != "paper-counterexample"]

# SHA-256 over the engine's rows, with interpolation, and escalations for
# every preset at seed (2024, 7); see test_engine_golden
ENGINE_GOLDEN_SHA256 = "ed28af642b5ead2a43eb8e9d3df0f366fc53c780f2fa47bc50601f50dffdf057"

# (spec, k_max, with_interpolation) that escalate at precision base 4, and
# the SHA-256 over their rows and escalation logs at seed (2024, 7); see
# test_escalation_golden
ESCALATING_SPECS = [
    (EnsembleSpec(Prime(2), 3, CornerOfHaar(4), precision_base=4), 1000, True),
    (EnsembleSpec(Prime(3), 3, FixedSN(Signature((5, 5, 0))), precision_base=4), 400, False),
    (EnsembleSpec(Prime(2), 4, GSpFixedSN(Signature((4, 4, 0, 0))), precision_base=4), 150, False),
]
ESCALATION_GOLDEN_SHA256 = "d765b016421d5cce69ca1843ece143def01d8ad497e7d7c4a5b73ac7829462c2"


def fixed_spec(parts, p=2):
    return EnsembleSpec(Prime(p), len(parts), FixedSN(Signature(parts)))


class TestProductStep:
    def test_diagonal_growth(self):
        a = reduce([[1, 0], [0, 4]], 2, 30)
        assert product_step(Signature((1, 0)), a).parts == (2, 1)

    def test_identity_prefix(self):
        rng = RngStream(50, 0)
        mat = draw_step_matrix(fixed_spec((2, 0, -1)), rng, 0)
        got = product_step(Signature((0, 0, 0)), mat)
        assert got == smith_singular_numbers(mat)

    def test_antidiagonal(self):
        a = reduce([[0, 2], [1, 0]], 2, 30)
        assert product_step(Signature((5, 0)), a).parts == (6, 0)

    def test_agrees_with_minor_profile_route(self):
        # the trajectory engine advances by minor-valuation profiles; the
        # direct route scales, multiplies and eliminates: they must agree
        spec = fixed_spec((2, 0))
        src = EnsembleSource(spec)
        rng = RngStream(51, 0)
        traj = run_coupled_trajectory(spec, 40, RngStream(51, 0))
        prev = Signature((0, 0))
        for step in traj.steps:
            mat = src.matrix(step.k, rng, precision=prev.spread() + 40)
            assert product_step(prev, mat) == step.lam, step.k
            prev = step.lam

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), p=st.sampled_from([2, 3]), base=st.integers(4, 8), seed=st.integers(0, 2**32 - 1))
    def test_profile_route_matches_direct_route_past_the_base(self, data, p, base, seed):
        # signature spreads up to three times the base, so the engine
        # escalates; every step is redrawn and reduced directly, doubling
        # the precision until the direct route certifies its answer
        def signature(n):
            low = data.draw(st.integers(-2, 2))
            parts = data.draw(st.lists(st.integers(0, 3 * base), min_size=n - 1, max_size=n - 1))
            return Signature(tuple(sorted([low] + [low + x for x in parts], reverse=True)))

        kind_name = data.draw(st.sampled_from(["FixedSN", "SNMixture", "GSpFixedSN"]))
        if kind_name == "GSpFixedSN":
            n = 4
            mid = data.draw(st.integers(-2, 2))
            outer = data.draw(st.lists(st.integers(0, 3 * base // 2), min_size=2, max_size=2))
            parts = [mid + x for x in outer] + [mid - x for x in outer]
            kind = GSpFixedSN(Signature(tuple(sorted(parts, reverse=True))))
        else:
            n = data.draw(st.integers(2, 3))
            kind = FixedSN(signature(n))
            if kind_name == "SNMixture":
                kind = SNMixture(((kind.lam, F(1, 3)), (signature(n), F(2, 3))))
        spec = EnsembleSpec(Prime(p), n, kind, precision_base=base)
        rng = RngStream(seed, 0)
        lam_prev = Signature((0,) * n)
        for k, lam, _v, w, sn_last, *_ in iter_coupled_steps(EnsembleSource(spec), 6, RngStream(seed, 0)):
            precision = base
            for _ in range(10):
                try:
                    a = draw_step_matrix(spec, rng, k, precision)
                    sn_direct = smith_singular_numbers(a).parts[-1]
                    direct = (product_step(lam_prev, a).parts, corner_weights(a), sn_direct)
                    break
                except PrecisionExhausted:
                    precision *= 2
            assert direct == (lam, w, sn_last), (spec, k)
            lam_prev = Signature(lam)


class TestCornerWeights:
    def test_diag_example(self):
        mat = reduce([[1, 0], [0, 16]], 2, 24)
        assert corner_weights(mat) == (4, 4)

    def test_identity(self):
        from padic_rmt.padic import PadicMatrix

        assert corner_weights(PadicMatrix.identity(3, 2, 8)) == (0, 0, 0)

    def test_matches_engine(self):
        spec = fixed_spec((2, 1, 0))
        rng = RngStream(52, 0)
        traj = run_coupled_trajectory(spec, 15, RngStream(52, 0))
        src = EnsembleSource(spec)
        for step in traj.steps:
            mat = src.matrix(step.k, rng)
            assert corner_weights(mat) == step.corner_weights


class TestCounterexample:
    def test_closed_forms_to_twenty(self):
        traj = run_coupled_trajectory(CounterexampleSource(2), 20, RngStream(0, 0))
        for step in traj.steps:
            k = step.k
            lam1 = sum(2 ** (k - 1 - 2 * i) for i in range(0, (k - 1) // 2 + 1))
            lam2 = (
                sum(2 ** (k - 2 - 2 * i) for i in range(0, (k - 2) // 2 + 1))
                if k >= 2
                else 0
            )
            assert step.lam.parts == (lam1, lam2)
            assert step.v == (0, 2**k - 1)

    def test_margins_diverge_down(self):
        traj = run_coupled_trajectory(CounterexampleSource(2), 16, RngStream(0, 0))
        series = split_margins(traj).series[0]
        assert all(b < a for a, b in zip(series, series[1:]))
        assert series[-1] < -30000

    def test_literal_matrices_available(self):
        # the literal product of the deterministic diagonal steps is
        # diag(1, p^(2^k - 1)); its singular numbers differ from the product
        # recursion's, which is possible because this step law is not
        # bi-invariant (the in-law identity does not apply to it)
        src = CounterexampleSource(2)
        sns = literal_product_sn(src, 6, RngStream(0, 0), precision=64)
        for k, lit in enumerate(sns, start=1):
            assert lit.parts == (2**k - 1, 0)


class TestTrajectory:
    def test_constant_law_is_deterministic(self):
        spec = fixed_spec((3, 3))
        traj = run_coupled_trajectory(spec, 12, RngStream(53, 0))
        for step in traj.steps:
            assert step.lam.parts == (3 * step.k, 3 * step.k)
            assert step.v == (3 * step.k, 3 * step.k)
            # margins stay flat for a constant-signature law
            assert step.split_margins == (0,)

    def test_weight_conservation_and_sn_last(self):
        spec = EnsembleSpec(
            Prime(3),
            2,
            SNMixture(
                ((Signature((1, 0)), F(1, 2)), (Signature((0, -1)), F(1, 2)))
            ),
        )
        traj = run_coupled_trajectory(spec, 60, RngStream(54, 0))
        total = 0
        for step in traj.steps:
            assert sum(step.lam.parts) == sum(step.v)
            assert step.sn_last in (-1, 0)
            total += step.corner_weights[0]
        assert sum(traj.steps[-1].lam.parts) == total

    def test_coupling_identity_in_distribution(self):
        # the product recursion equals the literal-product signatures in
        # law, not pathwise; at k = 3 the exact law is
        #   {(3,0): 4/9, (2,1): 5/9}
        # (the bottom coordinate goes up only when the scaled second row
        # attains the minimum, probability 1/3 independently per step)
        spec = fixed_spec((1, 0))
        exact = {(3, 0): F(4, 9), (2, 1): F(5, 9)}
        rec = Counter()
        lit = Counter()
        trials = 1500
        for s in range(trials):
            traj = run_coupled_trajectory(spec, 3, RngStream(55, s))
            rec[traj.steps[-1].lam.parts] += 1
            sns = literal_product_sn(spec, 3, RngStream(56, s), precision=64)
            lit[sns[-1].parts] += 1
            assert sum(traj.steps[-1].lam.parts) == sum(sns[-1].parts) == 3
        for counts in (rec, lit):
            for key, prob in exact.items():
                assert abs(counts[key] / trials - float(prob)) < 0.045, (
                    dict(counts),
                    key,
                )

    @pytest.mark.parametrize("preset", SPEC_PRESETS)
    def test_deterministic_across_precision_bases(self, preset):
        # escalation redraws the same matrices with more digits, so the
        # trajectory (lam, v, w, sn_last, margins and every interpolation
        # level) cannot depend on the starting precision
        spec = build_preset(preset)
        lo = replace(spec, precision_base=4)
        hi = replace(spec, precision_base=48)
        a = run_coupled_trajectory(lo, 80, RngStream(57, 0), with_interpolation=True)
        b = run_coupled_trajectory(hi, 80, RngStream(57, 0), with_interpolation=True)
        assert a.steps == b.steps
        assert not b.escalations
        if isinstance(spec.kind, (CornerOfHaar, HaarEntries)):
            # the entry laws reach the escalation path at base 4
            assert a.escalations

    @pytest.mark.parametrize("preset", SPEC_PRESETS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trial=st.integers(0, 10**6),
        base=st.integers(4, 40),
    )
    def test_rows_do_not_depend_on_the_precision_base(self, preset, seed, trial, base):
        # over seeds, trials and bases, including bases at and below the
        # p = 2 slice widths, where a draw reads one block
        spec = build_preset(preset)
        rows = []
        for b in (base, 2 * base):
            source = as_source(replace(spec, precision_base=b))
            steps = iter_coupled_steps(source, 60, RngStream(seed, trial))
            rows.append([(lam, v) for _k, lam, v, *_ in steps])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "p, base, kind, c",
        [
            (2, 32, FixedSN(Signature((0, 0))), 20),
            (2, 32, FixedSN(Signature((1, 0))), 20),
            (3, 32, SNMixture(((Signature((1, 0)), F(1, 2)), (Signature((0, 0)), F(1, 2)))), 20),
            (2, 4, GSpFixedSN(Signature((0, 0, 0, 0))), 2),
            (2, 4, GSpFixedSN(Signature((2, 1, 1, 0))), 1),
        ],
    )
    def test_shifted_law_shifts_the_rows(self, p, base, kind, c):
        """The step law lam + c gives the rows of lam plus k*c on every
        coordinate of lam, v and each interpolation level, and certifies
        without escalating: the smallest part is the shift, so both laws
        draw the same grid."""
        if isinstance(kind, SNMixture):
            shifted = SNMixture(tuple((lam.shifted(c), prob) for lam, prob in kind.components))
        else:
            shifted = type(kind)(kind.lam.shifted(c))
        n = 4 if isinstance(kind, GSpFixedSN) else 2
        for trial in range(2):
            runs = []
            for law in (kind, shifted):
                log = []
                source = as_source(EnsembleSpec(Prime(p), n, law, precision_base=base))
                runs.append(list(iter_coupled_steps(source, 40, RngStream(58, trial), True, log)))
                assert log == [], (law, trial)
            for (k, lam_a, v_a, *_, interp_a), (_, lam_b, v_b, *_, interp_b) in zip(*runs):
                for row_a, row_b in zip((lam_a, v_a, *interp_a), (lam_b, v_b, *interp_b)):
                    assert row_b == tuple(x + k * c for x in row_a), (law, trial, k)

    def test_engine_golden(self):
        """The rows iter_coupled_steps yields are a fixed function of (seed,
        trial, step law): this digest must not change without a stream
        version."""
        h = hashlib.sha256()
        for name in preset_names():
            if name.startswith("gsp4-"):
                k_max = 60
            elif name == "paper-counterexample":
                k_max = 40
            else:
                k_max = 300
            log = []
            source = as_source(build_preset(name))
            for row in iter_coupled_steps(source, k_max, RngStream(2024, 7), True, log):
                h.update(repr(row).encode())
            h.update(repr((name, log)).encode())
        assert h.hexdigest() == ENGINE_GOLDEN_SHA256

    def test_escalation_golden(self):
        """Where certification fails, and the rows after it, are a fixed
        function of (seed, trial, step law) too."""
        h = hashlib.sha256()
        for spec, k_max, with_interpolation in ESCALATING_SPECS:
            log = []
            rows = iter_coupled_steps(
                as_source(spec), k_max, RngStream(2024, 7), with_interpolation, log
            )
            for row in rows:
                h.update(repr(row).encode())
            assert log
            h.update(repr(log).encode())
        assert h.hexdigest() == ESCALATION_GOLDEN_SHA256

    def test_invariants_raise_typed_errors_under_optimize(self):
        # a source whose profile is not concave (single rows at valuation 3,
        # the whole matrix at 2) must fail loudly even with asserts stripped
        child = "\n".join(
            [
                "from padic_rmt.errors import InequalityViolated",
                "from padic_rmt.processes import iter_coupled_steps",
                "class Skewed:",
                "    n, p = 2, 2",
                "    def profile(self, k, rng):",
                "        return [None, 3, 3, 2], 0, []",
                "assert False, 'asserts are live: not running under -O'",
                "try:",
                "    list(iter_coupled_steps(Skewed(), 3, None))",
                "except InequalityViolated as exc:",
                "    print('raised', type(exc).__name__)",
            ]
        )
        src = str(Path(padic_rmt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", child],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "raised InequalityViolated"

    def test_reproducible(self):
        spec = fixed_spec((1, 0))
        a = run_coupled_trajectory(spec, 30, RngStream(58, 3))
        b = run_coupled_trajectory(spec, 30, RngStream(58, 3))
        assert [s.lam for s in a.steps] == [s.lam for s in b.steps]


class TestInterpolation:
    def test_engine_levels_match_direct_steps(self):
        spec = fixed_spec((2, 1, 0))
        n = 3
        traj = run_coupled_trajectory(spec, 25, RngStream(59, 0), with_interpolation=True)
        src = EnsembleSource(spec)
        rng = RngStream(59, 0)
        states = [
            InterpolatingState(j, (0,) * n) for j in range(1, n + 1)
        ]
        for step in traj.steps:
            mat = src.matrix(step.k, rng, precision=80)
            for idx, st in enumerate(states):
                states[idx] = interpolation_step(st, step.v, mat)
                assert states[idx].values == step.interpolation[idx], (step.k, idx)

    def test_boundary_levels(self):
        spec = fixed_spec((1, 0))
        traj = run_coupled_trajectory(spec, 50, RngStream(60, 0), with_interpolation=True)
        for step in traj.steps:
            assert step.interpolation[0] == step.v
            assert step.interpolation[-1] == step.lam.parts

    def test_neighbour_inequalities(self):
        spec = fixed_spec((2, 1, 0, 0))
        n = 4
        traj = run_coupled_trajectory(spec, 30, RngStream(61, 0), with_interpolation=True)
        for step in traj.steps:
            for j in range(1, n):
                lo = step.interpolation[j - 1]
                hi = step.interpolation[j]
                assert hi[n - j - 1] >= lo[n - j - 1]
                for i in range(1, j + 1):
                    assert hi[n - j - 1 + i] <= lo[n - j - 1 + i]


class TestSplitMargins:
    def test_drift_matches_prediction(self):
        # limit slope of the margin series is 2/3 - 1/3 = 1/3
        spec = fixed_spec((1, 0))
        traj = run_coupled_trajectory(spec, 2000, RngStream(62, 0))
        diag = split_margins(traj)
        assert diag.consistent
        final = diag.series[0][-1]
        assert abs(final / 2000 - 1 / 3) < 0.05

    def test_counterexample_flagged(self):
        traj = run_coupled_trajectory(CounterexampleSource(2), 16, RngStream(0, 0))
        assert not split_margins(traj).consistent


class TestEqualDifference:
    def test_wide_gap_implies_equality(self):
        # with a huge top gap the scaled top row cannot interfere below
        rng = RngStream(63, 0)
        spec = fixed_spec((1, 0, 0))
        src = EnsembleSource(spec)
        held = 0
        for trial in range(100):
            mat = src.matrix(trial + 1, rng, precision=80)
            verdict = check_equal_difference(Signature((40, 1, 0)), mat, 2)
            if verdict.precondition_held:
                held += 1
                assert verdict.equality_held
        assert held > 80

    def test_flat_signature_usually_fails_precondition(self):
        rng = RngStream(64, 0)
        spec = fixed_spec((1, 0))
        src = EnsembleSource(spec)
        mat = src.matrix(1, rng, precision=40)
        verdict = check_equal_difference(Signature((0, 0)), mat, 1)
        assert verdict.precondition_held in (True, False)

    def test_counterexample_replay(self):
        # at the third deterministic step the precondition fails, exactly
        # where the corner-sum and product sequences deviate
        src = CounterexampleSource(2)
        mat3 = src.matrix(3, None, precision=32)
        verdict = check_equal_difference(Signature((2, 1)), mat3, 1)
        assert not verdict.precondition_held

    def test_validation(self):
        mat = reduce([[1, 0], [0, 2]], 2, 16)
        with pytest.raises(ValueError):
            check_equal_difference(Signature((1, 0)), mat, 2)


class TestLyapunov:
    def test_constant_law_exact(self):
        spec = fixed_spec((2, 2))
        traj = run_coupled_trajectory(spec, 40, RngStream(65, 0))
        assert lyapunov_estimates(traj) == (F(2), F(2))

    def test_exact_rationals(self):
        spec = fixed_spec((1, 0))
        traj = run_coupled_trajectory(spec, 250, RngStream(66, 0))
        est = lyapunov_estimates(traj)
        assert all(isinstance(x, F) for x in est)
        assert abs(float(est[0]) - 2 / 3) < 0.1
