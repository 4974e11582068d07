"""Exact identity checklist runnable from the command line.

Each check recomputes something that must hold exactly (an algebraic
identity, an oracle equivalence, or a golden table committed to the
repository) and raises on the first mismatch.  This is a smoke screen for
packaging and regression problems; the full statistical acceptance suite
lives in the test directory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .ensembles import sample_bi_invariant, sample_haar_gl
from .errors import BadConfiguration, ConstraintViolated
from .hall_littlewood import (
    SignatureDistribution,
    corner_distribution,
    corner_weight_pgf,
    expected_corner_weight,
    expected_corner_weight_direct,
    hl_haar_corner_measure,
    hl_p_eval,
    hl_p_symmetrized_oracle,
    hl_skew_eval,
    joint_corner_distribution,
    kth_corner_distribution,
    principal_specialization,
    verify_corner_inequality,
)
from .padic import (
    Signature,
    corner,
    matmul,
    singular_numbers_via_minors,
    smith_singular_numbers,
)
from .processes import CounterexampleSource, run_coupled_trajectory
from .rng import RngStream
from .symplectic import gsp_singular_numbers, sample_haar_gsp


def _expect(ok: bool, detail: object = "check failed") -> None:
    """Raise ConstraintViolated unless ok; unlike assert, it holds under -O."""
    if not ok:
        raise ConstraintViolated(str(detail))


def _golden(name: str) -> dict:
    path = resources.files("padic_rmt").joinpath(f"golden/hl/{name}")
    return json.loads(path.read_text())


def _dist_to_entries(dist: SignatureDistribution) -> list[dict]:
    return dist.to_json_entries()


def _random_signature(rng: RngStream, tag: int, n: int, lo: int, hi: int) -> Signature:
    parts = sorted(
        (lo + rng.uniform_int(("sig", tag, i), hi - lo + 1) for i in range(n)),
        reverse=True,
    )
    return Signature(tuple(parts))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_padic_oracle_equivalence() -> None:
    rng = RngStream(101, 0)
    for trial in range(60):
        n = 2 + rng.uniform_int(("n", trial), 2)
        lam = _random_signature(rng, trial, n, -3, 5)
        mat = sample_bi_invariant(lam, n, n, 2, None, rng, ("m", trial))
        a = smith_singular_numbers(mat)
        b = singular_numbers_via_minors(mat)
        _expect(a == b == lam, (lam.parts, a.parts, b.parts))


def check_padic_bi_invariance() -> None:
    rng = RngStream(102, 0)
    for trial in range(25):
        lam = _random_signature(rng, trial, 3, -2, 4)
        mat = sample_bi_invariant(lam, 3, 3, 3, None, rng, ("m", trial))
        u = sample_haar_gl(3, 3, mat.precision, rng, ("u", trial))
        v = sample_haar_gl(3, 3, mat.precision, rng, ("v", trial))
        _expect(smith_singular_numbers(matmul(matmul(u, mat), v)) == lam)


def check_padic_interlacing() -> None:
    rng = RngStream(103, 0)
    for trial in range(25):
        lam = _random_signature(rng, trial, 4, -2, 4)
        mat = sample_bi_invariant(lam, 4, 4, 2, None, rng, ("m", trial))
        upper = smith_singular_numbers(mat)
        for i in range(2, 5):
            lower = smith_singular_numbers(corner(mat, i))
            _expect(
                all(upper[j] >= lower[j] >= upper[j + 1] for j in range(len(lower))),
                (upper.parts, lower.parts, i),
            )
            upper = lower


def check_hl_symmetrized_oracle() -> None:
    t = Fraction(1, 3)
    pts = [Fraction(2), Fraction(3), Fraction(5, 2)]
    rng = RngStream(104, 0)
    for trial in range(40):
        lam = _random_signature(rng, trial, 3, -2, 3)
        a = hl_p_eval(lam, pts, t)
        b = hl_p_symmetrized_oracle(lam, pts, t)
        _expect(a == b, (lam.parts, a, b))


def check_hl_principal_specialization() -> None:
    t = Fraction(1, 2)
    x = Fraction(3, 4)
    rng = RngStream(105, 0)
    for trial in range(40):
        n = 2 + rng.uniform_int(("n", trial), 3)
        lam = _random_signature(rng, trial, n, -2, 3)
        pts = [x * t**i for i in range(n)]
        _expect(hl_p_eval(lam, pts, t) == principal_specialization(lam, x, t))


def check_hl_branching_consistency() -> None:
    t = Fraction(1, 2)
    xs = [Fraction(1), Fraction(1, 2), Fraction(2)]
    rng = RngStream(106, 0)
    for trial in range(15):
        lam = _random_signature(rng, trial, 3, -1, 2)
        total = Fraction(0)
        for a in range(lam[1], lam[0] + 1):
            for b in range(lam[2], min(a, lam[1]) + 1):
                mu = Signature((a, b))
                total += hl_skew_eval(lam, mu, xs[2:], t) * hl_p_eval(mu, xs[:2], t)
        _expect(total == hl_p_eval(lam, xs, t), lam.parts)


def check_hl_corner_normalization() -> None:
    t = Fraction(1, 2)
    for lam in (Signature((1, 0)), Signature((2, 1, 0)), Signature((3, 0, -1))):
        dist = corner_distribution(lam, t)
        _expect(dist.total == 1)
        joint = joint_corner_distribution(lam, t)
        _expect(sum(joint.values()) == 1)
        # marginal of the joint law reproduces the direct corner law
        for k in range(2, len(lam) + 1):
            marg: dict[Signature, Fraction] = {}
            for chain, mass in joint.items():
                key = chain[k - 2]
                marg[key] = marg.get(key, Fraction(0)) + mass
            direct = kth_corner_distribution(lam, k, t)
            _expect(marg == direct.probs, (lam.parts, k))


def check_hl_expected_weight_dual_route() -> None:
    t = Fraction(1, 2)
    for lam in (Signature((1, 0)), Signature((2, 1, 0)), Signature((1, 1, 0))):
        law = {lam: Fraction(1)}
        for j in range(1, len(lam) + 1):
            a = expected_corner_weight(law, j, t)
            b = expected_corner_weight_direct(law, j, t)
            _expect(a == b, (lam.parts, j, a, b))
            _expect(corner_weight_pgf(lam, j, t).evaluate(1) == 1)


def check_processes_counterexample() -> None:
    traj = run_coupled_trajectory(CounterexampleSource(2), 12, RngStream(0, 0))
    for step in traj.steps:
        k = step.k
        lam1 = sum(2 ** (k - 1 - 2 * i) for i in range(0, (k - 1) // 2 + 1))
        lam2 = sum(2 ** (k - 2 - 2 * i) for i in range(0, (k - 2) // 2 + 1)) if k >= 2 else 0
        _expect(step.lam.parts == (lam1, lam2), (k, step.lam.parts))
        _expect(step.v == (0, 2**k - 1), (k, step.v))


def check_gsp_similitude() -> None:
    rng = RngStream(107, 0)
    for trial in range(10):
        el = sample_haar_gsp(2, 2, 16, rng, ("g", trial))
        _expect(gsp_singular_numbers(el).parts == (0, 0, 0, 0))


def check_golden_corner_dist_1_0() -> None:
    golden = _golden("corner_dist_1_0_p2.json")
    dist = corner_distribution(Signature((1, 0)), Fraction(1, 2))
    _expect(_dist_to_entries(dist) == golden["entries"], "corner table drifted")


def check_golden_corner_dist_1_0_0() -> None:
    golden = _golden("corner_dist_1_0_0_p2.json")
    dist = corner_distribution(Signature((1, 0, 0)), Fraction(1, 2))
    _expect(_dist_to_entries(dist) == golden["entries"], "corner table drifted")


def check_golden_corner_gaps() -> None:
    golden = _golden("corner_gaps.json")
    for entry in golden["entries"]:
        lam = Signature(tuple(entry["signature"]))
        t = Fraction(1, entry["p"])
        report = verify_corner_inequality({lam: Fraction(1)}, t)
        _expect(report.applicable and report.strict)
        _expect([str(g) for g in report.gaps] == entry["gaps"], entry)


def check_golden_haar_corner_measure() -> None:
    golden = _golden("haar_corner_2_2_3_p2.json")
    dist = hl_haar_corner_measure(2, 2, 3, 2)
    got = {tuple(e["signature"]): e["prob"] for e in _dist_to_entries(dist)}
    want = {tuple(e["signature"]): e["prob"] for e in golden["entries"]}
    for key, val in want.items():
        _expect(got.get(key) == val, (key, got.get(key), val))


CHECKS = [
    ("padic/oracle-equivalence", check_padic_oracle_equivalence),
    ("padic/bi-invariance", check_padic_bi_invariance),
    ("padic/interlacing", check_padic_interlacing),
    ("hl/symmetrized-oracle", check_hl_symmetrized_oracle),
    ("hl/principal-specialization", check_hl_principal_specialization),
    ("hl/branching-consistency", check_hl_branching_consistency),
    ("hl/corner-normalization", check_hl_corner_normalization),
    ("hl/expected-weight-dual-route", check_hl_expected_weight_dual_route),
    ("processes/counterexample-closed-form", check_processes_counterexample),
    ("gsp/similitude-identity", check_gsp_similitude),
    ("golden/corner-dist-1-0", check_golden_corner_dist_1_0),
    ("golden/corner-dist-1-0-0", check_golden_corner_dist_1_0_0),
    ("golden/corner-gaps", check_golden_corner_gaps),
    ("golden/haar-corner-measure", check_golden_haar_corner_measure),
]


def run_selftest(name_filter: str = "") -> int:
    """Run every check whose name contains the filter: 0 if all pass, 2 if
    any failed; BadConfiguration if no check matches."""
    failures = 0
    ran = 0
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        ran += 1
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"[FAIL] {name}: {exc}")
        else:
            print(f"[ok]   {name}")
    if ran == 0:
        raise BadConfiguration(f"no checks match filter {name_filter!r}")
    if failures:
        print(f"{failures} of {ran} checks failed")
        return 2
    print(f"all {ran} checks passed")
    return 0
