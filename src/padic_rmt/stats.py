"""Statistical verification layer.

Exact predictions (limit vectors, covariance targets) come from the
Hall-Littlewood module as rationals; simulation accumulators are exact
integer sums converted to floats only when the report is assembled, so a
report is a deterministic function of (config, master_seed) and parallel
and serial runs aggregate to identical numbers.

Almost-sure limit statements are checked through finite-run proxies with
explicit tolerances; reports say "consistent with", never more.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .ensembles import (
    CornerOfHaar,
    EnsembleSpec,
    HaarEntries,
    json_bool,
    json_int,
    json_number,
    parse_fields,
)
from .errors import BadConfiguration
from .hall_littlewood import (
    SignatureDistribution,
    corner_weight_covariance,
    haar_corner_lln_prediction,
    haar_entries_lln_prediction,
    lln_prediction,
)
from .padic import Signature
from .presets import build_preset
from .processes import CounterexampleSource, EnsembleSource, as_source, iter_coupled_steps
from .rng import RngStream


@dataclass(frozen=True)
class Tolerances:
    lln_abs: float = 0.02
    clt_rel: float = 0.15

    def __post_init__(self) -> None:
        if min(self.lln_abs, self.clt_rel) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's law, sizes and tolerances.  The step source is built
    once, here.  expect_split left unset follows the law: false exactly for
    the deterministic counterexample, whose gap diverges."""

    spec: EnsembleSpec | None = None
    preset: str | None = None
    k_max: int = 1000
    trials: int = 50
    master_seed: int = 2024
    tolerances: Tolerances = field(default_factory=Tolerances)
    jobs: int = 1
    expect_split: bool | None = None
    source: EnsembleSource | CounterexampleSource = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.preset is None):
            raise ValueError("give exactly one of spec or preset")
        if self.trials < 1 or self.jobs < 1 or self.k_max < 4:
            raise ValueError("need trials >= 1, jobs >= 1 and k_max >= 4")
        # an unknown preset name raises KeyError
        source = as_source(self.spec if self.preset is None else build_preset(self.preset))
        object.__setattr__(self, "source", source)
        if self.expect_split is None:
            split = not isinstance(source, CounterexampleSource)
            object.__setattr__(self, "expect_split", split)

    def to_json(self) -> dict:
        out = {
            "k_max": self.k_max,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "tolerances": asdict(self.tolerances),
            "jobs": self.jobs,
            "expect_split": self.expect_split,
        }
        if self.preset is not None:
            out["preset"] = self.preset
        else:
            out["spec"] = self.spec.to_json()
        return out

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Parse the JSON form; a malformed object raises ValueError naming
        the field at fault.  Absent fields keep their defaults."""
        return cls(**parse_fields(obj, _CONFIG_FIELDS))


_TOLERANCE_FIELDS = {"lln_abs": json_number, "clt_rel": json_number}
_CONFIG_FIELDS = {
    "spec": EnsembleSpec.from_json,
    "preset": lambda x: x,
    "k_max": json_int,
    "trials": json_int,
    "master_seed": json_int,
    "tolerances": lambda x: Tolerances(**parse_fields(x, _TOLERANCE_FIELDS)),
    "jobs": json_int,
    "expect_split": json_bool,
}


@dataclass(kw_only=True)
class ExperimentReport:
    """An experiment's outcome; the fields are declared in report order."""

    schema_version: int = 1
    kind: str
    config: dict
    predictions: dict
    estimates: dict
    criteria: list[dict]
    passed: bool
    notes: list[str]
    counters: dict
    runtime_seconds: float

    def to_json(self) -> dict:
        return asdict(self)


def _criterion(name: str, target, estimate, passed: bool, trials: int, **error) -> dict:
    """One pass/fail check of a report; error holds its error measure and
    tolerance, which the report lists between the estimate and the verdict."""
    head = {"name": name, "target": target, "estimate": estimate}
    return {**head, **error, "passed": passed, "trials": trials}


def _report(
    kind: str, config: ExperimentConfig, results: list, t0: float, criteria: list[dict], **parts
) -> ExperimentReport:
    """The report of an experiment started at time t0; parts holds its
    predictions, estimates and notes.  Its counters are deterministic, and
    the same for any --jobs."""
    return ExperimentReport(
        kind=kind,
        config=config.to_json(),
        criteria=criteria,
        passed=all(c["passed"] for c in criteria),
        counters={"escalations": sum(r.escalations for r in results)},
        runtime_seconds=time.time() - t0,
        **parts,
    )


# ---------------------------------------------------------------------------
# Trial execution (module-level functions so process pools can pickle them)
# ---------------------------------------------------------------------------


class TrialResult(NamedTuple):
    """Terminal vectors, running max |lam - v| at the quarter, half and full
    horizon, and the number of precision escalations of one trial."""

    lam: tuple
    v: tuple
    max_gap_q1: int
    max_gap_q2: int
    max_gap: int
    escalations: int


def _terminal_stats(source, k_max: int, master_seed: int, trial: int) -> TrialResult:
    """One trial: terminal products vector plus running max |lam - v| at the
    quarter, half and full horizon."""
    rng = RngStream(master_seed, trial)
    q1, q2 = k_max // 4, k_max // 2
    m = 0
    m_q1 = m_q2 = 0
    lam = v = None
    escalations: list = []
    steps = iter_coupled_steps(source, k_max, rng, escalation_log=escalations)
    for k, lam, v, _w, _sn, _mg, _i in steps:
        for a, b in zip(lam, v):
            if abs(a - b) > m:
                m = abs(a - b)
        if k == q1:
            m_q1 = m
        if k == q2:
            m_q2 = m
    return TrialResult(lam, v, m_q1, m_q2, m, len(escalations))


def map_trials(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in task order.  With jobs > 1 and at least two
    tasks, on min(jobs, len(tasks)) worker processes started with the
    platform's default method (fork on Linux, which spares each worker an
    interpreter start); otherwise in this process.  fn must be picklable,
    and an exception it raises in a worker is raised here."""
    workers = min(jobs, len(tasks))
    if workers < 2:
        return [fn(t) for t in tasks]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _run_trials(config: ExperimentConfig) -> list[TrialResult]:
    run_trial = partial(_terminal_stats, config.source, config.k_max, config.master_seed)
    return map_trials(run_trial, list(range(config.trials)), config.jobs)


def _power_sums(results: list[TrialResult]) -> tuple[list, list, list, list]:
    """Exact sums over the trials of lam_i, lam_i * lam_j, lam_i^3 and lam_i^4."""
    n = len(results[0].lam)
    s1 = [0] * n
    s2 = [[0] * n for _ in range(n)]
    s3 = [0] * n
    s4 = [0] * n
    for r in results:
        lam = r.lam
        for i, x in enumerate(lam):
            s1[i] += x
            s3[i] += x**3
            s4[i] += x**4
            row = s2[i]
            for j, y in enumerate(lam):
                row[j] += x * y
    return s1, s2, s3, s4


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------


def exact_lln_prediction(spec: EnsembleSpec) -> tuple[Fraction, ...] | None:
    """Exact limit of lam(k)/k when a closed form is available."""
    law = spec.finite_sn_law()
    t = Fraction(1, spec.p.p)
    if law is not None and not spec.is_symplectic:
        return lln_prediction(law, t)
    if isinstance(spec.kind, CornerOfHaar) and spec.kind.ambient is not None:
        return haar_corner_lln_prediction(spec.n, spec.kind.ambient, spec.p)
    if isinstance(spec.kind, (CornerOfHaar, HaarEntries)):
        return haar_entries_lln_prediction(spec.n, spec.p)
    return None


def exact_clt_target(spec: EnsembleSpec):
    """Exact (mean vector, covariance of corner weights, transformed
    covariance) for finite-support step laws."""
    law = spec.finite_sn_law()
    if law is None or spec.is_symplectic:
        return None
    t = Fraction(1, spec.p.p)
    mean = lln_prediction(law, t)
    sigma, lsig = corner_weight_covariance(law, t)
    return mean, sigma, lsig


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_lln_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Compare trial-averaged lam(k)/k with the exact limit vector; for the
    symplectic laws (no closed form here) check the balanced-pair symmetry
    of the estimates instead."""
    t0 = time.time()
    results = _run_trials(config)
    s1, s2, _s3, _s4 = _power_sums(results)
    n = len(s1)
    k = config.k_max
    trials = config.trials
    means = [Fraction(s, trials * k) for s in s1]
    variances = [Fraction(s2[i][i], trials) - Fraction(s1[i], trials) ** 2 for i in range(n)]
    stderr = [math.sqrt(max(0.0, float(var)) / trials) / k for var in variances]
    spec = getattr(config.source, "spec", None)  # None for a deterministic source
    pred = exact_lln_prediction(spec) if spec is not None else None
    if pred is not None:
        checks = [
            (f"lln_coordinate_{i + 1}", str(x), float(m), abs(float(m - x)))
            for i, (x, m) in enumerate(zip(pred, means))
        ]
        notes = []
    else:
        # symplectic symmetry: opposite coordinate sums agree
        ref = float(means[0] + means[n - 1])
        checks = []
        for i in range(1, n // 2):
            got = float(means[i] + means[n - 1 - i])
            checks.append((f"balanced_sum_{i + 1}_vs_1", ref, got, abs(got - ref)))
        notes = ["no closed-form limit for this law; checking balanced symmetry"]
    tol = config.tolerances.lln_abs
    criteria = [
        _criterion(name, target, estimate, err <= tol, trials, abs_error=err, tolerance=tol)
        for name, target, estimate, err in checks
    ]
    return _report(
        "lln",
        config,
        results,
        t0,
        criteria,
        predictions={"limit": [str(x) for x in pred] if pred else None},
        estimates={"mean_normalized": [float(m) for m in means], "stderr": stderr},
        notes=notes,
    )


def run_clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Empirical covariance of (lam(k) - k * limit)/sqrt(k) against the exact
    transformed corner-weight covariance, plus moment-based normality bands
    for every coordinate with a nonzero limiting variance."""
    t0 = time.time()
    spec = getattr(config.source, "spec", None)
    target = exact_clt_target(spec) if spec is not None else None
    if target is None:
        raise BadConfiguration("the fluctuation target needs a finite-support law")
    mean, _sigma, lsig = target
    results = _run_trials(config)
    s1, s2, s3, s4 = _power_sums(results)
    n = len(s1)
    k = config.k_max
    trials = config.trials
    mu = [Fraction(s, trials) for s in s1]
    # sample covariance of lam/sqrt(k), exactly
    emp = [[(Fraction(s2[i][j], trials) - mu[i] * mu[j]) / k for j in range(n)] for i in range(n)]
    tol = config.tolerances.clt_rel
    trace = sum(lsig[i][i] for i in range(n))
    near_zero_tol = tol * float(trace) / n
    degenerate = trace == 0
    criteria = []
    for i in range(n):
        for j in range(i, n):
            tgt = lsig[i][j]
            got = emp[i][j]
            if abs(tgt) > Fraction(1, 10**6):
                err = abs(float((got - tgt) / tgt))
                passed, mode, band = err <= tol, "relative", tol
            else:
                err = abs(float(got - tgt))
                passed, mode, band = err <= near_zero_tol or degenerate, "absolute", near_zero_tol
            criteria.append(
                _criterion(
                    f"cov_{i + 1}{j + 1}", str(tgt), float(got), passed, trials,
                    error=err, mode=mode, tolerance=band,
                )
            )
    notes = []
    if degenerate:
        notes.append("DegenerateCovariance: limiting covariance is zero")
    else:
        # skewness / excess kurtosis of coordinates with nonzero variance
        skew_band = 3 * math.sqrt(6 / trials)
        kurt_band = 3 * math.sqrt(24 / trials)
        for i in range(n):
            e1 = mu[i]
            e2, e3, e4 = (Fraction(s, trials) for s in (s2[i][i], s3[i], s4[i]))
            m2 = e2 - e1**2
            if lsig[i][i] == 0 or m2 == 0:
                continue
            m3 = e3 - 3 * e1 * e2 + 2 * e1**3
            m4 = e4 - 4 * e1 * e3 + 6 * e1**2 * e2 - 3 * e1**4
            for name, stat, band in (
                ("skewness", float(m3) / float(m2) ** 1.5, skew_band),
                ("excess_kurtosis", float(m4) / float(m2) ** 2 - 3, kurt_band),
            ):
                criteria.append(
                    _criterion(
                        f"{name}_{i + 1}", 0.0, stat, abs(stat) <= band, trials,
                        error=abs(stat), tolerance=band,
                    )
                )
    return _report(
        "clt",
        config,
        results,
        t0,
        criteria,
        predictions={
            "mean": [str(x) for x in mean],
            "covariance": [[str(x) for x in row] for row in lsig],
        },
        estimates={"covariance": [[float(x) for x in row] for row in emp]},
        notes=notes,
    )


def run_bounded_difference_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Stabilization proxy for the bounded product-vs-corner-sum gap: the
    running maximum of max_i |lam_i - v_i| should already be attained by the
    half horizon in at least 95% of trials; in the diverging preset it must
    keep growing instead."""
    t0 = time.time()
    results = _run_trials(config)
    trials = config.trials
    frac = sum(1 for r in results if r.max_gap == r.max_gap_q2) / trials
    grew = sum(1 for r in results if r.max_gap > r.max_gap_q2)
    if config.expect_split:
        criterion = _criterion("stabilized_fraction", ">= 0.95", frac, frac >= 0.95, trials)
        notes = []
    else:
        criterion = _criterion(
            "max_gap_keeps_growing", "all trials", grew / trials, grew == trials, trials
        )
        notes = ["non-split regime: the gap is expected to diverge"]
    maxima = sorted(r.max_gap for r in results)
    quartiles = {
        name: float(maxima[min(trials - 1, int(q * trials))])
        for name, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75))
    }
    return _report(
        "bounded-diff",
        config,
        results,
        t0,
        [criterion],
        predictions={},
        estimates={
            "stabilized_fraction": frac,
            "grew_fraction": grew / trials,
            "max_gap_quartiles": quartiles,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


def tv_distance(
    emp: dict[Signature, int], exact: SignatureDistribution
) -> Fraction:
    """Total-variation distance between an empirical histogram and an exact
    table: half the L1 gap over the union support."""
    total = sum(emp.values())
    if total < 1:
        raise ValueError("empty histogram")
    keys = set(emp) | set(exact.probs)
    out = Fraction(0)
    for key in keys:
        out += abs(Fraction(emp.get(key, 0), total) - exact.prob(key))
    return out / 2


@dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    dof: int
    critical: float
    alpha: float
    passed: bool
    pooled_cells: int


def chi_square_gof(
    emp: dict, expected_probs: dict, alpha: float = 0.01
) -> ChiSquareReport:
    """Pearson chi-square against exact cell probabilities; cells with
    expected count below 5 are pooled into one bucket."""
    from scipy.stats import chi2

    total = sum(emp.values())
    if total < 1:
        raise ValueError("empty histogram")
    cells = []
    for key, prob in expected_probs.items():
        cells.append((float(prob) * total, emp.get(key, 0)))
    tail_prob = max(0.0, 1 - sum(float(p) for p in expected_probs.values()))
    tail_count = total - sum(c for _, c in cells)
    if tail_prob > 0 or tail_count > 0:
        if tail_prob == 0 and tail_count > 0:
            # observations outside a full-support table can never fit
            return ChiSquareReport(math.inf, 1, 0.0, alpha, False, 0)
        cells.append((tail_prob * total, tail_count))
    cells.sort()
    pooled = 0
    while len(cells) > 2 and cells[0][0] < 5:
        e0, o0 = cells.pop(0)
        e1, o1 = cells.pop(0)
        cells.append((e0 + e1, o0 + o1))
        cells.sort()
        pooled += 1
    stat = sum((o - e) ** 2 / e for e, o in cells if e > 0)
    dof = max(1, len(cells) - 1)
    critical = float(chi2.isf(alpha, dof))
    return ChiSquareReport(
        statistic=float(stat),
        dof=dof,
        critical=critical,
        alpha=alpha,
        passed=stat <= critical,
        pooled_cells=pooled,
    )
