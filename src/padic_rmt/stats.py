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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .ensembles import CornerOfHaar, EnsembleSpec, HaarEntries, parse_fields
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
from .processes import as_source, iter_coupled_steps
from .rng import RngStream


@dataclass(frozen=True)
class Tolerances:
    lln_abs: float = 0.02
    clt_rel: float = 0.15
    tv_max: float = 0.02

    def __post_init__(self) -> None:
        if min(self.lln_abs, self.clt_rel, self.tv_max) <= 0:
            raise ValueError("tolerances must be positive")

    def to_json(self) -> dict:
        return {"lln_abs": self.lln_abs, "clt_rel": self.clt_rel, "tv_max": self.tv_max}


@dataclass(frozen=True)
class ExperimentConfig:
    spec: EnsembleSpec | None = None
    preset: str | None = None
    k_max: int = 1000
    trials: int = 50
    master_seed: int = 2024
    tolerances: Tolerances = field(default_factory=Tolerances)
    jobs: int = 1
    expect_split: bool = True

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.preset is None):
            raise ValueError("give exactly one of spec or preset")
        if self.trials < 1 or self.jobs < 1 or self.k_max < 4:
            raise ValueError("need trials >= 1, jobs >= 1 and k_max >= 4")
        if self.preset is not None:
            build_preset(self.preset)  # an unknown name raises KeyError

    def source_key(self):
        """Picklable description a worker can rebuild the source from."""
        if self.preset is not None:
            return ("preset", self.preset)
        return ("spec", self.spec.to_json())

    def build_source(self):
        return source_from_key(self.source_key())

    def ensemble_spec(self) -> EnsembleSpec | None:
        """The EnsembleSpec of the step law, or None for a deterministic source."""
        if self.spec is not None:
            return self.spec
        return getattr(self.build_source(), "spec", None)

    def to_json(self) -> dict:
        out = {
            "k_max": self.k_max,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "tolerances": self.tolerances.to_json(),
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


_CONFIG_FIELDS = {
    "spec": EnsembleSpec.from_json,
    "preset": lambda x: x,
    "k_max": int,
    "trials": int,
    "master_seed": int,
    "tolerances": lambda x: Tolerances(**x),
    "jobs": int,
    "expect_split": bool,
}


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    predictions: dict
    estimates: dict
    criteria: list[dict]
    passed: bool
    notes: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0
    schema_version: int = 1

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "config": self.config,
            "predictions": self.predictions,
            "estimates": self.estimates,
            "criteria": self.criteria,
            "passed": self.passed,
            "notes": self.notes,
            "counters": self.counters,
            "runtime_seconds": self.runtime_seconds,
        }


# ---------------------------------------------------------------------------
# Trial execution (module-level functions so process pools can pickle them)
# ---------------------------------------------------------------------------


def source_from_key(source_key):
    """The step source an ExperimentConfig.source_key describes."""
    kind, payload = source_key
    if kind == "preset":
        return as_source(build_preset(payload))
    return as_source(EnsembleSpec.from_json(payload))


class TrialResult(NamedTuple):
    """Terminal vectors, running max |lam - v| at the quarter, half and full
    horizon, and the number of precision escalations of one trial."""

    lam: tuple
    v: tuple
    max_gap_q1: int
    max_gap_q2: int
    max_gap: int
    escalations: int


def _terminal_stats(args) -> TrialResult:
    """One trial: terminal products vector plus running max |lam - v| at the
    quarter, half and full horizon."""
    source_key, k_max, master_seed, trial = args
    source = source_from_key(source_key)
    rng = RngStream(master_seed, trial)
    q1, q2 = k_max // 4, k_max // 2
    m = 0
    m_q1 = m_q2 = 0
    lam = v = None
    escalations: list = []
    steps = iter_coupled_steps(source, k_max, rng, escalation_log=escalations)
    for k, lam, v, _w, _sn, _mg, _i in steps:
        diff = max(abs(a - b) for a, b in zip(lam, v))
        if diff > m:
            m = diff
        if k == q1:
            m_q1 = m
        if k == q2:
            m_q2 = m
    return TrialResult(lam, v, m_q1, m_q2, m, len(escalations))


def _counters(results: list[TrialResult]) -> dict:
    """Run counters of a report: deterministic, and the same for any --jobs."""
    return {"escalations": sum(r.escalations for r in results)}


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
    args = [
        (config.source_key(), config.k_max, config.master_seed, t)
        for t in range(config.trials)
    ]
    return map_trials(_terminal_stats, args, config.jobs)


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
    n = len(results[0][0])
    k = config.k_max
    trials = config.trials
    sums = [0] * n
    squares = [0] * n
    for lam, _v, *_ in results:
        for i, x in enumerate(lam):
            sums[i] += x
            squares[i] += x * x
    means = [Fraction(s, trials * k) for s in sums]
    stderr = []
    for i in range(n):
        var = Fraction(squares[i], trials) - Fraction(sums[i], trials) ** 2
        stderr.append(math.sqrt(max(0.0, float(var)) / trials) / k)
    spec = config.ensemble_spec()
    pred = exact_lln_prediction(spec) if spec is not None else None
    tol = config.tolerances.lln_abs
    criteria = []
    if pred is not None:
        for i in range(n):
            err = abs(float(means[i] - pred[i]))
            criteria.append(
                {
                    "name": f"lln_coordinate_{i + 1}",
                    "target": str(pred[i]),
                    "estimate": float(means[i]),
                    "abs_error": err,
                    "tolerance": tol,
                    "passed": err <= tol,
                    "trials": trials,
                }
            )
        notes = []
    else:
        # symplectic symmetry: opposite coordinate sums agree
        ref = float(means[0] + means[n - 1])
        for i in range(1, n // 2):
            got = float(means[i] + means[n - 1 - i])
            criteria.append(
                {
                    "name": f"balanced_sum_{i + 1}_vs_1",
                    "target": ref,
                    "estimate": got,
                    "abs_error": abs(got - ref),
                    "tolerance": tol,
                    "passed": abs(got - ref) <= tol,
                    "trials": trials,
                }
            )
        notes = ["no closed-form limit for this law; checking balanced symmetry"]
    return ExperimentReport(
        kind="lln",
        config=config.to_json(),
        predictions={"limit": [str(x) for x in pred] if pred else None},
        estimates={
            "mean_normalized": [float(m) for m in means],
            "stderr": stderr,
        },
        criteria=criteria,
        passed=all(c["passed"] for c in criteria),
        notes=notes,
        counters=_counters(results),
        runtime_seconds=time.time() - t0,
    )


def run_clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Empirical covariance of (lam(k) - k * limit)/sqrt(k) against the exact
    transformed corner-weight covariance, plus moment-based normality bands
    for every coordinate with a nonzero limiting variance."""
    t0 = time.time()
    spec = config.ensemble_spec()
    target = exact_clt_target(spec) if spec is not None else None
    if target is None:
        raise BadConfiguration("the fluctuation target needs a finite-support law")
    mean, _sigma, lsig = target
    results = _run_trials(config)
    n = len(results[0][0])
    k = config.k_max
    trials = config.trials
    s1 = [0] * n
    s2 = [[0] * n for _ in range(n)]
    s3 = [0] * n
    s4 = [0] * n
    for lam, *_ in results:
        for i, x in enumerate(lam):
            s1[i] += x
            s3[i] += x**3
            s4[i] += x**4
            row = s2[i]
            for j, y in enumerate(lam):
                row[j] += x * y
    # sample covariance of lam/sqrt(k), exactly
    emp = [
        [
            (Fraction(s2[i][j], trials) - Fraction(s1[i], trials) * Fraction(s1[j], trials))
            / k
            for j in range(n)
        ]
        for i in range(n)
    ]
    tol = config.tolerances.clt_rel
    trace = sum(lsig[i][i] for i in range(n))
    near_zero_tol = tol * float(trace) / n
    criteria = []
    degenerate = trace == 0
    for i in range(n):
        for j in range(i, n):
            tgt = lsig[i][j]
            got = emp[i][j]
            if abs(tgt) > Fraction(1, 10**6):
                err = abs(float((got - tgt) / tgt))
                passed = err <= tol
                mode = "relative"
            else:
                err = abs(float(got - tgt))
                passed = err <= near_zero_tol or degenerate
                mode = "absolute"
            criteria.append(
                {
                    "name": f"cov_{i + 1}{j + 1}",
                    "target": str(tgt),
                    "estimate": float(got),
                    "error": err,
                    "mode": mode,
                    "tolerance": tol if mode == "relative" else near_zero_tol,
                    "passed": bool(passed),
                    "trials": trials,
                }
            )
    notes = []
    if degenerate:
        notes.append("DegenerateCovariance: limiting covariance is zero")
    else:
        # skewness / excess kurtosis of coordinates with nonzero variance
        skew_band = 3 * math.sqrt(6 / trials)
        kurt_band = 3 * math.sqrt(24 / trials)
        for i in range(n):
            if lsig[i][i] == 0:
                continue
            mu = Fraction(s1[i], trials)
            m2 = Fraction(s2[i][i], trials) - mu**2
            if m2 == 0:
                continue
            m3 = Fraction(s3[i], trials) - 3 * mu * Fraction(s2[i][i], trials) + 2 * mu**3
            m4 = (
                Fraction(s4[i], trials)
                - 4 * mu * Fraction(s3[i], trials)
                + 6 * mu**2 * Fraction(s2[i][i], trials)
                - 3 * mu**4
            )
            skew = float(m3) / float(m2) ** 1.5
            exkurt = float(m4) / float(m2) ** 2 - 3
            criteria.append(
                {
                    "name": f"skewness_{i + 1}",
                    "target": 0.0,
                    "estimate": skew,
                    "error": abs(skew),
                    "tolerance": skew_band,
                    "passed": abs(skew) <= skew_band,
                    "trials": trials,
                }
            )
            criteria.append(
                {
                    "name": f"excess_kurtosis_{i + 1}",
                    "target": 0.0,
                    "estimate": exkurt,
                    "error": abs(exkurt),
                    "tolerance": kurt_band,
                    "passed": abs(exkurt) <= kurt_band,
                    "trials": trials,
                }
            )
    return ExperimentReport(
        kind="clt",
        config=config.to_json(),
        predictions={
            "mean": [str(x) for x in mean],
            "covariance": [[str(x) for x in row] for row in lsig],
        },
        estimates={
            "covariance": [[float(x) for x in row] for row in emp],
        },
        criteria=criteria,
        passed=all(c["passed"] for c in criteria),
        notes=notes,
        counters=_counters(results),
        runtime_seconds=time.time() - t0,
    )


def run_bounded_difference_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Stabilization proxy for the bounded product-vs-corner-sum gap: the
    running maximum of max_i |lam_i - v_i| should already be attained by the
    half horizon in at least 95% of trials; in the diverging preset it must
    keep growing instead."""
    t0 = time.time()
    results = _run_trials(config)
    trials = config.trials
    stabilized = sum(1 for r in results if r.max_gap == r.max_gap_q2)
    grew = sum(1 for r in results if r.max_gap > r.max_gap_q2)
    frac = stabilized / trials
    maxima = [r.max_gap for r in results]
    if config.expect_split:
        passed = frac >= 0.95
        name = "stabilized_fraction"
        crit = {
            "name": name,
            "target": ">= 0.95",
            "estimate": frac,
            "passed": passed,
            "trials": trials,
        }
        notes = []
    else:
        passed = grew == trials
        crit = {
            "name": "max_gap_keeps_growing",
            "target": "all trials",
            "estimate": grew / trials,
            "passed": passed,
            "trials": trials,
        }
        notes = ["non-split regime: the gap is expected to diverge"]
    return ExperimentReport(
        kind="bounded-diff",
        config=config.to_json(),
        predictions={},
        estimates={
            "stabilized_fraction": frac,
            "grew_fraction": grew / trials,
            "max_gap_quartiles": {
                "q1": float(_quantile(maxima, 0.25)),
                "median": float(_quantile(maxima, 0.5)),
                "q3": float(_quantile(maxima, 0.75)),
            },
        },
        criteria=[crit],
        passed=passed,
        notes=notes,
        counters=_counters(results),
        runtime_seconds=time.time() - t0,
    )


def _quantile(xs: list, q: float) -> float:
    ys = sorted(xs)
    idx = min(len(ys) - 1, int(q * len(ys)))
    return float(ys[idx])


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
