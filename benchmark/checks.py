"""Output checks of the benchmark workloads.

Every check returns a list of problems; an empty list means the output
passed.  Each compares the program's output with a computation made apart
from the engine (closed forms, the direct scale-multiply-eliminate route,
cofactor minors written here) or with a property the method must have.
The self-check feeds each one a corrupted copy of real output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

TRAJECTORY_HEADER = "# schema padic-rmt-trajectory v1"

# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def det(rows: list[list[int]]) -> int:
    """Exact integer determinant by first-row cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    out = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            out += (-1) ** j * x * det(minor)
    return out


def uncertified_row_subsets(grid: list[list[int]], p: int, precision: int) -> list[tuple]:
    """Row subsets all of whose square minors vanish mod p^precision; a
    profile read at this precision cannot be certified when any exists."""
    rows, cols = len(grid), len(grid[0])
    mod = p**precision
    out = []
    for size in range(1, rows + 1):
        for rs in combinations(range(rows), size):
            if all(
                det([[grid[r][c] for c in cs] for r in rs]) % mod == 0
                for cs in combinations(range(cols), size)
            ):
                out.append(rs)
    return out


def gl_acceptance(n: int, p: int) -> Fraction:
    """Share of n x n matrices over F_p that are invertible."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - Fraction(1, p**i)
    return out


def check_gl_accept(accepted: int, attempts: int, n: int, p: int, z: float = 5.0) -> list[str]:
    """Accepted / attempted Haar draws within a binomial band of |GL_n(F_p)| / p^(n^2)."""
    if attempts < 1:
        return [f"no GL_{n}(F_{p}) attempts were traced"]
    target = float(gl_acceptance(n, p))
    ratio = accepted / attempts
    band = z * math.sqrt(target * (1 - target) / attempts)
    if abs(ratio - target) > band:
        return [
            f"GL_{n}(F_{p}) acceptance {ratio:.5f} over {attempts} attempts is "
            f"outside {target:.5f} +- {band:.5f}"
        ]
    return []


# ---------------------------------------------------------------------------
# clt-fixed-10
# ---------------------------------------------------------------------------

CLT_TOLERANCE = 0.15  # the report's default relative tolerance
CLT_BAND_Z = 5.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def check_clt_report(report: dict, exit_code: int, trials: int, k_max: int, p: int = 2) -> list[str]:
    """A clt report of the fixed-10 law: exact predictions, exact estimate
    symmetries, estimates within a band sized from the trial count, and a
    verdict consistent with its own criteria and the exit code."""
    problems = []
    cfg = report.get("config", {})
    if cfg.get("trials") != trials or cfg.get("k_max") != k_max:
        problems.append(f"config echoes trials={cfg.get('trials')} k_max={cfg.get('k_max')}")
    # steps have singular numbers (1, 0): corner weights (1, Bernoulli(q))
    q = Fraction(1, p + 1)
    var = q * (1 - q)
    mean = [str(1 - q), str(q)]
    cov = [[str(var), str(-var)], [str(-var), str(var)]]
    pred = report.get("predictions", {})
    if [str(Fraction(x)) for x in pred.get("mean", [])] != mean:
        problems.append(f"predicted mean {pred.get('mean')} != {mean}")
    got_cov = [[str(Fraction(x)) for x in row] for row in pred.get("covariance", [])]
    if got_cov != cov:
        problems.append(f"predicted covariance {pred.get('covariance')} != {cov}")
    est = report.get("estimates", {}).get("covariance")
    if not (isinstance(est, list) and len(est) == 2 and all(len(r) == 2 for r in est)):
        return problems + [f"covariance estimate is not 2x2: {est!r}"]
    # lambda_1 + lambda_2 = k in every trial
    if not (est[0][0] == est[1][1] == -est[0][1] == -est[1][0]):
        problems.append(f"covariance estimate breaks cov_11 = -cov_12 = cov_22: {est}")
    band = CLT_BAND_Z * float(var) * math.sqrt(2 / (trials - 1))
    if abs(est[0][0] - float(var)) > band:
        problems.append(f"cov_11 {est[0][0]:.5f} outside {float(var):.5f} +- {band:.5f}")
    problems += _check_clt_criteria(report, est, trials)
    passed = report.get("passed")
    if exit_code != (0 if passed else 2):
        problems.append(f"exit code {exit_code} with passed={passed}")
    return problems


def _check_clt_criteria(report: dict, est: list, trials: int) -> list[str]:
    problems = []
    crits = {c.get("name"): c for c in report.get("criteria", [])}
    names = {"cov_11", "cov_12", "cov_22", "skewness_1", "skewness_2",
             "excess_kurtosis_1", "excess_kurtosis_2"}
    if set(crits) != names:
        return [f"criteria {sorted(crits)} != {sorted(names)}"]
    for i, j in ((0, 0), (0, 1), (1, 1)):
        c = crits[f"cov_{i + 1}{j + 1}"]
        tgt = float(Fraction(c["target"]))
        if c["estimate"] != est[i][j]:
            problems.append(f"{c['name']} estimate differs from the covariance block")
        if not _close(c["error"], abs(c["estimate"] - tgt) / abs(tgt)):
            problems.append(f"{c['name']} error {c['error']} is not the relative error")
    bands = {"skewness": 3 * math.sqrt(6 / trials), "excess_kurtosis": 3 * math.sqrt(24 / trials)}
    for name, c in crits.items():
        kind = name.rsplit("_", 1)[0]
        tol = CLT_TOLERANCE if kind == "cov" else bands[kind]
        if not _close(c["tolerance"], tol):
            problems.append(f"{name} tolerance {c['tolerance']} != {tol}")
        if c["passed"] != (c["error"] <= tol):
            problems.append(f"{name} verdict {c['passed']} with error {c['error']} and tolerance {tol}")
        if kind != "cov" and not _close(c["error"], abs(c["estimate"])):
            problems.append(f"{name} error is not |estimate|")
    # lambda_1 = k - lambda_2: odd moments flip sign, even ones agree
    if crits["skewness_1"]["estimate"] != -crits["skewness_2"]["estimate"]:
        problems.append("skewness_1 != -skewness_2")
    if crits["excess_kurtosis_1"]["estimate"] != crits["excess_kurtosis_2"]["estimate"]:
        problems.append("excess_kurtosis_1 != excess_kurtosis_2")
    if report.get("passed") != all(c["passed"] for c in crits.values()):
        problems.append("report verdict is not the conjunction of its criteria")
    return problems


def check_serial_pooled(serial: dict, pooled: dict) -> list[str]:
    """A --jobs 1 and a --jobs 2 report agree exactly except in jobs and runtime."""
    problems = []
    for key in ("predictions", "estimates", "criteria", "passed", "notes"):
        if serial.get(key) != pooled.get(key):
            problems.append(f"serial and pooled reports differ in {key}")
    cfg_s = {k: v for k, v in serial.get("config", {}).items() if k != "jobs"}
    cfg_p = {k: v for k, v in pooled.get("config", {}).items() if k != "jobs"}
    if cfg_s != cfg_p:
        problems.append("serial and pooled reports differ in config")
    return problems


# ---------------------------------------------------------------------------
# simulate-* trajectories
# ---------------------------------------------------------------------------


def parse_trajectory(text: str, n: int) -> tuple[list[list[int]], list[str]]:
    """Rows of a trajectory CSV as integer lists, plus format problems."""
    lines = text.split("\n")
    header = (
        ["k"] + [f"lambda_{i}" for i in range(1, n + 1)] + [f"v_{i}" for i in range(1, n + 1)]
        + [f"w_{i}" for i in range(1, n + 1)] + [f"margin_{i}" for i in range(1, n)] + ["sn_last"]
    )
    problems = []
    if lines[:2] != [TRAJECTORY_HEADER, ",".join(header)] or lines[-1] != "":
        problems.append("trajectory header or final newline is wrong")
    rows = []
    for line in lines[2:-1]:
        try:
            row = [int(x) for x in line.split(",")]
        except ValueError:
            problems.append(f"row is not integers: {line!r}")
            continue
        if len(row) != len(header):
            problems.append(f"row has {len(row)} cells, not {len(header)}: {line!r}")
            continue
        rows.append(row)
    return rows, problems


def split_row(row: list[int], n: int) -> dict:
    return {
        "k": row[0],
        "lam": row[1 : n + 1],
        "v": row[n + 1 : 2 * n + 1],
        "w": row[2 * n + 1 : 3 * n + 1],
        "margins": row[3 * n + 1 : 4 * n],
        "sn_last": row[4 * n],
    }


def check_trajectory_rows(
    rows: list[list[int]], n: int, k_max: int, step_weight: int | None, balanced: bool
) -> list[str]:
    """Invariants every row must satisfy, from the definitions of the coupled
    sequences: conservation, corner-sum increments and split margins."""
    problems = []
    if [r[0] for r in rows] != list(range(1, k_max + 1)):
        return [f"steps are not 1..{k_max}"]
    v_prev = [0] * n
    for row in rows:
        s = split_row(row, n)
        k, lam, v, w = s["k"], s["lam"], s["v"], s["w"]
        bad = []
        if any(lam[i] < lam[i + 1] for i in range(n - 1)):
            bad.append("lambda is not non-increasing")
        if sum(lam) != sum(v):
            bad.append("sum(lambda) != sum(v)")
        wx = w + [0]
        if [v[i] - v_prev[i] for i in range(n)] != [wx[i] - wx[i + 1] for i in range(n)]:
            bad.append("v(k) - v(k-1) is not the corner-weight difference")
        if s["margins"] != [v_prev[i] - v[i + 1] + s["sn_last"] for i in range(n - 1)]:
            bad.append("margins are not v_i(k-1) - v_(i+1)(k) + sn_last(k)")
        if step_weight is not None and sum(lam) != step_weight * k:
            bad.append(f"sum(lambda) != {step_weight}k")
        if balanced and len({lam[i] + lam[n - 1 - i] for i in range(n // 2)}) != 1:
            bad.append("lambda is not balanced")
        if bad:
            problems.append(f"row k={k}: " + "; ".join(bad))
            if len(problems) >= 5:
                break
        v_prev = v
    return problems


def check_rederived_steps(
    spec, master_seed: int, trial: int, rows: list[list[int]], steps: list[int]
) -> list[str]:
    """Redraw step k at a higher precision with draw_step_matrix and check
    product_step(lambda(k-1), A_k) = lambda(k), corner_weights(A_k) = w(k)
    and the smallest singular number, through the direct route."""
    from padic_rmt.ensembles import draw_step_matrix
    from padic_rmt.errors import PrecisionExhausted
    from padic_rmt.padic import Signature, smith_singular_numbers
    from padic_rmt.processes import corner_weights, product_step
    from padic_rmt.rng import RngStream

    n = spec.n
    problems = []
    rng = RngStream(master_seed, trial)
    for k in steps:
        s = split_row(rows[k - 1], n)
        lam_prev = Signature(split_row(rows[k - 2], n)["lam"] if k > 1 else [0] * n)
        precision = lam_prev.spread() + 64
        for _ in range(8):
            a = draw_step_matrix(spec, rng, k, precision)
            try:
                lam = list(product_step(lam_prev, a).parts)
                w = list(corner_weights(a))
                sn_last = smith_singular_numbers(a).parts[-1]
                break
            except PrecisionExhausted:
                precision *= 2
        else:
            problems.append(f"trial {trial} step {k}: direct route uncertified")
            continue
        if (lam, w, sn_last) != (s["lam"], s["w"], s["sn_last"]):
            problems.append(
                f"trial {trial} step {k}: direct route gives lambda={lam} w={w} "
                f"sn_last={sn_last}, csv has lambda={s['lam']} w={s['w']} sn_last={s['sn_last']}"
            )
    return problems


def check_escalations(meta: dict, spec, master_seed: int, trials: int, k_max: int, base: int) -> list[str]:
    """Escalation metadata against every step of the run: each step's list
    of escalations must be exactly the doubling chain from the base
    precision through the precisions at which cofactor minors, computed
    here from a redraw at a high precision, leave a row subset uncertified."""
    from padic_rmt.ensembles import draw_step_matrix
    from padic_rmt.rng import RngStream

    problems = []
    chains: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e in meta.get("escalations", []):
        if e["to"] != 2 * e["from"]:
            problems.append(f"escalation {e} does not double")
        chains.setdefault((e["trial"], e["step"]), []).append((e["from"], e["to"]))
    unknown = set(chains) - {(t, k) for t in range(trials) for k in range(1, k_max + 1)}
    if unknown:
        problems.append(f"escalations outside the run: {sorted(unknown)[:3]}")
    p = spec.p.p
    for trial in range(trials):
        rng = RngStream(master_seed, trial)
        for k in range(1, k_max + 1):
            grid = [list(r) for r in draw_step_matrix(spec, rng, k, base * 64).residues]
            expected = []
            precision = base
            while len(expected) <= 6 and uncertified_row_subsets(grid, p, precision):
                expected.append((precision, 2 * precision))
                precision *= 2
            chain = chains.get((trial, k), [])
            if chain != expected:
                problems.append(f"trial {trial} step {k}: escalations {chain}, minors give {expected}")
                if len(problems) >= 5:
                    return problems
    return problems


def check_metadata(meta: dict, seed: int, k_max: int, trials: int, with_interpolation: bool) -> list[str]:
    want = {"schema": "padic-rmt-trajectory v1", "seed": seed, "k_max": k_max,
            "trials": trials, "with_interpolation": with_interpolation}
    return [f"metadata {k}={meta.get(k)!r}, expected {v!r}" for k, v in want.items() if meta.get(k) != v]


# ---------------------------------------------------------------------------
# corner-mc-p3
# ---------------------------------------------------------------------------

_SIG_LINE = re.compile(r"^  \(([-\d, ]+)\): (\S+)$")


def parse_corner_output(text: str) -> dict:
    """The exact table, empirical frequencies, sample count and TV line of
    a corner-dist run."""
    out = {"exact": {}, "empirical": {}, "samples": None, "tv": None}
    section = None
    for line in text.splitlines():
        if line.startswith("corner level"):
            section = "exact"
        elif line.startswith("empirical ("):
            section = "empirical"
            out["samples"] = int(line.split("(")[1].split()[0])
        elif line.startswith("TV distance:"):
            out["tv"] = float(line.split(":")[1])
        else:
            m = _SIG_LINE.match(line)
            if m and section:
                sig = tuple(int(x) for x in m.group(1).split(","))
                value = Fraction(m.group(2)) if section == "exact" else float(m.group(2))
                out[section][sig] = value
    return out


def check_corner_exact(table: dict, top: tuple[int, ...]) -> list[str]:
    """The exact corner law sums to exactly 1 and lives on signatures that
    interlace the top signature."""
    problems = []
    if not table:
        return ["no exact table"]
    if sum(table.values()) != 1:
        problems.append(f"exact table sums to {sum(table.values())}")
    for sig, prob in table.items():
        if len(sig) != len(top) - 1 or not all(top[i] >= sig[i] >= top[i + 1] for i in range(len(sig))):
            problems.append(f"{sig} does not interlace {top}")
        if prob <= 0:
            problems.append(f"{sig} has probability {prob}")
    return problems


def chi_square_pvalue(counts: dict, probs: dict) -> float:
    """Pearson chi-square p-value with cells of expected count below 5 pooled."""
    from scipy.stats import chi2

    total = sum(counts.values())
    cells = sorted((float(pr) * total, counts.get(sig, 0)) for sig, pr in probs.items())
    while len(cells) > 2 and cells[0][0] < 5:
        (e0, o0), (e1, o1) = cells[0], cells[1]
        cells = sorted(cells[2:] + [(e0 + e1, o0 + o1)])
    stat = sum((o - e) ** 2 / e for e, o in cells)
    return float(chi2.sf(stat, len(cells) - 1))


def check_corner_sampled(parsed: dict, samples: int, alpha: float = 1e-6) -> list[str]:
    """The empirical law matches the exact table: counts recovered from the
    printed frequencies, a chi-square test at level alpha, and the printed
    TV distance recomputed exactly."""
    problems = []
    if parsed["samples"] != samples:
        return [f"empirical section reports {parsed['samples']} samples, not {samples}"]
    counts = {sig: round(f * samples) for sig, f in parsed["empirical"].items()}
    for sig, f in parsed["empirical"].items():
        if abs(counts[sig] / samples - f) > 5.1e-6:
            problems.append(f"frequency {f} of {sig} is not a count over {samples}")
    if sum(counts.values()) != samples:
        problems.append(f"counts sum to {sum(counts.values())}, not {samples}")
    exact = parsed["exact"]
    outside = [sig for sig in counts if sig not in exact]
    if outside:
        return problems + [f"samples outside the exact support: {outside}"]
    pval = chi_square_pvalue(counts, exact)
    if pval < alpha:
        problems.append(f"chi-square p-value {pval:.3g} below {alpha}")
    total = sum(counts.values()) or 1
    tv = sum(abs(Fraction(counts.get(s, 0), total) - exact[s]) for s in exact) / 2
    if parsed["tv"] is None or abs(parsed["tv"] - float(tv)) > 5.1e-6:
        problems.append(f"printed TV {parsed['tv']} != {float(tv):.5f}")
    return problems
