"""Self-check of the benchmark's output checks and trace counts.

    python3 benchmark/selfcheck.py

Runs the command of every workload part once for real output, then feeds
each check a corrupted copy of that output and requires the check to
refuse it with the expected complaint; the uncorrupted output must pass.
Then runs every part traced twice with one seed and requires identical counts (calls,
raised exceptions and parent-child edges of every span).  Finally checks
that BENCHMARK.json names the metrics run.py prints.  Exits 0 when all
of this holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from workloads import PARTS, WORKLOADS, Context, SimulateWorkload  # noqa: E402

SEED = 1


def edit_csv_cell(out: Path, trial: int, k: int, col: int, delta: int) -> None:
    path = out / "traj" / f"trajectory_{trial:04d}.csv"
    lines = path.read_text().split("\n")
    cells = lines[k + 1].split(",")
    cells[col] = str(int(cells[col]) + delta)
    lines[k + 1] = ",".join(cells)
    path.write_text("\n".join(lines))


def edit_json(path: Path, fn) -> None:
    obj = json.loads(path.read_text())
    fn(obj)
    path.write_text(json.dumps(obj))


def _set(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value


# --- corruptions: (label, function(out, stdout, code, ctx) -> (stdout, code), expected complaint)


def clt_mutations():
    rep = lambda out: out / "clt.json"  # noqa: E731

    def cov11(out, stdout, code, ctx):
        edit_json(rep(out), lambda r: _set(r, ["estimates", "covariance", 0, 0], r["estimates"]["covariance"][0][0] + 1e-6))
        return stdout, code

    def mean(out, stdout, code, ctx):
        edit_json(rep(out), lambda r: _set(r, ["predictions", "mean", 0], "3/4"))
        return stdout, code

    def cov_target(out, stdout, code, ctx):
        edit_json(rep(out), lambda r: _set(r, ["predictions", "covariance", 1, 1], "1/4"))
        return stdout, code

    def band(out, stdout, code, ctx):
        def shift(r):
            c = 2 * r["estimates"]["covariance"][0][0]
            r["estimates"]["covariance"] = [[c, -c], [-c, c]]
        edit_json(rep(out), shift)
        return stdout, code

    def verdict(out, stdout, code, ctx):
        edit_json(rep(out), lambda r: _set(r, ["criteria", 0, "passed"], not r["criteria"][0]["passed"]))
        return stdout, code

    def exit_code(out, stdout, code, ctx):
        return stdout, 2 if code == 0 else 0

    return [
        ("cov_11 perturbed by 1e-6", cov11, "cov_11 = -cov_12 = cov_22"),
        ("predicted mean changed", mean, "predicted mean"),
        ("predicted covariance changed", cov_target, "predicted covariance"),
        ("covariance doubled symmetrically", band, "outside"),
        ("one criterion verdict flipped", verdict, "verdict"),
        ("exit code flipped", exit_code, "exit code"),
    ]


def simulate_mutations(wl):
    n = wl.n
    lam1, w2, margin1 = 1, 2 * n + 2, 3 * n + 1

    def mid(ctx):
        steps = wl.sampled_steps(ctx, 0)
        return steps[len(steps) // 2]

    def cell(col, delta):
        def fn(out, stdout, code, ctx):
            edit_csv_cell(out, 0, mid(ctx), col, delta)
            return stdout, code
        return fn

    def balanced_shift(out, stdout, code, ctx):
        # keeps every row invariant: only the direct route can see it
        k = mid(ctx)
        edit_csv_cell(out, 0, k, lam1, 1)
        edit_csv_cell(out, 0, k, lam1 + n - 1, -1)
        return stdout, code

    def seed(out, stdout, code, ctx):
        edit_json(out / "traj" / "metadata.json", lambda m: _set(m, ["seed"], m["seed"] + 1))
        return stdout, code

    return [
        ("lambda_1 moved by 1", cell(lam1, 1), "sum(lambda) != sum(v)"),
        ("w_2 moved by 1", cell(w2, 1), "corner-weight difference"),
        ("margin_1 moved by 1", cell(margin1, 1), "margins"),
        ("lambda_1 up and lambda_n down by 1, row invariants kept", balanced_shift, "direct route gives"),
        ("metadata seed changed", seed, "metadata seed"),
    ]


def escalate_mutations(wl):
    meta = lambda out: out / "traj" / "metadata.json"  # noqa: E731

    def drop(out, stdout, code, ctx):
        edit_json(meta(out), lambda m: m["escalations"].pop(len(m["escalations"]) // 2))
        return stdout, code

    def triple(out, stdout, code, ctx):
        edit_json(meta(out), lambda m: _set(m, ["escalations", 0, "to"], 3 * m["escalations"][0]["from"]))
        return stdout, code

    def invent(out, stdout, code, ctx):
        escalated = wl.escalated(out)
        k = next(k for k in wl.sampled_steps(ctx, 0) if (0, k) not in escalated)
        edit_json(meta(out), lambda m: m["escalations"].append({"trial": 0, "step": k, "from": 4, "to": 8}))
        return stdout, code

    def escalated_row(out, stdout, code, ctx):
        # an escalated step that no sampled step covers: only its own check sees it
        sampled = set(wl.sampled_steps(ctx, 0))
        k = next(k for t, k in sorted(wl.escalated(out)) if t == 0 and k not in sampled and k + 1 not in sampled)
        edit_csv_cell(out, 0, k, 1, 1)
        edit_csv_cell(out, 0, k, wl.n, -1)
        return stdout, code

    return simulate_mutations(wl)[:1] + [
        ("one escalation dropped", drop, "minors give"),
        ("one escalation to 3 x from", triple, "does not double"),
        ("an escalation invented on a certified step", invent, "minors give"),
        ("lambda of an escalated step moved, row invariants kept", escalated_row, "direct route gives"),
    ]


def corner_mutations():
    def replace(old, new):
        def fn(out, stdout, code, ctx):
            assert old in stdout, old
            return stdout.replace(old, new, 1), code
        return fn

    def shift_mass(out, stdout, code, ctx):
        parsed = checks.parse_corner_output(stdout)
        n = parsed["samples"]
        (a, fa), (b, fb) = sorted(parsed["empirical"].items(), key=lambda kv: -kv[1])[:2]
        move = round(0.05 * n) / n
        lines = []
        for line in stdout.splitlines():
            if line == f"  {a}: {fa:.5f}":
                line = f"  {a}: {fa - move:.5f}"
            elif line == f"  {b}: {fb:.5f}":
                line = f"  {b}: {fb + move:.5f}"
            lines.append(line)
        return "\n".join(lines) + "\n", code

    def tv(out, stdout, code, ctx):
        parsed = checks.parse_corner_output(stdout)
        return stdout.replace(f"TV distance: {parsed['tv']:.5f}", f"TV distance: {parsed['tv'] + 0.01:.5f}"), code

    return [
        ("one exact probability changed", replace("(1, 0): 9/13", "(1, 0): 8/13"), "sums to"),
        ("a non-interlacing signature in the table", replace("(2, 1): 1/39", "(3, 1): 1/39"), "does not interlace"),
        ("5% of the samples moved between two cells", shift_mass, "chi-square"),
        ("printed TV distance changed", tv, "printed TV"),
    ]


MUTATIONS = {
    "clt-fixed-10": clt_mutations(),
    "simulate-gsp4": simulate_mutations(PARTS["simulate-gsp4"]),
    "corner-mc-p3": corner_mutations(),
    "simulate-corner3-escalate": escalate_mutations(PARTS["simulate-corner3-escalate"]),
}


def check_mutations(wl, ctx, real: run.Round) -> list[str]:
    """The real output passes and every corruption of it is refused."""
    failures = []
    clean = wl.verify(ctx, real.out, real.stdout, real.code)
    print(f"  [{'ok' if not clean else 'FAIL'}] {wl.name}: real output passes {clean[:2]}")
    if clean:
        failures.append(f"{wl.name}: real output refused: {clean[:2]}")
    for label, mutate, expect in MUTATIONS[wl.name]:
        out = ctx.work_dir / "mutated"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(real.out, out)
        stdout, code = mutate(out, real.stdout, real.code, ctx)
        problems = wl.verify(ctx, out, stdout, code)
        refused = any(expect in p for p in problems)
        print(f"  [{'ok' if refused else 'FAIL'}] {wl.name}: {label} -> {problems[:1]}")
        if not refused:
            failures.append(f"{wl.name}: '{label}' not refused with '{expect}': {problems[:2]}")
        shutil.rmtree(out)
    return failures


def check_trace_mutations(wl, ctx, agg: dict, out: Path) -> list[str]:
    """The trace checks refuse a wrong acceptance count and a wrong escalation count."""
    failures = []
    cases = []
    if agg["calls"].get("ensembles.haar_gl"):
        bad = copy.deepcopy(agg)
        bad["calls"]["ensembles.haar_gl"] = round(bad["calls"]["ensembles.haar_gl"] * 1.1)
        cases.append(("GL acceptance count raised by 10%", bad, "acceptance"))
    if isinstance(wl, SimulateWorkload):
        bad = copy.deepcopy(agg)
        bad["raised"]["padic.minor_profile_masks"] = bad["raised"].get("padic.minor_profile_masks", 0) + 1
        cases.append(("one extra failed certification in the trace", bad, "failed certifications"))
    for label, bad, expect in cases:
        problems = wl.verify_trace(ctx, out, bad)
        refused = any(expect in p for p in problems)
        print(f"  [{'ok' if refused else 'FAIL'}] {wl.name}: {label} -> {problems[:1]}")
        if not refused:
            failures.append(f"{wl.name}: '{label}' not refused")
    clean = wl.verify_trace(ctx, out, agg)
    if clean:
        failures.append(f"{wl.name}: real trace refused: {clean}")
    return failures


def traced_counts(wl, ctx, label: str) -> tuple[dict, run.Round]:
    trace_dir = ctx.work_dir / f"trace-{label}"
    trace_dir.mkdir()
    out = ctx.work_dir / label
    r = run.run_command(wl.args(ctx, out, ctx.jobs), out, time.monotonic() + run.RUN_BUDGET_S, trace_dir)
    if r.code not in wl.ok_codes:
        raise SystemExit(f"{wl.name}: traced command failed: {r.stderr[-500:]}")
    agg = run.merge_traces(trace_dir)
    return {k: agg[k] for k in ("calls", "raised", "edges")}, r


def check_benchmark_json() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != table:
            failures.append(f"BENCHMARK.json {key} differs from run.py: {listed} vs {table}")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    return failures


def main() -> int:
    failures = check_benchmark_json()
    work = run.OUT / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for wl in PARTS.values():
            wdir = work / wl.name
            wdir.mkdir()
            ctx = Context(wl.name, SEED, wdir, min(2, os.cpu_count() or 1))
            # every command first: checks import the library (see run.run_command)
            real = run.run_command(wl.args(ctx, wdir / "real", ctx.jobs), wdir / "real", time.monotonic() + run.RUN_BUDGET_S)
            first, traced = traced_counts(wl, ctx, "traced-1")
            second, _ = traced_counts(wl, ctx, "traced-2")
            if real.code not in wl.ok_codes:
                failures.append(f"{wl.name}: command failed: {real.stderr[-500:]}")
                continue
            failures += check_mutations(wl, ctx, real)
            agg = run.merge_traces(wdir / "trace-traced-1")
            failures += check_trace_mutations(wl, ctx, agg, traced.out)
            same = first == second
            print(f"  [{'ok' if same else 'FAIL'}] {wl.name}: two traced runs give identical counts")
            if not same:
                diff = {k: (first["calls"].get(k), second["calls"].get(k)) for k in set(first["calls"]) | set(second["calls"])
                        if first["calls"].get(k) != second["calls"].get(k)}
                failures.append(f"{wl.name}: traced counts differ between runs: {diff}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.OUT.rmdir()
        except OSError:
            pass
    for line in failures:
        print(f"FAIL: {line}")
    print("selfcheck:", "PASS" if not failures else f"FAIL ({len(failures)})")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
