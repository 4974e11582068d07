"""End-to-end and per-layer benchmark of the padic-rmt experiments.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real padic-rmt command line from ``src`` (nothing installed) on
one workload, whose round is one command or two run one after the other,
checks its outputs against computations made apart from the engine, and
prints the metrics as the last line of stdout, one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

--trace 0 times one cold set-up of the workload's commands, then whole
rounds until S seconds of rounds have run, and reports the end-to-end
metrics.  --trace 1 runs a round once untraced, once under ``tracing.py``
and, where the commands take --jobs, once with --jobs 1, and reports the
per-layer metrics.  Everything is written under ``.bench_out`` in the
checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# commands still running this long after the start of a run are killed, so
# that a run ends within three minutes, its checks included
RUN_BUDGET_S = 150
ENTRY = "import sys; from padic_rmt.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = {
    "matrices_per_s": "matrices/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rng.hashes_per_matrix": "count",
    "rng.hash_us_per_matrix": "us",
    "rng.digit_us_per_matrix": "us",
    "ensembles.draw_us_per_matrix": "us",
    "ensembles.gl_accept_ratio": "ratio",
    "padic.certify_us_per_matrix": "us",
    "padic.certify_accept_ratio": "ratio",
    "padic.escalations_per_kstep": "count",
    "padic.smith_us_per_matrix": "us",
    "processes.update_us_per_step": "us",
    "processes.interp_us_per_step": "us",
    "symplectic.haar_us_per_draw": "us",
    "symplectic.is_gsp_calls_per_matrix": "count",
    "symplectic.is_gsp_us_per_matrix": "us",
    "stats.pool_speedup": "ratio",
    "stats.aggregate_ms": "ms",
    "hall_littlewood.predict_ms": "ms",
    "cli.csv_us_per_step": "us",
    "cli.csv_bytes_per_step": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Round:
    """One finished command: exit code, wall time, peak RSS, outputs."""

    def __init__(self, code: int, wall_s: float, rss_mb: float, out: Path):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.out = out
        self.stdout = (out / "stdout.txt").read_text()
        self.stderr = (out / "stderr.txt").read_text()


def _kill_group(pgid: int) -> None:
    """SIGKILL a command's process group and wait until every member, pool
    workers orphaned by the command's death included, has gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        while True:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except (ProcessLookupError, PermissionError):
        pass


def run_command(args: list[str], out: Path, deadline: float, trace_dir: Path | None = None) -> Round:
    """Run padic-rmt once, from a fresh interpreter, and wait for it; kill
    it, with every process it started, at the time.monotonic() deadline.

    The wall time runs from process creation to its reaping.  The peak RSS
    comes from wait4, which reports the largest of the process and every
    descendant it reaped (the pool workers).  It also counts the memory of
    this process at the fork, so the benchmark starts every command before
    it imports the library or scipy for its checks."""
    out.mkdir(parents=True, exist_ok=True)
    if trace_dir is None:
        cmd = [sys.executable, "-c", ENTRY, *args]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_dir), "--", *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PADIC_RMT_SEED", None)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        # its own session, so that the command and its pool workers form one
        # process group, which a kill takes down whole
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            _kill_group(proc.pid)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        # a command that was killed, or that left workers behind, leaves
        # nothing running once it is reaped
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Round(proc.returncode, wall, usage.ru_maxrss / 1024, out)


def run_round(wl, ctx, out: Path, jobs: int, deadline: float, trace_dir: Path | None = None,
              setup: bool = False) -> list[Round]:
    """Run each part of the workload once, one after the other, each with
    its outputs (and, traced, its trace files) under its own name."""
    rounds = []
    for part in wl.parts:
        part_out = out / part.name
        args = part.setup_args(ctx, part_out) if setup else part.args(ctx, part_out, jobs)
        part_trace = None
        if trace_dir is not None:
            part_trace = trace_dir / part.name
            part_trace.mkdir(parents=True)
        rounds.append(run_command(args, part_out, deadline, part_trace))
    return rounds


def round_problems(wl, rounds: list[Round], setup: bool = False) -> list[str]:
    """One line for a round in which some command did not complete."""
    bad = []
    for part, r in zip(wl.parts, rounds):
        codes = part.setup_ok_codes if setup else part.ok_codes
        if r.code not in codes:
            tail = r.stderr.strip().splitlines()[-1:] or ["no stderr"]
            bad.append(f"{part.name}: exit code {r.code}: {tail[0]}")
    return [f"{rounds[0].out.parent.name}: " + "; ".join(bad)] if bad else []


def checked(fn, *args) -> list[str]:
    """Problems found by a check; a check that raises (an output missing or
    malformed) is one problem, with its traceback on stderr."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc()
        return [f"{fn.__name__} raised {type(exc).__name__}: {exc}"]


def fingerprints(wl, rounds: list[Round]) -> list:
    return [checked(part.fingerprint, r.out, r.stdout) for part, r in zip(wl.parts, rounds)]


def verify_round(wl, ctx, rounds: list[Round]) -> list[str]:
    return [p for part, r in zip(wl.parts, rounds) for p in checked(part.verify, ctx, r.out, r.stdout, r.code)]


def timed_run(wl, ctx, seconds: float, deadline: float) -> dict:
    problems: list[str] = []
    setup = run_round(wl, ctx, ctx.work_dir / "setup", ctx.jobs, deadline, setup=True)
    setup_s = sum(r.wall_s for r in setup)
    failures = round_problems(wl, setup, setup=True)
    rates, rss = [], []
    first: list[Round] | None = None
    reference = None
    measured = 0.0
    rounds = 0
    while (rounds == 0 or measured < seconds) and time.monotonic() < deadline:
        out = ctx.work_dir / f"round-{rounds}"
        rs = run_round(wl, ctx, out, ctx.jobs, deadline)
        rounds += 1
        wall = sum(r.wall_s for r in rs)
        measured += wall
        bad = round_problems(wl, rs)
        if bad:
            failures += bad
        else:
            rates.append(wl.matrices / wall)
            rss.append(max(r.rss_mb for r in rs))
            fingerprint = fingerprints(wl, rs)
            if reference is None:
                first, reference = rs, fingerprint
                continue
            if fingerprint != reference:
                problems.append(f"round {rounds - 1} output differs from the first round on the same seed")
        shutil.rmtree(out)
    # checks import the library; they run after the last command, so that
    # no command is started from a process grown by them (see run_command)
    if first is not None:
        problems += verify_round(wl, ctx, first)
    print(
        f"{wl.name}: {rounds} rounds, {measured:.2f} s measured, setup {setup_s:.3f} s, "
        f"matrices/s per round {[round(x, 1) for x in rates]}",
        file=sys.stderr,
    )
    metrics = {
        "matrices_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": max(rss) if rss else 0.0,
    }
    return _result(problems, failures, 1 + rounds, metrics, END_TO_END)


def merge_traces(trace_dir: Path) -> dict:
    """Sum the per-process trace files of the traced commands under trace_dir."""
    agg: dict[str, dict] = {key: {} for key in ("calls", "raised", "total_ns", "self_ns", "edges")}
    for path in sorted(trace_dir.rglob("trace-*.json")):
        part = json.loads(path.read_text())
        for key, table in agg.items():
            for name, value in part[key].items():
                table[name] = table.get(name, 0) + value
    return agg


def layer_metrics(wl, agg: dict, walls: dict, csv_bytes: int) -> dict:
    """Per-layer metrics from the merged trace; 0 where the workload does
    not reach the layer."""
    calls, raised, total, own, edges = (agg[k] for k in ("calls", "raised", "total_ns", "self_ns", "edges"))

    def per(x: float, d: float) -> float:
        return x / d if d else 0.0

    def layer_self(prefix: str, skip: tuple = ()) -> int:
        return sum(v for k, v in own.items() if k.startswith(prefix) and k not in skip)

    def hl_total() -> int:
        return sum(v for k, v in total.items() if k.startswith("hall_littlewood."))

    m, s = wl.matrices, wl.steps
    gsp_matrices = calls.get("symplectic.sample_bi_invariant_gsp", 0)
    certify = calls.get("padic.minor_profile_masks", 0)
    failed_certify = raised.get("padic.minor_profile_masks", 0)
    gl_attempts = edges.get("ensembles.haar_gl>rng.sliced_first_digits", 0)
    return {
        "rng.hashes_per_matrix": per(calls.get("rng.lane_block", 0), m),
        "rng.hash_us_per_matrix": per(total.get("rng.lane_block", 0) / 1e3, m),
        "rng.digit_us_per_matrix": per(layer_self("rng.", ("rng.lane_block",)) / 1e3, m),
        "ensembles.draw_us_per_matrix": per(layer_self("ensembles.") / 1e3, m),
        "ensembles.gl_accept_ratio": per(calls.get("ensembles.haar_gl", 0), gl_attempts),
        "padic.certify_us_per_matrix": per(total.get("padic.minor_profile_masks", 0) / 1e3, m),
        "padic.certify_accept_ratio": per(certify - failed_certify, certify),
        "padic.escalations_per_kstep": per(1000 * failed_certify, s),
        "padic.smith_us_per_matrix": per(total.get("padic.smith_singular_numbers", 0) / 1e3, m),
        "processes.update_us_per_step": per((own.get("processes.step", 0) + own.get("processes.profile", 0)) / 1e3, s),
        "processes.interp_us_per_step": per(total.get("processes.interp", 0) / 1e3, s),
        "symplectic.haar_us_per_draw": per(
            total.get("symplectic.sample_haar_gsp", 0) / 1e3, calls.get("symplectic.sample_haar_gsp", 0)
        ),
        # per matrix drawn from GSp, whatever else the round draws
        "symplectic.is_gsp_calls_per_matrix": per(calls.get("symplectic.is_gsp", 0), gsp_matrices),
        "symplectic.is_gsp_us_per_matrix": per(total.get("symplectic.is_gsp", 0) / 1e3, gsp_matrices),
        # commands without --jobs have no pool: serial and pooled are one command
        "stats.pool_speedup": per(walls["serial"], walls["pooled"]) if "serial" in walls else 1.0,
        "stats.aggregate_ms": own.get("stats.run_clt_experiment", 0) / 1e6,
        "hall_littlewood.predict_ms": hl_total() / 1e6,
        "cli.csv_us_per_step": per(total.get("cli.write_trajectory_csv", 0) / 1e3, s),
        "cli.csv_bytes_per_step": per(csv_bytes, s),
        "trace.overhead_ratio": walls["traced"] / walls["pooled"],
    }


def trace_run(wl, ctx, deadline: float) -> dict:
    problems: list[str] = []
    failures: list[str] = []
    attempted = 0
    walls: dict[str, float] = {}
    rounds: dict[str, list[Round]] = {}
    trace_dir = ctx.work_dir / "trace"
    plan = [("pooled", ctx.jobs, None), ("traced", ctx.jobs, trace_dir)]
    if wl.has_jobs:
        plan.append(("serial", 1, None))
    for label, jobs, tdir in plan:
        rs = run_round(wl, ctx, ctx.work_dir / label, jobs, deadline, tdir)
        attempted += 1
        bad = round_problems(wl, rs)
        failures += bad
        if not bad:
            walls[label] = sum(r.wall_s for r in rs)
            rounds[label] = rs
    if len(rounds) < len(plan):
        return _result(problems, failures, attempted, {k: 0.0 for k in PER_LAYER}, PER_LAYER)
    pooled, traced = rounds["pooled"], rounds["traced"]
    problems += verify_round(wl, ctx, pooled)
    if fingerprints(wl, traced) != fingerprints(wl, pooled):
        problems.append("the traced commands wrote other outputs than the untraced ones")
    for i, part in enumerate(wl.parts):
        if "serial" in rounds:
            serial = rounds["serial"][i]
            problems += checked(part.compare_serial, serial.out, pooled[i].out, serial.stdout, pooled[i].stdout)
        problems += checked(part.verify_trace, ctx, traced[i].out, merge_traces(trace_dir / part.name))
    agg = merge_traces(trace_dir)
    if wl.steps and agg["calls"].get("processes.step", 0) != wl.steps:
        problems.append(f"trace holds {agg['calls'].get('processes.step', 0)} steps, not {wl.steps}")
    csv_bytes = sum(f.stat().st_size for f in (ctx.work_dir / "traced").rglob("traj/*.csv"))
    metrics = layer_metrics(wl, agg, walls, csv_bytes)
    print(json.dumps({"trace_calls": dict(sorted(agg["calls"].items())), "trace_raised": agg["raised"]}), file=sys.stderr)
    return _result(problems, failures, attempted, metrics, PER_LAYER)


def _result(problems, failures, attempted, values, units) -> dict:
    for line in failures + problems:
        print(f"CHECK: {line}", file=sys.stderr)
    ok = not problems and attempted > len(failures)
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "padic_rmt" / "cli.py").is_file():
        print(f"error: no padic-rmt sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]
    work_dir = OUT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        ctx = Context(wl.name, args.seed, work_dir, min(2, os.cpu_count() or 1))
        result = trace_run(wl, ctx, deadline) if args.trace else timed_run(wl, ctx, args.seconds, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
