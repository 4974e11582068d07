"""The three benchmark workloads: their command lines, sizes and checks.

A round of a workload runs its commands (its parts) one after another,
each a padic-rmt command run from one driving process; two workloads have
one part, ``simulate-gsp4-escalate`` has two.  All rounds of a run use the
same seed, so their output files must be identical, and the deep checks
run on the first round only.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import checks

CLT_TRIALS, CLT_KMAX = 1000, 120
GSP_TRIALS, GSP_KMAX = 2, 1000
CORNER_SAMPLES = 5000
ESC_TRIALS, ESC_KMAX = 2, 3000
ESC_SPEC = {"p": 2, "n": 3, "precision_base": 4, "kind": {"CornerOfHaar": 4}}
SAMPLED_STEPS_PER_TRIAL = 12


class Context:
    """Inputs of one run, all derived from the workload name and --seed."""

    def __init__(self, workload: str, seed: int, work_dir: Path, jobs: int):
        self.seed = seed
        self.cli_seed = random.Random(f"{workload}/{seed}").randrange(1, 2**31)
        self.work_dir = work_dir
        self.jobs = jobs
        self.config = work_dir / "ensemble.json"
        self.config.write_text(json.dumps(ESC_SPEC) + "\n")


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    matrices = 0  # random matrices drawn and reduced per round
    steps = 0  # coupled trial-steps per round (0: no coupled process)
    has_jobs = True
    ok_codes = (0,)  # exit codes of a completed command
    setup_ok_codes = (0,)

    @property
    def parts(self) -> tuple[Workload, ...]:
        """The commands of one round, each a workload with its own outputs."""
        return (self,)

    def args(self, ctx: Context, out: Path, jobs: int) -> list[str]:
        raise NotImplementedError

    def setup_args(self, ctx: Context, out: Path) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, out: Path, stdout: str) -> str:
        raise NotImplementedError

    def verify(self, ctx: Context, out: Path, stdout: str, code: int) -> list[str]:
        raise NotImplementedError

    def verify_trace(self, ctx: Context, out: Path, agg: dict) -> list[str]:
        return []

    def compare_serial(self, serial: Path, pooled: Path, serial_stdout: str, pooled_stdout: str) -> list[str]:
        """A --jobs 1 run writes what the pooled run wrote."""
        if self.fingerprint(serial, serial_stdout) != self.fingerprint(pooled, pooled_stdout):
            return ["--jobs 1 and pooled runs wrote different outputs"]
        return []


def _gl_accept(agg: dict, n: int, p: int) -> list[str]:
    attempts = agg["edges"].get("ensembles.haar_gl>rng.sliced_first_digits", 0)
    return checks.check_gl_accept(agg["calls"].get("ensembles.haar_gl", 0), attempts, n, p)


class CltFixed10(Workload):
    name = "clt-fixed-10"
    why = "p=2 2x2 hot path (sliced hashing, GL2(F2) rejection, two-row profile, exact update) plus the process pool"
    matrices = steps = CLT_TRIALS * CLT_KMAX
    # a statistical FAIL of the report's own criteria exits 2; the report
    # is still written and checked
    ok_codes = setup_ok_codes = (0, 2)

    def args(self, ctx, out, jobs):
        return ["clt", "--preset", "fixed-10", "--kmax", str(CLT_KMAX), "--trials", str(CLT_TRIALS),
                "--jobs", str(jobs), "--seed", str(ctx.cli_seed), "--out", str(out / "clt.json")]

    def setup_args(self, ctx, out):
        return ["clt", "--preset", "fixed-10", "--kmax", "4", "--trials", "2",
                "--jobs", str(ctx.jobs), "--seed", str(ctx.cli_seed), "--out", str(out / "clt.json")]

    def report(self, out: Path) -> dict:
        return json.loads((out / "clt.json").read_text())

    def fingerprint(self, out, stdout):
        rep = self.report(out)
        rep.pop("runtime_seconds", None)
        return _digest(json.dumps(rep, sort_keys=True).encode(), stdout.encode())

    def verify(self, ctx, out, stdout, code):
        rep = self.report(out)
        problems = checks.check_clt_report(rep, code, CLT_TRIALS, CLT_KMAX)
        if rep["config"].get("master_seed") != ctx.cli_seed:
            problems.append("report carries another master seed")
        return problems

    def compare_serial(self, serial, pooled, serial_stdout, pooled_stdout):
        return checks.check_serial_pooled(self.report(serial), self.report(pooled))

    def verify_trace(self, ctx, out, agg):
        return _gl_accept(agg, 2, 2)


class SimulateWorkload(Workload):
    trials = k_max = 0
    n = 0
    symplectic = False
    with_interpolation = False
    step_weight: int | None = None
    command = "simulate"

    def source_args(self, ctx) -> list[str]:
        raise NotImplementedError

    def spec(self, ctx):
        raise NotImplementedError

    def _common(self, ctx, out, jobs, k_max):
        args = [self.command, *self.source_args(ctx), "--kmax", str(k_max), "--trials", str(self.trials),
                "--jobs", str(jobs), "--seed", str(ctx.cli_seed), "--out", str(out / "traj")]
        return args + (["--with-interpolation"] if self.with_interpolation else [])

    def args(self, ctx, out, jobs):
        return self._common(ctx, out, jobs, self.k_max)

    def setup_args(self, ctx, out):
        return self._common(ctx, out, ctx.jobs, 0)

    def metadata(self, out: Path) -> dict:
        return json.loads((out / "traj" / "metadata.json").read_text())

    def csv_files(self, out: Path) -> list[Path]:
        return [out / "traj" / f"trajectory_{t:04d}.csv" for t in range(self.trials)]

    def fingerprint(self, out, stdout):
        meta = self.metadata(out)
        meta.pop("timestamp", None)
        parts = [f.read_bytes() for f in self.csv_files(out)]
        return _digest(json.dumps(meta, sort_keys=True).encode(), *parts)

    def sampled_steps(self, ctx, trial: int) -> list[int]:
        picks = random.Random(f"{ctx.seed}/{trial}").sample(range(2, self.k_max), SAMPLED_STEPS_PER_TRIAL - 2)
        return sorted({1, self.k_max, *picks})

    def escalated(self, out: Path) -> set[tuple[int, int]]:
        return {(e["trial"], e["step"]) for e in self.metadata(out).get("escalations", [])}

    def verify(self, ctx, out, stdout, code):
        meta = self.metadata(out)
        problems = checks.check_metadata(meta, ctx.cli_seed, self.k_max, self.trials, self.with_interpolation)
        spec = self.spec(ctx)
        escalated = self.escalated(out)
        for trial, path in enumerate(self.csv_files(out)):
            rows, bad = checks.parse_trajectory(path.read_text(), self.n)
            problems += bad
            problems += checks.check_trajectory_rows(rows, self.n, self.k_max, self.step_weight, self.symplectic)
            if problems:
                break
            steps = sorted(set(self.sampled_steps(ctx, trial)) | {k for t, k in escalated if t == trial})
            problems += checks.check_rederived_steps(spec, ctx.cli_seed, trial, rows, steps)
        return problems

    def verify_trace(self, ctx, out, agg):
        raised = agg["raised"].get("padic.minor_profile_masks", 0)
        logged = len(self.metadata(out).get("escalations", []))
        if raised != logged:
            return [f"trace saw {raised} failed certifications, metadata lists {logged} escalations"]
        return []


class SimulateGsp4(SimulateWorkload):
    name = "simulate-gsp4"
    why = "symplectic sampler, is_gsp, generic 4-row cofactor profile and CSV writing; no 2x2 fast path, no pool"
    trials, k_max, n = GSP_TRIALS, GSP_KMAX, 4
    matrices = steps = GSP_TRIALS * GSP_KMAX
    symplectic = True
    step_weight = 2  # signature (1, 1, 0, 0)
    command = "gsp-simulate"

    def source_args(self, ctx):
        return ["--preset", "gsp4-fixed-1100"]

    def spec(self, ctx):
        from padic_rmt.presets import build_preset

        return build_preset("gsp4-fixed-1100")


class SimulateCorner3Escalate(SimulateWorkload):
    name = "simulate-corner3-escalate"
    why = "3x3 corners of GL4 Haar at base precision 4: certification fails and escalates, interpolation levels run"
    trials, k_max, n = ESC_TRIALS, ESC_KMAX, 3
    matrices = steps = ESC_TRIALS * ESC_KMAX
    with_interpolation = True

    def source_args(self, ctx):
        return ["--config", str(ctx.config)]

    def spec(self, ctx):
        from padic_rmt.ensembles import EnsembleSpec

        return EnsembleSpec.from_json(ESC_SPEC)

    def verify(self, ctx, out, stdout, code):
        problems = super().verify(ctx, out, stdout, code)
        if problems:
            return problems
        meta = self.metadata(out)
        if not meta.get("escalations"):
            problems.append("no escalation: the workload no longer measures the escalation path")
        problems += checks.check_escalations(
            meta, self.spec(ctx), ctx.cli_seed, self.trials, self.k_max, ESC_SPEC["precision_base"]
        )
        return problems

    def verify_trace(self, ctx, out, agg):
        return super().verify_trace(ctx, out, agg) + _gl_accept(agg, 4, 2)


class CornerMcP3(Workload):
    name = "corner-mc-p3"
    why = "odd-p digit rejection, public samplers, PadicMatrix validation, elimination and the exact corner table"
    matrices = CORNER_SAMPLES
    has_jobs = False
    signature = (2, 1, 0)

    def _args(self, ctx, samples):
        return ["corner-dist", "--signature", ",".join(map(str, self.signature)), "--level", "2",
                "--p", "3", "--monte-carlo", str(samples), "--seed", str(ctx.cli_seed)]

    def args(self, ctx, out, jobs):
        return self._args(ctx, CORNER_SAMPLES)

    def setup_args(self, ctx, out):
        return self._args(ctx, 0)

    def fingerprint(self, out, stdout):
        return _digest(stdout.encode())

    def verify(self, ctx, out, stdout, code):
        parsed = checks.parse_corner_output(stdout)
        return checks.check_corner_exact(parsed["exact"], self.signature) + checks.check_corner_sampled(
            parsed, CORNER_SAMPLES
        )

    def verify_trace(self, ctx, out, agg):
        return _gl_accept(agg, 3, 3)


class SimulateGsp4Escalate(Workload):
    """The two trajectory commands, one after the other in each round.

    They share the trajectory writer and the --jobs that both ignore, and
    one workload with twice the run length is steadier than two."""

    name = "simulate-gsp4-escalate"
    why = "gsp-simulate gsp4 (symplectic sampler, is_gsp, 4-row profile) then simulate with escalation and interpolation"

    def __init__(self, *parts: Workload):
        self._parts = parts
        self.matrices = sum(p.matrices for p in parts)
        self.steps = sum(p.steps for p in parts)

    @property
    def parts(self):
        return self._parts


PARTS = {w.name: w for w in (CltFixed10(), SimulateGsp4(), CornerMcP3(), SimulateCorner3Escalate())}
WORKLOADS = {
    w.name: w
    for w in (
        PARTS["clt-fixed-10"],
        PARTS["corner-mc-p3"],
        SimulateGsp4Escalate(PARTS["simulate-gsp4"], PARTS["simulate-corner3-escalate"]),
    )
}
