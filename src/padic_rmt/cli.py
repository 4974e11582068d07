"""Command-line front end.

A command returns its verdict (0, or 2 when a criterion or selftest check
failed) and raises on any other failure.  main alone turns the exception
into an exit code, printing one "error: <message>" line on stderr: 1 for
bad input (BadConfiguration, ValueError, KeyError), 2 for any other
library error (the precision escalation cap, say), 3 for I/O (OSError).
Identical command line and seed produce byte-identical trajectory CSVs
and corner-dist output.  Two values are run-dependent: the timestamp in
the simulate metadata JSON, and `runtime_seconds` in an experiment report
written with --out; everything else in both files, the report's `counters`
block included, is reproducible.

Every pooled command (simulate, gsp-simulate, lln, clt, bounded-diff and
corner-dist --monte-carlo) runs on one pool shape, stats.map_blocks: its
trials or samples are cut into one contiguous block per worker, never more
workers than items, and its outputs are the same for any --jobs.
metadata.json is written only when every trial succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

from .ensembles import DEFAULT_PRECISION_BASE, EnsembleSpec
from .errors import BadConfiguration, PadicRmtError
from .hall_littlewood import (
    corner_distribution,
    hl_p_eval,
    kth_corner_distribution,
)
from .padic import Prime, Signature, _certified_precision
from .presets import build_preset, preset_names
from .processes import as_source, run_coupled_trajectory
from .rng import RngStream
from .selftest import run_selftest
from .stats import (
    ExperimentConfig,
    map_blocks,
    run_bounded_difference_experiment,
    run_clt_experiment,
    run_lln_experiment,
    tv_distance,
)
from .symplectic import is_balanced

TRAJECTORY_SCHEMA = "padic-rmt-trajectory v1"


def _parse_signature(text: str) -> Signature:
    try:
        return Signature(tuple(int(x) for x in text.replace(" ", "").split(",")))
    except ValueError:
        raise ValueError(f"not a signature: {text!r}") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PADIC_RMT_SEED")
    try:
        return int(env) if env else 2024
    except ValueError:
        raise ValueError(f"PADIC_RMT_SEED is not an integer: {env!r}") from None


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadConfiguration(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # not JSON, or not text at all
        raise BadConfiguration(f"config is not valid JSON: {exc}") from exc


def _source_from_args(args):
    if args.config:
        return EnsembleSpec.from_json(_load_json(args.config))
    if args.preset:
        return build_preset(args.preset)
    raise BadConfiguration("give --preset or --config (see --help)")


# ---------------------------------------------------------------------------
# simulate / gsp-simulate
# ---------------------------------------------------------------------------


def _write_trajectory_csv(path: Path, traj, check_balanced: bool) -> None:
    n = traj.n
    header = (
        ["k"]
        + [f"lambda_{i}" for i in range(1, n + 1)]
        + [f"v_{i}" for i in range(1, n + 1)]
        + [f"w_{i}" for i in range(1, n + 1)]
        + [f"margin_{i}" for i in range(1, n)]
        + ["sn_last"]
    )
    lines = [f"# schema {TRAJECTORY_SCHEMA}", ",".join(header)]
    for step in traj.steps:
        if check_balanced and not is_balanced(step.lam):
            raise PadicRmtError(
                f"step {step.k}: product signature {step.lam.parts} not balanced"
            )
        row = (
            [step.k]
            + list(step.lam.parts)
            + list(step.v)
            + list(step.corner_weights)
            + list(step.split_margins)
            + [step.sn_last]
        )
        lines.append(",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _simulate_block(
    source, k_max, seed, with_interpolation, out, check_balanced, block: range
) -> list[dict]:
    """One block of simulate trials, in this process or a pool worker: write
    their CSVs and return their escalations for metadata.json, in order."""
    escalations = []
    for trial in block:
        traj = run_coupled_trajectory(
            source, k_max, RngStream(seed, trial), with_interpolation=with_interpolation
        )
        _write_trajectory_csv(out / f"trajectory_{trial:04d}.csv", traj, check_balanced)
        escalations += [{"trial": trial, "step": k, "from": a, "to": b} for k, a, b in traj.escalations]
    return escalations


def cmd_simulate(args, symplectic: bool = False) -> int:
    if args.kmax < 0 or args.trials < 1 or args.jobs < 1:
        raise BadConfiguration("need --kmax >= 0, --trials >= 1 and --jobs >= 1")
    source_spec = _source_from_args(args)
    # the CSV balance check follows the law; gsp-simulate runs only laws it can check
    check_balanced = isinstance(source_spec, EnsembleSpec) and source_spec.is_symplectic
    if symplectic and not check_balanced:
        raise BadConfiguration("gsp-simulate needs a symplectic law (GSpHaar or GSpFixedSN)")
    seed = _seed_from(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source = as_source(source_spec)
    with_interpolation = bool(args.with_interpolation)
    run_block = partial(
        _simulate_block, source, args.kmax, seed, with_interpolation, out, check_balanced
    )
    # header-only files (--kmax 0) are not worth starting workers for
    jobs = args.jobs if args.kmax > 0 else 1
    try:
        per_block = map_blocks(run_block, args.trials, jobs)
    except OSError as exc:
        raise OSError(f"cannot write trajectory: {exc}") from exc
    meta = {
        "schema": TRAJECTORY_SCHEMA,
        "seed": seed,
        "k_max": args.kmax,
        "trials": args.trials,
        "with_interpolation": with_interpolation,
        "source": source.describe(),
        "escalations": [e for escalations in per_block for e in escalations],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / "metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {args.trials} trajectory file(s) to {out}")
    return 0


# ---------------------------------------------------------------------------
# corner-dist / hl-eval
# ---------------------------------------------------------------------------


def _corner_block(sig, level, p, precision, seed, block: range) -> Counter:
    """The corner singular numbers of Monte-Carlo samples `block`, counted,
    in this process or a pool worker.  The samplers are looked up at call
    time, so a wrapper installed on their modules sees every draw."""
    from .ensembles import sample_bi_invariant
    from .padic import corner, smith_singular_numbers

    rng = RngStream(seed, 0)
    n = len(sig)
    return Counter(
        smith_singular_numbers(corner(sample_bi_invariant(sig, n, n, p, precision, rng, ("mc", i)), level))
        for i in block
    )


def cmd_corner_dist(args) -> int:
    sig = _parse_signature(args.signature)
    Prime(args.p)
    if args.monte_carlo < 0:
        raise BadConfiguration("--monte-carlo must be >= 0")
    if args.jobs < 1:
        raise BadConfiguration("--jobs must be >= 1")
    seed = _seed_from(args) if args.monte_carlo else None
    t = Fraction(1, args.p)
    level = args.level
    if level == 2:
        dist = corner_distribution(sig, t)
    else:
        dist = kth_corner_distribution(sig, level, t)
    print(f"corner level {level} of a bi-invariant matrix with SN {sig.parts}, p={args.p}")
    for entry in dist.to_json_entries():
        print(f"  {tuple(entry['signature'])}: {entry['prob']}")
    if args.monte_carlo:
        # the digits every corner's singular numbers can read: the same
        # draws as at the sampler's default precision, reduced
        precision = _certified_precision(sig.parts, DEFAULT_PRECISION_BASE)
        samples = args.monte_carlo
        # a sample is a function of its path alone, and adding the counts in
        # block order gives the dict a serial run fills, key order included
        run_block = partial(_corner_block, sig, level, args.p, precision, seed)
        counts = Counter()
        for part in map_blocks(run_block, samples, args.jobs):
            counts.update(part)
        tv = tv_distance(counts, dist)
        print(f"empirical ({samples} samples):")
        for sn in sorted(counts, key=lambda s: s.parts, reverse=True):
            print(f"  {sn.parts}: {counts[sn] / samples:.5f}")
        print(f"TV distance: {float(tv):.5f}")
    return 0


def cmd_hl_eval(args) -> int:
    sig = _parse_signature(args.signature)
    points = [_parse_fraction(x) for x in args.points.replace(" ", "").split(",")]
    print(hl_p_eval(sig, points, _parse_fraction(args.t)))
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _experiment_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(_load_json(args.config))
    elif args.preset:
        cfg = ExperimentConfig(
            preset=args.preset, master_seed=_seed_from(args), jobs=os.cpu_count() or 1
        )
    else:
        raise BadConfiguration("give --preset or --config")
    # flags given on the command line override the file's values
    given = {"k_max": args.kmax, "trials": args.trials, "jobs": args.jobs, "master_seed": args.seed}
    return replace(cfg, **{key: val for key, val in given.items() if val is not None})


def _run_experiment(args, runner, kind: str) -> int:
    report = runner(_experiment_config(args))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    print(f"{kind}: {'PASS' if report.passed else 'FAIL'}")
    for c in report.criteria:
        mark = "ok" if c["passed"] else "FAIL"
        print(f"  [{mark}] {c['name']}: estimate {c['estimate']}, target {c.get('target')}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-rmt",
        description=(
            "Exact singular-number computations and Monte-Carlo experiments "
            "for products of random matrices over the p-adic numbers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, trials_default, kmax_default, jobs_default):
        sp.add_argument("--preset", choices=preset_names(), help="named step law")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="master seed (or PADIC_RMT_SEED)")
        sp.add_argument("--kmax", type=int, default=kmax_default)
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--jobs", type=int, default=jobs_default)

    sp = sub.add_parser("simulate", help="write coupled-trajectory CSV files")
    add_common(sp, 1, 200, os.cpu_count() or 1)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--with-interpolation", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("gsp-simulate", help="simulate a symplectic-similitude ensemble")
    add_common(sp, 1, 200, os.cpu_count() or 1)
    sp.add_argument("--out", required=True)
    sp.add_argument("--with-interpolation", action="store_true")
    sp.set_defaults(func=lambda a: cmd_simulate(a, symplectic=True))

    sp = sub.add_parser("corner-dist", help="exact corner-signature law")
    sp.add_argument("--signature", required=True, help='e.g. "1,0,0"')
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--level", type=int, default=2, help="corner index (2 = one row shorter)")
    sp.add_argument("--monte-carlo", type=int, default=0, metavar="N")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sp.set_defaults(func=cmd_corner_dist)

    sp = sub.add_parser("hl-eval", help="evaluate a symmetric-function value exactly")
    sp.add_argument("--signature", required=True)
    sp.add_argument("--points", required=True, help='e.g. "1,1/2,1/4"')
    sp.add_argument("--t", required=True, help='e.g. "1/2"')
    sp.set_defaults(func=cmd_hl_eval)

    for name, runner in (
        ("lln", run_lln_experiment),
        ("clt", run_clt_experiment),
        ("bounded-diff", run_bounded_difference_experiment),
    ):
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        # unset flags are None: the config file's values, or ExperimentConfig's defaults
        add_common(sp, None, None, None)
        sp.add_argument("--out", help="write the report JSON here")
        sp.set_defaults(func=lambda a, r=runner, n=name: _run_experiment(a, r, n))

    sp = sub.add_parser("selftest", help="run the exact identity checklist")
    sp.add_argument("--filter", default="", help="only checks whose name contains this")
    sp.set_defaults(func=lambda a: run_selftest(a.filter))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract says 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PadicRmtError, ValueError, KeyError, OSError) as exc:
        # the one place a failure becomes an exit code (a KeyError's str()
        # is the repr of its message)
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        if isinstance(exc, OSError):
            return 3
        return 1 if isinstance(exc, (BadConfiguration, ValueError, KeyError)) else 2


if __name__ == "__main__":
    sys.exit(main())
