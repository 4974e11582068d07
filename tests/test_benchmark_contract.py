"""What the benchmark under benchmark/ relies on in the program: the
names it imports, the attributes its tracer wraps and the command lines its
workloads run.  A rename or a dropped flag fails here, not in every
benchmark run."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padic_rmt.cli import build_parser

BENCHMARK_DIR = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's tracing and workloads modules (they import their
    siblings by bare name); no bytecode is written next to them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_imported_names_resolve():
    """Every `from padic_rmt... import name` in benchmark/*.py, at module
    level or inside a function, names an attribute or a submodule."""
    imported = []
    for path in sorted(BENCHMARK_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "padic_rmt":
                imported += [(node.module, alias.name) for alias in node.names]
    assert ("padic_rmt.ensembles", "draw_step_matrix") in imported
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            # a submodule, as in `from padic_rmt import cli`
            importlib.import_module(f"{module_name}.{name}")


def test_wrapped_attributes_resolve(bench):
    tracing, _ = bench
    assert tracing.WRAPPED
    for module_name, attr, _span in tracing.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_workload_command_lines_parse(bench, tmp_path):
    _, workloads = bench
    parser = build_parser()
    checked = 0
    for name, workload in workloads.WORKLOADS.items():
        ctx = workloads.Context(name, 1, tmp_path, 2)
        for part in workload.parts:
            out = tmp_path / part.name
            command_lines = [part.setup_args(ctx, out)]
            command_lines += [part.args(ctx, out, jobs) for jobs in (1, 2)]
            for argv in command_lines:
                args = parser.parse_args(argv)
                assert callable(args.func), argv
                checked += 1
    assert checked == 3 * 4


@pytest.fixture
def tracer(bench, monkeypatch):
    """A tracing.Tracer installed in this process; every attribute it wraps
    gets its original back when the test ends."""
    tracing, _ = bench
    for module_name, attr, _span in tracing.WRAPPED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))
    out = tracing.Tracer()
    tracing.install(out)
    return out


def test_traced_clt_counts_every_step_and_draw(tracer, tmp_path):
    """The traced checks of the clt workload: one processes.step span per
    coupled step, and one Haar draw per step whose rejection attempts are
    the sliced_first_digits calls under it."""
    from padic_rmt import cli

    argv = ["clt", "--preset", "fixed-10", "--kmax", "8", "--trials", "3", "--jobs", "1",
            "--seed", "5", "--out", str(tmp_path / "clt.json")]
    assert cli.main(argv) in (0, 2)
    assert tracer.calls.get("processes.step") == 24
    assert tracer.calls.get("ensembles.haar_gl") == 24
    assert tracer.edges.get("ensembles.haar_gl>rng.sliced_first_digits", 0) >= 24


def test_traced_escalations_match_the_metadata(tracer, tmp_path):
    """Every escalation metadata.json lists is one profile certification
    that raised, as the escalating simulate workload checks."""
    from padic_rmt import cli

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"p": 2, "n": 3, "precision_base": 4, "kind": {"CornerOfHaar": 4}}))
    out = tmp_path / "traj"
    argv = ["simulate", "--config", str(spec), "--kmax", "200", "--trials", "2", "--jobs", "1",
            "--seed", "5", "--with-interpolation", "--out", str(out)]
    assert cli.main(argv) == 0
    escalations = json.loads((out / "metadata.json").read_text())["escalations"]
    assert escalations
    assert tracer.raised.get("padic.minor_profile_masks", 0) == len(escalations)


def test_traced_gsp_simulate_checks_the_similitude_once_per_draw(tracer, tmp_path):
    """The traced checks of the gsp4 workload: one processes.step span per
    coupled step, every escalation one raised certification, and one
    is_gsp call per Haar similitude-group draw."""
    from padic_rmt import cli

    out = tmp_path / "traj"
    argv = ["gsp-simulate", "--preset", "gsp4-fixed-1100", "--kmax", "20", "--trials", "3",
            "--jobs", "1", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert tracer.calls.get("processes.step") == 60
    escalations = json.loads((out / "metadata.json").read_text())["escalations"]
    assert tracer.raised.get("padic.minor_profile_masks", 0) == len(escalations)
    draws = tracer.calls.get("symplectic.sample_haar_gsp", 0)
    assert draws >= 60
    assert tracer.calls.get("symplectic.is_gsp") == draws


def test_traced_corner_dist_draws_two_haar_factors_per_sample(tracer, capsys):
    """The traced checks of the corner-mc workload: one public bi-invariant
    draw per Monte-Carlo sample, each with a Haar U and a Haar V whose
    rejection attempts are the sliced_first_digits calls under them, so
    the GL3(F3) acceptance band counts what it means."""
    from padic_rmt import cli

    samples = 40
    argv = ["corner-dist", "--signature", "2,1,0", "--level", "2", "--p", "3",
            "--monte-carlo", str(samples), "--seed", "5", "--jobs", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert tracer.calls.get("ensembles.sample_bi_invariant") == samples
    assert tracer.calls.get("ensembles.haar_gl") == 2 * samples
    assert tracer.edges.get("ensembles.haar_gl>rng.sliced_first_digits", 0) >= 2 * samples


@pytest.mark.usefixtures("bench")
def test_traced_pooled_corner_dist_counts_every_worker_draw(tmp_path):
    """corner-dist --jobs 2 draws its samples in pool workers: the tracer,
    run as the benchmark runs it, writes one file per process, and their
    sum holds every draw the GL3(F3) acceptance check counts."""
    merge_traces = importlib.import_module("run").merge_traces
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    samples = 40
    argv = ["corner-dist", "--signature", "2,1,0", "--level", "2", "--p", "3",
            "--monte-carlo", str(samples), "--seed", "5", "--jobs", "2"]
    src = str(BENCHMARK_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(BENCHMARK_DIR / "tracing.py"), str(trace_dir), "--", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(list(trace_dir.glob("trace-*.json"))) > 1
    agg = merge_traces(trace_dir)
    assert agg["calls"].get("ensembles.sample_bi_invariant") == samples
    assert agg["calls"].get("ensembles.haar_gl") == 2 * samples
    assert agg["edges"].get("ensembles.haar_gl>rng.sliced_first_digits", 0) >= 2 * samples
