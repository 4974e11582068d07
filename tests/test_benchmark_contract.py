"""What the benchmark under benchmark/ relies on in the program: the
attributes its tracer wraps and the command lines its workloads run.  A
rename or a dropped flag fails here, not in every benchmark run."""

import importlib
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
