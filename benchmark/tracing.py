"""Span tracing of the padic-rmt layers, installed from outside the program.

Run as ``python3 benchmark/tracing.py TRACE_DIR -- <padic-rmt arguments>``
with ``src`` on ``PYTHONPATH``.  Before ``padic_rmt.cli.main`` runs, every
module attribute the program looks up at call time on a layer boundary is
replaced by a thin wrapper that records a span (name, parent, start, end)
and counts its calls and raised exceptions.  Nothing under ``src`` changes.

Self time (a span's duration minus the part its child spans cover) is
derived as each span closes, so the per-name aggregates cover every span
however long the run.  The first ``RAW_SPAN_CAP`` spans of each process are
kept raw, for inspection.  Each process writes one JSON file into
TRACE_DIR when it ends; forked pool workers start from an empty trace and
write theirs from a multiprocessing finalizer.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import sys
import time

RAW_SPAN_CAP = 20_000

# (module, attribute, span name); a class method is given as "Class.method".
# The rng draw methods are wrapped whole; elsewhere, the bindings the four
# commands reach.
WRAPPED = [
    # rng: every BLAKE2b draw goes through lane_block; the rest is digit work
    ("padic_rmt.rng", "RngStream.lane_block", "rng.lane_block"),
    ("padic_rmt.rng", "RngStream.digits", "rng.digits"),
    ("padic_rmt.rng", "RngStream.residue", "rng.residue"),
    ("padic_rmt.rng", "RngStream.uniform_int", "rng.uniform_int"),
    ("padic_rmt.rng", "RngStream.unit_residue", "rng.unit_residue"),
    ("padic_rmt.rng", "RngStream.sliced_first_digits", "rng.sliced_first_digits"),
    ("padic_rmt.rng", "RngStream.sliced_residues", "rng.sliced_residues"),
    # ensembles: the engine's dispatch, the public sampler, the Haar rejection
    ("padic_rmt.processes", "step_grid", "ensembles.step_grid"),
    ("padic_rmt.ensembles", "sample_bi_invariant", "ensembles.sample_bi_invariant"),
    ("padic_rmt.ensembles", "_haar_gl_grid", "ensembles.haar_gl"),
    # symplectic: looked up on the module by the ensembles dispatch
    ("padic_rmt.symplectic", "sample_bi_invariant_gsp", "symplectic.sample_bi_invariant_gsp"),
    ("padic_rmt.symplectic", "sample_haar_gsp", "symplectic.sample_haar_gsp"),
    ("padic_rmt.symplectic", "is_gsp", "symplectic.is_gsp"),
    # padic: profile certification and elimination
    ("padic_rmt.processes", "minor_profile_masks", "padic.minor_profile_masks"),
    ("padic_rmt.padic", "smith_singular_numbers", "padic.smith_singular_numbers"),
    # processes: one span per coupled step, the profile loop, interpolation
    ("padic_rmt.processes", "iter_coupled_steps", "processes.step"),
    ("padic_rmt.stats", "iter_coupled_steps", "processes.step"),
    ("padic_rmt.processes", "EnsembleSource.profile", "processes.profile"),
    ("padic_rmt.processes", "_sn_scaled_rows", "processes.interp"),
    ("padic_rmt.cli", "run_coupled_trajectory", "processes.run_coupled_trajectory"),
    # stats: the clt experiment as the cli binds it, and the trial runner
    ("padic_rmt.cli", "run_clt_experiment", "stats.run_clt_experiment"),
    ("padic_rmt.stats", "_run_trials", "stats.run_trials"),
    # hall_littlewood: exact predictions, as stats and cli bind them
    ("padic_rmt.stats", "lln_prediction", "hall_littlewood.lln_prediction"),
    ("padic_rmt.stats", "corner_weight_covariance", "hall_littlewood.corner_weight_covariance"),
    ("padic_rmt.cli", "corner_distribution", "hall_littlewood.corner_distribution"),
    # cli: trajectory CSV writing
    ("padic_rmt.cli", "_write_trajectory_csv", "cli.write_trajectory_csv"),
]

GENERATORS = {"processes.step"}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [span id, name, start ns, child ns]
        self.next_id = 0
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.edges: dict[str, int] = {}  # "parent>child" -> calls
        self.spans: list[tuple] = []  # (id, name, parent id, start ns, end ns)

    def open(self, name: str) -> list:
        frame = [self.next_id, name, time.perf_counter_ns(), 0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, failed: bool) -> None:
        end = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        span_id, name, start, child_ns = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns
        edge = f"{parent[1] if parent else ''}>{name}"
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if failed:
            self.raised[name] = self.raised.get(name, 0) + 1
        if len(self.spans) < RAW_SPAN_CAP:
            self.spans.append((span_id, name, parent[0] if parent else None, start, end))

    def discard(self, frame: list) -> None:
        """Drop an open span; its time stays with the parent."""
        self.stack.pop()

    def summary(self) -> dict:
        return {
            "pid": os.getpid(),
            "calls": self.calls,
            "raised": self.raised,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "edges": self.edges,
            "spans": self.spans,
        }

    def write(self, trace_dir: str) -> None:
        path = os.path.join(trace_dir, f"trace-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


def _wrap_function(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            tracer.close(frame, failed)

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per item: the work of a generator happens inside next().
    The final next(), which only ends the generator, records no span."""

    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            frame = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.discard(frame)
                return
            except BaseException:
                tracer.close(frame, True)
                raise
            tracer.close(frame, False)
            yield item

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Replace every entry of WRAPPED by its traced wrapper."""
    for module_name, attr, name in WRAPPED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrap = _wrap_generator if name in GENERATORS else _wrap_function
        setattr(owner, leaf, wrap(tracer, name, original))


def _start_child_trace(tracer: Tracer, trace_dir: str) -> None:
    """In a forked worker: drop the parent's spans, write ours at exit."""
    tracer.reset()
    multiprocessing.util.Finalize(None, tracer.write, args=(trace_dir,), exitpriority=100)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py TRACE_DIR -- <padic-rmt arguments>", file=sys.stderr)
        return 1
    trace_dir = argv[0]
    tracer = Tracer()
    install(tracer)
    multiprocessing.util.register_after_fork(
        tracer, lambda t: _start_child_trace(t, trace_dir)
    )
    from padic_rmt import cli

    frame = tracer.open("cli.main")
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.close(frame, False)
        tracer.write(trace_dir)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
