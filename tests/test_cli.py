"""Command-line behavior: exit codes, file outputs, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padic_rmt
from padic_rmt import processes, selftest
from padic_rmt.cli import main
from padic_rmt.padic import MAX_PROFILE_ROWS
from padic_rmt.stats import map_trials

ESCALATING_SPEC = {"p": 2, "n": 3, "precision_base": 4, "kind": {"CornerOfHaar": 4}}
SRC = str(Path(padic_rmt.__file__).resolve().parents[1])


def run(argv):
    return main(argv)


SIZES = {"k_max": 8, "trials": 2, "master_seed": 1, "jobs": 1}
EXPERIMENT = {"preset": "fixed-10", **SIZES}
SPEC_10 = {"p": 2, "n": 2, "kind": {"FixedSN": ["1", "0"]}}

# name: (command, the --config file's content or None, more arguments, PADIC_RMT_SEED)
MALFORMED = {
    "spec-one-part-signature": ("simulate", {**SPEC_10, "kind": {"FixedSN": ["1"]}}, [], None),
    "spec-without-kind": ("simulate", {"p": 2, "n": 2}, [], None),
    "spec-is-a-list": ("simulate", [SPEC_10], [], None),
    "spec-p-not-prime": ("simulate", {**SPEC_10, "p": 4}, [], None),
    "spec-mixture-mass": (
        "simulate",
        {**SPEC_10, "kind": {"SNMixture": [[["1", "0"], "1/3"]]}},
        [],
        None,
    ),
    "spec-mixture-probability-true": (
        "simulate",
        {**SPEC_10, "kind": {"SNMixture": [[["1", "0"], True]]}},
        [],
        None,
    ),
    "spec-mixture-probability-float": (
        "simulate",
        {**SPEC_10, "kind": {"SNMixture": [[["1", "0"], 0.5], [["0", "0"], "1/2"]]}},
        [],
        None,
    ),
    "spec-haar-entries-payload": ("simulate", {**SPEC_10, "kind": {"HaarEntries": "garbage"}}, [], None),
    "spec-increasing-signature": ("simulate", {**SPEC_10, "kind": {"FixedSN": ["0", "1"]}}, [], None),
    "seed-not-an-integer": ("simulate", None, ["--preset", "fixed-10", "--kmax", "3"], "abc"),
    "config-unknown-preset": ("lln", {**EXPERIMENT, "preset": "nope"}, [], None),
    "config-unknown-tolerance": ("lln", {**EXPERIMENT, "tolerances": {"tv": 1}}, [], None),
    "config-tolerances-a-list": ("lln", {**EXPERIMENT, "tolerances": [1]}, [], None),
    "config-is-a-list": ("lln", [EXPERIMENT], [], None),
    "config-trials-null": ("lln", {**EXPERIMENT, "trials": None}, [], None),
    "config-spec-a-number": ("lln", {"spec": 5}, [], None),
    "config-fractional-k_max": ("lln", {**EXPERIMENT, "k_max": 8.9}, [], None),
    "config-fractional-trials": ("lln", {**EXPERIMENT, "trials": 2.7}, [], None),
    "config-trials-true": ("lln", {**EXPERIMENT, "trials": True}, [], None),
    "config-expect_split-a-string": (
        "bounded-diff",
        {**EXPERIMENT, "expect_split": "false"},
        [],
        None,
    ),
    "config-unknown-field": (
        "lln",
        {"preset": "fixed-10", "kmax": 10, "trials": 2, "master_seed": 1, "jobs": 1},
        [],
        None,
    ),
    "config-tv_max": ("lln", {**EXPERIMENT, "tolerances": {"tv_max": 0.02}}, [], None),
    "config-tolerance-true": ("lln", {**EXPERIMENT, "tolerances": {"lln_abs": True}}, [], None),
    "config-tolerance-nan": ("lln", {**EXPERIMENT, "tolerances": {"lln_abs": float("nan")}}, [], None),
    "config-tolerance-infinity": ("lln", {**EXPERIMENT, "tolerances": {"clt_rel": float("inf")}}, [], None),
    "config-tolerance-string": ("lln", {**EXPERIMENT, "tolerances": {"lln_abs": "0.1"}}, [], None),
    "spec-fractional-p": ("simulate", {**SPEC_10, "p": 2.5}, [], None),
    "spec-fractional-signature-part": ("simulate", {**SPEC_10, "kind": {"FixedSN": [1.7, 0]}}, [], None),
    "spec-fractional-ambient": ("simulate", {**SPEC_10, "kind": {"CornerOfHaar": 3.5}}, [], None),
    "spec-fractional-precision_base": ("simulate", {**SPEC_10, "precision_base": 4.9}, [], None),
    "spec-unknown-field": ("simulate", {**SPEC_10, "precison_base": 4}, [], None),
    "hl-eval-too-few-points": (
        "hl-eval",
        None,
        ["--signature", "2,0", "--points", "1", "--t", "1/2"],
        None,
    ),
    "corner-dist-jobs-zero": ("corner-dist", None, ["--signature", "1,0", "--jobs", "0"], None),
    "corner-dist-jobs-negative": (
        "corner-dist",
        None,
        ["--signature", "1,0", "--monte-carlo", "10", "--jobs", "-2"],
        None,
    ),
}


# MALFORMED cases whose error message must name the refused field
NAMED_FIELD = {
    "config-fractional-k_max": "'k_max'",
    "config-fractional-trials": "'trials'",
    "config-trials-true": "'trials'",
    "config-expect_split-a-string": "'expect_split'",
    "config-unknown-field": "'kmax'",
    "config-tv_max": "'tv_max'",
    "config-tolerance-true": "'lln_abs'",
    "config-tolerance-nan": "'lln_abs'",
    "config-tolerance-infinity": "'clt_rel'",
    "config-tolerance-string": "'lln_abs'",
    "spec-fractional-p": "'p'",
    "spec-fractional-signature-part": "'kind'",
    "spec-fractional-ambient": "'kind'",
    "spec-fractional-precision_base": "'precision_base'",
    "spec-unknown-field": "'precison_base'",
    "spec-mixture-probability-true": "'kind'",
    "spec-mixture-probability-float": "'kind'",
    "spec-haar-entries-payload": "'kind'",
    "corner-dist-jobs-zero": "--jobs",
    "corner-dist-jobs-negative": "--jobs",
}


def malformed_argv(name, tmp_path, monkeypatch=None) -> list[str]:
    """The command line of a MALFORMED case; its output would go to
    tmp_path / "out".  Sets PADIC_RMT_SEED through monkeypatch, if given."""
    command, config, more, seed = MALFORMED[name]
    argv = [command, *more]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if command not in ("hl-eval", "corner-dist"):
        argv += ["--out", str(tmp_path / "out")]
    if seed is not None and monkeypatch is not None:
        monkeypatch.setenv("PADIC_RMT_SEED", seed)
    return argv


class TestExitCodes:
    def test_missing_source_is_config_error(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path / "x")]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bad_signature(self):
        assert run(["corner-dist", "--signature", "0,1", "--p", "2"]) == 1

    def test_unreadable_config(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run(["lln", "--config", str(missing)]) == 1

    def test_law_without_clt_target_is_config_error(self, capsys):
        argv = ["clt", "--preset", "haar-entries-2", "--kmax", "10", "--trials", "4"]
        assert run(argv + ["--jobs", "1", "--seed", "6"]) == 1
        assert "needs a finite-support law" in capsys.readouterr().err

    def test_failing_criterion_exits_two(self, tmp_path):
        cfg = {
            "preset": "fixed-10",
            "k_max": 40,
            "trials": 2,
            "master_seed": 1,
            "tolerances": {"lln_abs": 1e-9},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["lln", "--config", str(path)]) == 2

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_input_is_config_error(self, tmp_path, monkeypatch, capsys, name):
        assert run(malformed_argv(name, tmp_path, monkeypatch)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", list(NAMED_FIELD))
    def test_refused_field_is_named(self, tmp_path, capsys, name):
        assert run(malformed_argv(name, tmp_path)) == 1
        assert NAMED_FIELD[name] in capsys.readouterr().err

    def test_malformed_input_through_the_entry_point(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "padic_rmt.cli", *malformed_argv("config-is-a-list", tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")

    @pytest.mark.parametrize("command", ["simulate", "lln"])
    def test_spec_beyond_the_row_limit_is_config_error(self, tmp_path, capsys, command):
        n = MAX_PROFILE_ROWS + 1
        spec = {"p": 2, "n": n, "kind": {"FixedSN": ["1"] + ["0"] * (n - 1)}}
        config = spec if command == "simulate" else {**SIZES, "spec": spec}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run([command, "--config", str(path), "--out", str(out)]) == 1
        assert f"at most {MAX_PROFILE_ROWS} rows" in capsys.readouterr().err
        assert not out.exists()

    def test_precision_cap_in_an_experiment_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(processes, "MAX_PRECISION_DOUBLINGS", 0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"spec": ESCALATING_SPEC, "k_max": 300, "trials": 2, "jobs": 1}))
        assert run(["lln", "--config", str(path), "--seed", "7"]) == 2
        assert "precision escalation cap reached" in capsys.readouterr().err


class TestSimulate:
    def test_counterexample_exact_columns(self, tmp_path):
        out = tmp_path / "traj"
        assert (
            run(
                [
                    "simulate",
                    "--preset",
                    "paper-counterexample",
                    "--kmax",
                    "20",
                    "--out",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        lines = (out / "trajectory_0000.csv").read_text().splitlines()
        assert lines[0].startswith("# schema")
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert len(rows) == 20
        for row in rows:
            k = int(row["k"])
            lam1 = sum(2 ** (k - 1 - 2 * i) for i in range(0, (k - 1) // 2 + 1))
            assert int(row["lambda_1"]) == lam1
            assert int(row["v_1"]) == 0
            assert int(row["v_2"]) == 2**k - 1
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                run(
                    [
                        "simulate",
                        "--preset",
                        "fixed-10",
                        "--kmax",
                        "50",
                        "--trials",
                        "2",
                        "--out",
                        str(out),
                        "--seed",
                        "11",
                    ]
                )
                == 0
            )
        for name in ("trajectory_0000.csv", "trajectory_0001.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "metadata.json").read_text())
        mb = json.loads((b / "metadata.json").read_text())
        ma.pop("timestamp")
        mb.pop("timestamp")
        assert ma == mb

    def test_gsp_simulate_checks_balance(self, tmp_path):
        out = tmp_path / "gsp"
        assert (
            run(
                [
                    "gsp-simulate",
                    "--preset",
                    "gsp4-fixed-1100",
                    "--kmax",
                    "25",
                    "--out",
                    str(out),
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        lines = (out / "trajectory_0000.csv").read_text().splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            lam = [int(row[f"lambda_{i}"]) for i in range(1, 5)]
            assert lam[0] + lam[3] == lam[1] + lam[2]

    @pytest.mark.parametrize("preset", ["fixed-210", "fixed-10"])
    def test_gsp_simulate_refuses_a_general_linear_law(self, tmp_path, capsys, preset):
        out = tmp_path / "out"
        assert run(["gsp-simulate", "--preset", preset, "--kmax", "5", "--out", str(out)]) == 1
        assert "symplectic" in capsys.readouterr().err
        assert not out.exists()


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records each pool's size and runs
    the tasks in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools started while the test runs (none really start)."""
    import concurrent.futures

    sizes: list = []
    monkeypatch.setattr(RecordingExecutor, "sizes", sizes)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return sizes


def _outputs(out: Path) -> dict:
    """Every file of a simulate --out directory, metadata less its timestamp."""
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    meta = json.loads(files.pop("metadata.json"))
    meta.pop("timestamp")
    return {**files, "metadata.json": meta}


class TestSimulatePool:
    def _spec_argv(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(ESCALATING_SPEC))
        return ["simulate", "--config", str(spec_path)]

    @pytest.mark.parametrize("law", ["escalating-spec", "gsp4-fixed-1100"])
    def test_jobs_do_not_change_outputs(self, tmp_path, law):
        if law == "escalating-spec":
            argv = self._spec_argv(tmp_path) + ["--kmax", "400", "--trials", "3"]
            argv += ["--with-interpolation"]
        else:
            argv = ["gsp-simulate", "--preset", law, "--kmax", "60", "--trials", "2"]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert run(argv + ["--seed", "7", "--jobs", jobs, "--out", str(out)]) == 0
            outputs.append(_outputs(out))
        assert outputs[0] == outputs[1]
        if law == "escalating-spec":
            # escalations in more than one trial, listed in trial order
            trials = [e["trial"] for e in outputs[0]["metadata.json"]["escalations"]]
            assert len(set(trials)) > 1 and trials == sorted(trials)

    def test_precision_cap_in_a_worker_exits_two(self, tmp_path, monkeypatch, capsys):
        # set before the pool forks, so the workers inherit it
        monkeypatch.setattr(processes, "MAX_PRECISION_DOUBLINGS", 0)
        out = tmp_path / "out"
        argv = self._spec_argv(tmp_path) + ["--kmax", "300", "--trials", "2", "--jobs", "2"]
        assert run(argv + ["--seed", "7", "--out", str(out)]) == 2
        assert "precision escalation cap reached" in capsys.readouterr().err
        assert not (out / "metadata.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_trajectory_is_io_error(self, tmp_path, jobs, capsys):
        out = tmp_path / "out"
        (out / "trajectory_0001.csv").mkdir(parents=True)
        argv = ["simulate", "--preset", "fixed-10", "--kmax", "5", "--trials", "2"]
        assert run(argv + ["--jobs", jobs, "--out", str(out)]) == 3
        assert "cannot write trajectory" in capsys.readouterr().err
        assert not (out / "metadata.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "gsp-simulate"])
    @pytest.mark.parametrize(
        "flags", [["--kmax", "-3"], ["--trials", "0"], ["--jobs", "0"], ["--jobs", "-1"]]
    )
    def test_bad_sizes_are_config_errors(self, tmp_path, command, flags):
        out = tmp_path / "out"
        argv = [command, "--preset", "gsp4-fixed-1100", *flags, "--out", str(out)]
        assert run(argv) == 1
        assert not out.exists()

    def test_no_pool_without_steps_or_for_one_trial(self, tmp_path, pool_sizes):
        argv = ["simulate", "--preset", "fixed-10", "--jobs", "2"]
        assert run(argv + ["--kmax", "0", "--trials", "3", "--out", str(tmp_path / "a")]) == 0
        assert run(argv + ["--kmax", "5", "--trials", "1", "--out", str(tmp_path / "b")]) == 0
        assert pool_sizes == []
        # header-only files: the schema line and the column names
        assert len((tmp_path / "a" / "trajectory_0002.csv").read_text().splitlines()) == 2
        assert run(argv + ["--kmax", "5", "--trials", "3", "--out", str(tmp_path / "c")]) == 0
        assert pool_sizes == [2]

    def test_pool_is_capped_at_the_trial_count(self, tmp_path, pool_sizes):
        assert map_trials(abs, [-1, 2, -3], 64) == [1, 2, 3]
        argv = ["clt", "--preset", "fixed-10", "--kmax", "8", "--trials", "2", "--seed", "1"]
        run(argv + ["--jobs", "16", "--out", str(tmp_path / "clt.json")])
        argv = ["simulate", "--preset", "fixed-10", "--kmax", "5", "--trials", "3"]
        assert run(argv + ["--jobs", "16", "--out", str(tmp_path / "sim")]) == 0
        assert pool_sizes == [3, 2, 3]


class TestPresets:
    def test_every_preset_simulates(self, tmp_path):
        from padic_rmt.presets import preset_names

        for name in preset_names():
            out = tmp_path / name
            code = run(
                [
                    "simulate",
                    "--preset",
                    name,
                    "--kmax",
                    "8",
                    "--out",
                    str(out),
                    "--seed",
                    "2",
                ]
            )
            assert code == 0, name
            assert (out / "trajectory_0000.csv").exists(), name


class TestCornerDist:
    def test_exact_table(self, capsys):
        assert run(["corner-dist", "--signature", "1,0", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "(1,): 1/3" in out
        assert "(0,): 2/3" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "4"], "not a prime: 4"),
            (["--p", "4", "--monte-carlo", "10"], "not a prime: 4"),
            (["--p", "1"], "not a prime: 1"),
            (["--monte-carlo", "-5"], "--monte-carlo must be >= 0"),
        ],
    )
    def test_bad_prime_or_sample_count(self, capsys, flags, message):
        assert run(["corner-dist", "--signature", "1,0"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_no_samples_is_valid(self, capsys):
        assert run(["corner-dist", "--signature", "1,0", "--monte-carlo", "0"]) == 0
        out = capsys.readouterr().out
        assert "(1,): 1/3" in out
        assert "TV distance" not in out

    def test_point_mass(self, capsys):
        assert run(["corner-dist", "--signature", "3,3", "--p", "5"]) == 0
        assert "(3,): 1" in capsys.readouterr().out

    def test_monte_carlo_on_a_positive_point_mass(self, capsys):
        # the public sampler keeps p^40 in the shift, not in the residues
        argv = ["corner-dist", "--signature", "40,40,40", "--p", "3", "--monte-carlo", "20", "--seed", "1"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert float(out.rsplit("TV distance:", 1)[1]) == 0

    def test_monte_carlo_column(self, capsys):
        assert (
            run(
                [
                    "corner-dist",
                    "--signature",
                    "1,0",
                    "--p",
                    "2",
                    "--monte-carlo",
                    "2000",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "TV distance" in out
        tv = float(out.rsplit("TV distance:", 1)[1])
        assert tv <= 0.05


class TestCornerDistJobs:
    """corner-dist splits its samples over --jobs workers; stdout is the
    same for every split."""

    @pytest.mark.parametrize("p", [2, 3, 257])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_stdout_is_the_same_for_any_jobs(self, capsys, p, level):
        argv = ["corner-dist", "--signature", "2,1,0", "--level", str(level), "--p", str(p),
                "--monte-carlo", "60", "--seed", "19"]
        outs = []
        for jobs in (1, 2, 3):
            assert run(argv + ["--jobs", str(jobs)]) == 0
            outs.append(capsys.readouterr().out)
        assert "empirical (60 samples)" in outs[0]
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("samples, jobs", [(1, 2), (1, 3), (2, 3)])
    def test_fewer_samples_than_jobs(self, capsys, samples, jobs):
        argv = ["corner-dist", "--signature", "2,1,0", "--p", "3",
                "--monte-carlo", str(samples), "--seed", "19"]
        assert run(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert run(argv + ["--jobs", str(jobs)]) == 0
        assert capsys.readouterr().out == serial


class TestSamplerGolden:
    """The public samplers are fixed functions of their address: these
    digests were taken before the odd-p digit decoding was reworked and
    must never change.  The stream golden in test_rng pins the RngStream
    draws; these pin what the samplers and corner-dist build on them."""

    CORNER_DIST = {
        (3, 2, 3000): "242d2b2fe39ea7a512baa01b12fdb1cf97f498416effbf786de11a17fecbb82f",
        (3, 3, 3000): "10c40f2bc36d05de8e782312678c08b63dfecd690150bbf75337df27574ec3d6",
        (5, 2, 3000): "dcb3513dee3d7b70318a15589a1c97adb328ffd8391439760b3ad54a6f2bc0a1",
        (7, 2, 3000): "cc5502d8b1257ac8c812b9428a272f501f9373eb6e1db3b5f8bdc4260c44d7c1",
        (257, 2, 300): "50007b496d1f24867151da0f5cbbb7fc113ebd1ba89bd38c36166f84a432732f",
    }
    SAMPLERS = {
        ("bi", 3): "ddbb023b5659826c678e0f2072de63c2ddd867b9984b3a362536fa82289ac12c",
        ("bi", 5): "bc81ba3a26c9041f1a06257a0999c8ab607bd98cc3441c8acfea657ff8bb1578",
        ("corner", 3): "a50588fc58c1d3c7c63baa2f87d593af486c17a46efd8ddc2235b05ecc2fda06",
        ("corner", 5): "96214ed162a7ef4564e60f966b05daa8e178f55b96c2912c3aa115903702d7d7",
        ("gsp", 3): "003e84dd64e2791eed458221fa5a7ffd3b2a82346d2692735f603d1a4d68c9f5",
        ("gsp", 5): "ed33035160b89aeaee6da63e4fcf5674d9e3a122ed786030277808b8d5ed8b17",
    }

    @pytest.mark.parametrize("p, level, samples", sorted(CORNER_DIST))
    def test_corner_dist_monte_carlo(self, capsys, p, level, samples):
        argv = ["corner-dist", "--signature", "2,1,0", "--level", str(level), "--p", str(p),
                "--monte-carlo", str(samples), "--seed", "13"]
        assert run(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.CORNER_DIST[p, level, samples]

    @pytest.mark.parametrize("sampler, p", sorted(SAMPLERS))
    def test_sampler_residues(self, sampler, p):
        from padic_rmt.ensembles import sample_bi_invariant, sample_corner_of_haar
        from padic_rmt.padic import Signature
        from padic_rmt.rng import RngStream
        from padic_rmt.symplectic import sample_haar_gsp

        rng = RngStream(31, 2)
        h = hashlib.sha256()
        for i in range(200):
            if sampler == "bi":
                mat = sample_bi_invariant(Signature((2, 1, 0)), 3, 3, p, None, rng, ("bi", i))
            elif sampler == "corner":
                mat = sample_corner_of_haar(2, 3, 4, p, 12, rng, ("corner", i))
            else:
                mat = sample_haar_gsp(2, p, 12, rng, ("gsp", i)).matrix
            h.update(repr((mat.precision, mat.shift, mat.residues)).encode())
            h.update(b";")
        assert h.hexdigest() == self.SAMPLERS[sampler, p]


class TestCertifiedPrecisionGolden:
    """corner-dist draws its Monte-Carlo samples at weight(lambda - shift)
    + 1 digits, the fewest its corners can read; these digests were taken
    when it drew at spread + base and must never change.  "1,1,1" draws at
    one digit."""

    CORNER_DIST = {
        ("3,1,-1", 1, 3): "693c175b0bcfd95a452f682221fefa3863272fd36b2b43a42c3703b9afd10b6d",
        ("3,1,-1", 1, 5): "3ee0678ce671d4616848561e7c2d25338be71872b8971e44892a8e3b002e6599",
        ("3,1,-1", 3, 3): "26b4f123281291f3c663e477789bd6eefff93a0c766ac05dbe2f20b7d3e60edc",
        ("3,1,-1", 3, 5): "253cc1d1c982a6f0bbc52a7d21c930ab8af9cb4727546ec6a42b8a8466b8ebde",
        ("1,1,1", 1, 3): "a60bd52d001a1c5914359b92453c289c1f6f5b83aa593d6f6786d72ef57c3417",
        ("1,1,1", 1, 5): "ce220304450cfcf71f555b12f2b971152d1a7b8970f569705af2756436764762",
        ("1,1,1", 3, 3): "52d37ff510d35ebecab96875a39598f188cc819fbd9f50752754fcb16adc0525",
        ("1,1,1", 3, 5): "85ee6e0e43057e5b88ddaa3a459b3c30b1a2f4f510a81d5e0c1ed78717756a2e",
        ("2,2,0,0", 1, 3): "6983e81769649b4a23456e4bca9039fe0773f8a99c87f26f1cdab20154d653bc",
        ("2,2,0,0", 1, 5): "f3c5eb3a58c04d4151c2861e1fa38f52e1bc5ccda3afd7a099c43e2e55a6a394",
        ("2,2,0,0", 3, 3): "39f8927542fbed06b16c179f4d3367790354ff04bcd9794da5c7eb7f1d7c23c4",
        ("2,2,0,0", 3, 5): "2f913560651f637d62b94fc6ebd66eed91e9535cc021702ad3dd3b586fd90ffa",
        ("2,2,0,0", 4, 3): "350bc77e4eb35841e11692a4969e9179b57a5dacdd78b4ab852636c0984c09c4",
        ("2,2,0,0", 4, 5): "36d525216f479fee491c3f5bc049d2c7f498fbab7e9d36413ebe3b7d76972d09",
    }

    @pytest.mark.parametrize("signature, level, p", sorted(CORNER_DIST))
    def test_corner_dist_monte_carlo(self, capsys, signature, level, p):
        argv = ["corner-dist", "--signature", signature, "--level", str(level), "--p", str(p),
                "--monte-carlo", "1000", "--seed", "17"]
        assert run(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.CORNER_DIST[signature, level, p]


class TestHlEval:
    def test_value(self, capsys):
        assert (
            run(["hl-eval", "--signature", "1,0", "--points", "1,1/2", "--t", "1/2"])
            == 0
        )
        assert capsys.readouterr().out.strip() == "3/2"

    def test_evaluator_input_error_is_config_error(self, capsys):
        argv = ["hl-eval", "--signature", "0,-1", "--points", "0,1", "--t", "1/2"]
        assert run(argv) == 1
        assert "negative weight" in capsys.readouterr().err


class TestExperimentCommands:
    def test_lln_writes_report(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code = run(
            [
                "lln",
                "--preset",
                "fixed-10",
                "--kmax",
                "200",
                "--trials",
                "6",
                "--seed",
                "5",
                "--out",
                str(report),
            ]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["kind"] == "lln" and obj["passed"]
        assert "PASS" in capsys.readouterr().out

    def test_report_counts_escalations_like_simulate(self, tmp_path):
        """The report's escalation counter equals the escalations simulate
        lists for the same law, size and seed, for serial and pooled runs."""
        spec = ESCALATING_SPEC
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        sim = tmp_path / "sim"
        argv = ["simulate", "--config", str(spec_path), "--kmax", "1000"]
        assert run(argv + ["--trials", "2", "--seed", "7", "--out", str(sim)]) == 0
        listed = len(json.loads((sim / "metadata.json").read_text())["escalations"])
        assert listed > 0
        for jobs in (1, 2):
            cfg = {"spec": spec, "k_max": 1000, "trials": 2, "master_seed": 7, "jobs": jobs}
            cfg_path = tmp_path / f"lln{jobs}.json"
            cfg_path.write_text(json.dumps(cfg))
            report = tmp_path / f"rep{jobs}.json"
            run(["lln", "--config", str(cfg_path), "--out", str(report)])
            obj = json.loads(report.read_text())
            assert obj["counters"] == {"escalations": listed}, jobs

    @pytest.mark.parametrize("kind", ["lln", "clt", "bounded-diff"])
    def test_given_flags_override_the_config_file(self, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fixed-10", "k_max": 8, "trials": 2, "master_seed": 3}))
        flags = ["--seed", "99", "--kmax", "40", "--trials", "5", "--jobs", "1"]
        given, unset = tmp_path / "given.json", tmp_path / "unset.json"
        run([kind, "--config", str(cfg), *flags, "--out", str(given)])
        run([kind, "--config", str(cfg), "--out", str(unset)])
        got = json.loads(given.read_text())["config"]
        assert (got["master_seed"], got["k_max"], got["trials"], got["jobs"]) == (99, 40, 5, 1)
        kept = json.loads(unset.read_text())["config"]
        assert (kept["master_seed"], kept["k_max"], kept["trials"], kept["jobs"]) == (3, 8, 2, 1)

    def test_bounded_diff_counterexample_is_expected_fail(self, capsys):
        code = run(
            [
                "bounded-diff",
                "--preset",
                "paper-counterexample",
                "--kmax",
                "16",
                "--trials",
                "1",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "non-split" in capsys.readouterr().out

    def test_counterexample_config_defaults_to_non_split(self, tmp_path, capsys):
        """The law, not the way it is named, decides expect_split: a config
        file naming the counterexample gets the preset's verdict."""
        path = tmp_path / "cfg.json"
        cfg = {"preset": "paper-counterexample", **SIZES, "k_max": 16, "trials": 1}
        path.write_text(json.dumps(cfg))
        assert run(["bounded-diff", "--config", str(path)]) == 0
        assert "[ok] max_gap_keeps_growing" in capsys.readouterr().out

    def test_failing_non_split_bounded_diff_exits_two(self, tmp_path, capsys):
        cfg = {**EXPERIMENT, "k_max": 40, "trials": 3, "expect_split": False}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["bounded-diff", "--config", str(path)]) == 2
        assert "bounded-diff: FAIL" in capsys.readouterr().out


class TestSelftest:
    def test_all_pass(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out

    def test_filter(self, capsys):
        assert run(["selftest", "--filter", "hl/"]) == 0
        out = capsys.readouterr().out
        assert "padic/" not in out and "hl/" in out

    def test_no_matching_check_is_config_error(self, capsys):
        assert run(["selftest", "--filter", "no-such-check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no checks match filter 'no-such-check'\n"

    def test_corrupted_golden_fails_by_name(self, monkeypatch, capsys):
        real = selftest._golden

        def corrupted(name):
            obj = real(name)
            if name == "corner_dist_1_0_p2.json":
                obj = {"entries": [{"signature": [1], "prob": "1/2"}]}
            return obj

        monkeypatch.setattr(selftest, "_golden", corrupted)
        assert selftest.run_selftest("golden/") == 2
        out = capsys.readouterr().out
        assert "[FAIL] golden/corner-dist-1-0" in out

    def test_corrupted_golden_fails_under_optimize(self):
        child = "\n".join(
            [
                "import sys",
                "from padic_rmt import selftest",
                "assert False, 'asserts are live: not running under -O'",
                "selftest._golden = lambda name: {'entries': []}",
                "sys.exit(selftest.run_selftest('golden/'))",
            ]
        )
        src = str(Path(padic_rmt.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", child],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert done.returncode == 2, (done.stdout, done.stderr)
        assert "[FAIL] golden/corner-dist-1-0" in done.stdout
