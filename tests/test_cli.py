"""CLI surface: subcommands, config resolution, outputs, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from drivenchain import cli, measure, stats


def run_cli(args) -> int:
    return cli.main(args)


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {
        p.relative_to(path).as_posix(): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


SIM_ARGS = [
    "simulate", "--model", "discrete", "--n", "3", "--beta-a", "0.5",
    "--beta-b", "0.75", "--t-max", "800", "--seed", "42",
    "--grid-samples", "2048",
]


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
        first = dir_bytes(out)
        assert set(first) == {
            "histograms.csv", "profile.csv", "covariance.csv",
            "series.npy", "meta.json",
        }
        assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
        assert dir_bytes(out) == first  # byte-identical rerun

    def test_meta_records_config_and_versions(self, tmp_path):
        out = tmp_path / "run"
        run_cli(SIM_ARGS + ["--out", str(out)])
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 42
        assert meta["config"]["t_max"] == 800.0
        assert meta["numpy_version"] == np.__version__
        assert meta["accumulators"]["duration"] > 0.0

    def test_replicas_merge_and_streams(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(SIM_ARGS + ["--out", str(out), "--replicas", "3",
                                 "--workers", "1"])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["replicas"] == 3
        series = np.load(out / "series.npy")
        assert series.shape[0] == 3

    def test_replicas_parallel_equals_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(SIM_ARGS + ["--out", str(a), "--replicas", "2", "--workers", "1"])
        run_cli(SIM_ARGS + ["--out", str(b), "--replicas", "2", "--workers", "2"])
        ba, bb = dir_bytes(a), dir_bytes(b)
        ba.pop("meta.json")  # differs in the workers field only
        bb.pop("meta.json")
        assert ba == bb

    def test_replicas_parallel_records_the_serial_times(self, tmp_path):
        # The other files are compared by test_replicas_parallel_equals_serial.
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(SIM_ARGS + ["--out", str(a), "--replicas", "3", "--workers", "1"]) == 0
        assert run_cli(SIM_ARGS + ["--out", str(b), "--replicas", "3", "--workers", "2"]) == 0
        meta_a, meta_b = (json.loads((d / "meta.json").read_text()) for d in (a, b))
        assert (meta_a["config"].pop("workers"), meta_b["config"].pop("workers")) == (1, 2)
        assert meta_a == meta_b
        assert np.array(meta_a["autocorr_times"]).shape == (3, 3)

    def test_meta_records_run_counters(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["max_resync_drift"] >= 0.0
        assert "acceptance_a" not in meta and "events_per_sec" not in meta
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert all(f" {phase} " in line for phase in ("run", "report", "write"))

    def test_meta_counts_events_per_channel(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(SIM_ARGS + ["--out", str(out), "--replicas", "2",
                                   "--workers", "1"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        counts = meta["channel_events"]
        assert set(counts) == {"inject_a", "inject_b", "exit_a", "exit_b", "bulk"}
        assert sum(counts.values()) == meta["accumulators"]["event_count"]
        assert meta["resyncs"] == 2  # one end-of-run resync per replica
        assert "selection" not in meta

    def test_continuous_counters_per_replica_and_stable(self, tmp_path):
        args = ["simulate", "--model", "continuous", "--n", "2", "--t-max", "60",
                "--seed", "8", "--grid-samples", "256", "--replicas", "2",
                "--workers", "1", "--out", str(tmp_path / "c")]
        assert run_cli(args) == 0
        first = dir_bytes(tmp_path / "c")
        meta = json.loads(first["meta.json"])
        for key in ("acceptance_a", "acceptance_b"):
            assert len(meta[key]) == 2 and all(0.0 < a <= 1.0 for a in meta[key])
        assert meta["max_resync_drift"] >= 0.0
        assert "events_per_sec" not in meta
        assert run_cli(args) == 0
        assert dir_bytes(tmp_path / "c") == first  # byte-identical rerun

    def test_continuous_records_epsilon(self, tmp_path):
        out = tmp_path / "crun"
        rc = run_cli([
            "simulate", "--model", "continuous", "--n", "2", "--t-a", "1.0",
            "--t-b", "2.0", "--t-max", "150", "--seed", "3",
            "--grid-samples", "512", "--epsilon", "1e-5", "--out", str(out),
        ])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["epsilon"] == 1e-5

    @pytest.mark.parametrize("flags", [["--t-max", "10", "--burn-in", "20"],
                                       ["--model", "continuous", "--epsilon", "-1"]])
    def test_rejected_configuration_leaves_no_directory(self, tmp_path, flags):
        out = tmp_path / "t" / "sim"
        assert run_cli(["simulate", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_epsilon_above_the_histogram_range_exits_2(self, tmp_path, capsys):
        # At epsilon >= 5 T_B the site histograms' bins (10 eps, 50 T_B] are empty;
        # the run used to fail inside with "need 0 < lo < hi".
        out = tmp_path / "t" / "sim"
        assert run_cli(["simulate", "--model", "continuous", "--n", "2", "--t-max", "10",
                        "--epsilon", "1000", "--grid-samples", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--epsilon" in err and "(10 epsilon, 50 T_B]" in err, err
        assert not out.exists()

    def test_invalid_params_exit_2(self, tmp_path):
        rc = run_cli(["simulate", "--model", "discrete", "--n", "0",
                      "--out", str(tmp_path)])
        assert rc == 2
        rc = run_cli(["simulate", "--model", "discrete", "--beta-a", "0.9",
                      "--beta-b", "0.5", "--out", str(tmp_path)])
        assert rc == 2


def fmt_oracle(x) -> str:
    """Reference rendering: each value formatted by hand before csv.writer sees it."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def csv_oracle(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([fmt_oracle(v) for v in row])
    return buf.getvalue().encode()


class TestSampleExact:
    @pytest.mark.parametrize("model, sampler, chain", [
        ("discrete", measure.sample_exact_discrete, ["--beta-a", "0.5", "--beta-b", "0.75"]),
        ("continuous", measure.sample_exact_continuous, ["--t-a", "1", "--t-b", "2"]),
    ])
    def test_csv_bytes_match_per_value_rendering(self, tmp_path, model, sampler, chain):
        out = tmp_path / model
        assert run_cli(["sample-exact", "--model", model, "--n", "3", *chain,
                        "--samples", "5000", "--seed", "13", "--out", str(out)]) == 0
        cfg = cli.RunConfig(command="sample-exact", model=model, n=3)
        spec = measure.MixtureSpec(cfg.chain_params(), measure.Model(model))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(13)))
        draws = sampler(spec, rng, size=5000)
        header = ["site_1", "site_2", "site_3"]
        assert (out / "samples.csv").read_bytes() == csv_oracle(header, draws)
        moments = measure.moment_profile(spec)
        exact = moments.means
        emp, se = draws.mean(axis=0), np.sqrt(np.diag(moments.covariance) / 5000)
        rows = [(x + 1, emp[x], se[x], exact[x], (emp[x] - exact[x]) / se[x])
                for x in range(3)]
        assert (out / "moments.csv").read_bytes() == csv_oracle(
            ["site", "emp_mean", "se", "exact_mean", "z"], rows)

    @pytest.mark.parametrize("model, sampler, special", [
        ("discrete", measure.sample_exact_discrete, [0, 2**53 + 1, 2**63 - 1]),
        ("continuous", measure.sample_exact_continuous,
         [0.1, 1e-05, 1e+16, 5e-324, 1.7976931348623157e308, 0.0]),
    ])
    def test_samples_writer_matches_csv_writer_across_blocks(self, tmp_path, model, sampler,
                                                              special):
        spec = measure.MixtureSpec(cli.RunConfig(command="sample-exact", n=3).chain_params(),
                                   measure.Model(model))
        draws = sampler(spec, np.random.default_rng(2), size=cli.SAMPLE_BLOCK + 5)
        # the special values sit on both sides of the first block boundary
        draws.ravel()[3 * cli.SAMPLE_BLOCK - len(special) // 2:][:len(special)] = special
        cli._write_samples(tmp_path / "samples.csv", draws)
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["site_1", "site_2", "site_3"])
        w.writerows(draws.tolist())
        assert (tmp_path / "samples.csv").read_bytes() == buf.getvalue().encode()

    def test_moments_and_determinism(self, tmp_path):
        args = [
            "sample-exact", "--model", "discrete", "--n", "3", "--beta-a",
            "0.5", "--beta-b", "0.75", "--samples", "30000", "--seed", "9",
        ]
        out = tmp_path / "se"
        assert run_cli(args + ["--out", str(out)]) == 0
        first = dir_bytes(out)
        assert set(first) == {"samples.csv", "moments.csv", "meta.json"}
        with open(out / "moments.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(abs(float(r["z"])) < 4.0 for r in rows)
        assert run_cli(args + ["--out", str(out)]) == 0
        assert dir_bytes(out) == first

    def test_continuous_sampling(self, tmp_path):
        out = tmp_path / "sec"
        rc = run_cli([
            "sample-exact", "--model", "continuous", "--n", "2", "--t-a", "1",
            "--t-b", "2", "--samples", "20000", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        data = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        assert data.shape == (20000, 2)
        assert data.min() >= 0.0

    def test_constant_draws_keep_the_exact_law_error(self, tmp_path):
        # At beta = 1e-9 every draw is 0, so the draws scatter not at all; the
        # error is the exact law's, sqrt(Var / N) > 0, and the draws' miss of
        # about 1e-9 has a finite z, with no division warning.
        out = tmp_path / "ez"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["sample-exact", "--n", "2", "--beta-a", "1e-9", "--beta-b", "1e-9",
                            "--samples", "2", "--out", str(out)]) == 0
        with open(out / "moments.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["emp_mean"] for r in rows] == ["0.0"] * 2
        for r in rows:
            se, z = float(r["se"]), float(r["z"])
            mean = float(r["exact_mean"])
            assert se == pytest.approx(math.sqrt(mean * (1.0 + mean) / 2), rel=1e-12)
            assert se > 0.0 and math.isfinite(z) and -1.0 < z < 0.0

    def test_rejected_draw_leaves_no_directory(self, tmp_path, monkeypatch):
        def reject(spec, rng, size):
            raise ValueError("no draw")

        monkeypatch.setattr(cli, "sample_exact_discrete", reject)
        out = tmp_path / "se"
        assert run_cli(["sample-exact", "--n", "3", "--out", str(out)]) == 2
        assert not out.exists()


class TestVerify:
    def test_identities_pass(self, tmp_path):
        out = tmp_path / "ver"
        assert run_cli(["verify", "--suite", "identities", "--out", str(out)]) == 0
        lines = (out / "reports.jsonl").read_text().splitlines()
        assert len(lines) > 50
        assert all(json.loads(l)["passed"] for l in lines)

    def test_stationarity_reproduces_criterion(self, tmp_path):
        out = tmp_path / "ver1"
        rc = run_cli(["verify", "--suite", "stationarity", "--n", "1",
                      "--k", "120", "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
        assert rec["residuals"]["max_residual"] < 1e-8

    def test_impostor_candidate_exits_3(self, tmp_path):
        out = tmp_path / "ver2"
        rc = run_cli(["verify", "--suite", "stationarity", "--n", "1",
                      "--k", "100", "--candidate", "product-geometric",
                      "--out", str(out)])
        assert rc == 3

    @pytest.mark.parametrize("candidate, code", [("mixture", 0), ("product-geometric", 3),
                                                 ("product-marginals", 3)])
    def test_stationarity_n3(self, tmp_path, candidate, code):
        out = tmp_path / "ver3"
        rc = run_cli(["verify", "--suite", "stationarity", "--n", "3", "--k", "10",
                      "--candidate", candidate, "--out", str(out)])
        assert rc == code
        rec = json.loads((out / "reports.jsonl").read_text())
        assert rec["params"]["truncation"] == 10 and rec["notes"]["n"] == 3
        assert rec["tolerances"]["max_residual"] == 1e-6  # the default beyond n = 2

    # candidate tables of 60^5, 50^4 (at truncation 0) and 513^2 entries
    @pytest.mark.parametrize("flags", [["--n", "5", "--k", "10"],
                                       ["--n", "4"],
                                       ["--n", "2", "--k", "256"]])
    def test_stationarity_rejects_unsupported_n(self, tmp_path, flags):
        out = tmp_path / "ver5"
        rc = run_cli(["verify", "--suite", "stationarity", *flags, "--out", str(out)])
        assert rc == 2
        assert not (out / "reports.jsonl").exists()

    def test_rejected_configuration_leaves_no_directory(self, tmp_path):
        out = tmp_path / "vout"
        assert run_cli(["verify", "--suite", "stationarity", "--n", "5", "--k", "10",
                        "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags, k, at_zero", [
        (["--n", "2"], "-1", 0),
        (["--n", "1", "--candidate", "product-geometric"], "-3", 3),
    ])
    def test_negative_truncation_exits_2(self, tmp_path, flags, k, at_zero, capsys):
        out = tmp_path / "ver10"
        rc = run_cli(["verify", "--suite", "stationarity", *flags, "--k", k, "--out", str(out)])
        assert rc == 2
        assert "truncation" in capsys.readouterr().err
        assert not (out / "reports.jsonl").exists()
        # --k 0 is a one-state box, checked as usual
        assert run_cli(["verify", "--suite", "stationarity", *flags, "--k", "0",
                        "--out", str(out)]) == at_zero

    def test_equilibrium_records_requested_tol(self, tmp_path):
        out = tmp_path / "ver6"
        rc = run_cli(["verify", "--suite", "equilibrium", "--tol", "1e-9", "--out", str(out)])
        assert rc == 0
        reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
        assert reports
        assert all(r["tolerances"]["max_residual"] == 1e-9 for r in reports)

    def test_equilibrium_table_beyond_reach_is_inconclusive(self, tmp_path):
        out = tmp_path / "ver10"
        rc = run_cli(["verify", "--suite", "equilibrium", "--tol", "1e-20", "--out", str(out)])
        assert rc == 4
        reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
        assert len(reports) == 4
        assert all(r["inconclusive"] and "quadrature_error" in r["residuals"] for r in reports)

    def test_zero_tol_is_not_replaced_by_default(self, tmp_path):
        out = tmp_path / "ver8"
        rc = run_cli(["verify", "--suite", "stationarity", "--n", "1", "--k", "20",
                      "--tol", "0", "--out", str(out)])
        assert rc == 4  # no certificate reaches 0; the default 1e-8 would pass
        assert (out / "reports.jsonl").exists()

    @pytest.mark.parametrize("flags", [
        ["--suite", "identities", "--tol", "1e-9"],
        ["--suite", "all", "--tol", "1e-9"],
        ["--suite", "stationarity", "--tol", "1e-3"],
        ["--suite", "equilibrium", "--mc-samples", "1000"],
        ["--suite", "identities", "--sizes", "1,2"],
        ["--suite", "stationarity", "--n", "1", "--k", "20", "--sizes", "1"],
        ["--suite", "equilibrium", "--config", "mc_samples=1000"],
        ["--suite", "equilibrium", "--n", "7", "--beta-a", "0.3", "--seed", "99"],
        ["--suite", "identities", "--model", "continuous"],
        ["--suite", "all", "--seed", "1"],
        ["--suite", "stationarity", "--n", "7"],
        ["--suite", "stationarity", "--beta-b", "0.9"],
        ["--suite", "stationarity", "--n", "1", "--seed", "3"],
        ["--suite", "stationarity", "--n", "1", "--t-a", "0.5"],
        ["--suite", "telescoping", "--sizes", "1", "--n", "2"],
        ["--suite", "telescoping", "--candidate", "product-geometric"],
        ["--suite", "telescoping", "--config", "epsilon=1e-5"],
        ["--suite", "identities", "--config", "model=continuous"],
        ["--suite", "stationarity", "--n", "1", "--config", "t_a=0.5"],
    ])
    def test_unused_option_exits_2(self, tmp_path, flags):
        if "--config" in flags:
            cfg = tmp_path / "ver.cfg"
            cfg.write_text(flags[-1] + "\n")
            flags = [*flags[:-1], str(cfg)]
        out = tmp_path / "ver7"
        if {"--model", "--t-a"} & set(flags):  # no check reads them: verify has no such flag
            with pytest.raises(SystemExit) as exc:
                run_cli(["verify", *flags, "--out", str(out)])
            assert exc.value.code == 2
        else:
            assert run_cli(["verify", *flags, "--out", str(out)]) == 2
        assert not (out / "reports.jsonl").exists()

    @pytest.mark.parametrize("mc_samples", ["0", "-5"])
    def test_no_monte_carlo_samples_exits_2(self, tmp_path, mc_samples):
        out = tmp_path / "ver9"
        rc = run_cli(["verify", "--suite", "telescoping", "--sizes", "5",
                      "--mc-samples", mc_samples, "--out", str(out)])
        assert rc == 2
        assert not (out / "reports.jsonl").exists()

    def test_monte_carlo_below_the_least_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ver10"
        rc = run_cli(["verify", "--suite", "telescoping", "--sizes", "6",
                      "--mc-samples", "999", "--out", str(out)])
        assert rc == 2 and "--mc-samples" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["verify", "--suite", "telescoping", "--sizes", "6",
                        "--mc-samples", "1000", "--out", str(out)]) == 0

    @pytest.mark.parametrize("flags, unread", [
        (["--sizes", "6", "--mc-samples", "1000", "--tol", "1e-3"], "--tol"),  # 4 SE, not tol
        (["--sizes", "1,2", "--seed", "3"], "--seed"),  # quadrature draws nothing
    ], ids=["tol-monte-carlo-only", "seed-quadrature-only"])
    def test_telescoping_option_no_size_reads_exits_2(self, tmp_path, flags, unread, capsys):
        out = tmp_path / "ver11"
        assert run_cli(["verify", "--suite", "telescoping", *flags, "--out", str(out)]) == 2
        assert f"does not use {unread}" in capsys.readouterr().err
        assert not out.exists()
        # Mixed sizes read both.
        cfg = cli.RunConfig(command="verify", suite="telescoping", sizes=(1, 6), seed=3, tol=1e-3,
                            mc_samples=1000)
        cli.check_options(cfg, {"suite", "sizes", "seed", "tol", "mc_samples"})

    def test_telescoping_sizes_flag(self, tmp_path):
        out = tmp_path / "ver3"
        rc = run_cli(["verify", "--suite", "telescoping", "--sizes", "1,2",
                      "--mc-samples", "100000", "--out", str(out)])
        assert rc == 0

    def test_monte_carlo_size_without_samples_exits_2(self, tmp_path, capsys):
        # Monte Carlo runs only on request: no default count is drawn.
        out = tmp_path / "ver12"
        assert run_cli(["verify", "--suite", "telescoping", "--sizes", "6",
                        "--out", str(out)]) == 2
        assert "--mc-samples" in capsys.readouterr().err
        assert not out.exists()

    def test_quadrature_sizes_need_no_samples(self, tmp_path):
        out = tmp_path / "ver13"
        assert run_cli(["verify", "--suite", "telescoping", "--sizes", "1,2,3,5",
                        "--out", str(out)]) == 0
        assert json.loads((out / "meta.json").read_text())["config"]["mc_samples"] is None

    @pytest.mark.parametrize("n, table", [("3", "64^3"), ("7", "50^7")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_stationarity_n_runs_the_direct_check(self, tmp_path, n, table, source, capsys):
        # --n picks the direct check at any n.  Without --k, an n >= 3 takes
        # the largest truncation whose table fits MAX_TABLE_ENTRIES: 14 at
        # n = 3 (a 64^3 table); at n = 7 even truncation 0 needs a 50^7 table.
        option = ["--n", n]
        if source == "config":
            (tmp_path / "n.cfg").write_text(f"n={n}\n")
            option = ["--config", str(tmp_path / "n.cfg")]
        out = tmp_path / "ver14"
        code = run_cli(["verify", "--suite", "stationarity", *option, "--out", str(out)])
        err = capsys.readouterr().err
        assert "does not use" not in err
        if n == "3":
            assert code == 0
            (rec,) = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
            assert rec["params"]["truncation"] == 14
            assert f"{rec['notes']['extent'] + 1}^{n}" == table
        else:
            assert code == 2 and not out.exists()
            assert f"truncation 0 needs a {table} table" in err
            assert "a larger --tol shortens it" in err

    @pytest.mark.parametrize("flags, code", [
        (["--n", "3", "--candidate", "product-geometric"], 3),  # the check's power, at K = 14
        (["--n", "3", "--k", "15"], 2),  # a 65^3 table
    ])
    def test_stationarity_n3_at_the_derived_truncation(self, tmp_path, flags, code):
        out = tmp_path / "ver17"
        assert run_cli(["verify", "--suite", "stationarity", *flags, "--out", str(out)]) == code
        assert out.exists() == (code != 2)

    def test_bare_stationarity_runs_the_suite(self, tmp_path):
        out = tmp_path / "ver15"
        assert run_cli(["verify", "--suite", "stationarity", "--out", str(out)]) == 0
        reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
        assert [r["notes"]["n"] for r in reports] == [1, 2]
        assert set(json.loads((out / "meta.json").read_text())["config"]) == {"command", "suite"}

    def test_unattainable_tail_budget_exits_4(self, tmp_path):
        # beta_b = 0.9999: the boundary sums' geometric tails need no truncation
        # level the check can reach, an inconclusive report.
        out = tmp_path / "ver16"
        assert run_cli(["verify", "--suite", "stationarity", "--n", "1", "--beta-b", "0.9999",
                        "--out", str(out)]) == 4
        (rec,) = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
        assert rec["inconclusive"] and rec["notes"]["failure"] == (
            "no truncation level meets the tail budget")

    def test_verify_determinism(self, tmp_path):
        out = tmp_path / "ver4"
        args = ["verify", "--suite", "equilibrium", "--out", str(out)]
        assert run_cli(args) == 0
        first = dir_bytes(out)
        assert run_cli(args) == 0
        assert dir_bytes(out) == first


def assert_compare_reuses_profile(sim: Path, out: Path) -> None:
    """compare copies the simulation's profile byte for byte."""
    for name in ("profile.csv", "covariance.csv"):
        assert (out / f"compare_{name}").read_bytes() == (sim / name).read_bytes()
    sim_meta = json.loads((sim / "meta.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    n, replicas = sim_meta["config"]["n"], sim_meta["config"]["replicas"]
    assert sim_meta["autocorr_series"] == replicas * n  # the site series only
    assert sim_meta["covariance_error"] == {
        "rule": "exact product variance x batch-means tau", "batches": stats.COV_BATCHES}
    assert meta["autocorr_series"] == 0  # the GOF reads simulate's recorded times


def simulate_small(out: Path, *extra: str) -> Path:
    assert run_cli(["simulate", "--model", "discrete", "--n", "3", "--beta-a", "0.5",
                    "--beta-b", "0.75", "--t-max", "300", "--seed", "5",
                    "--grid-samples", "512", *extra, "--out", str(out)]) == 0
    return out


def simulate_small_continuous(out: Path) -> Path:
    assert run_cli(["simulate", "--model", "continuous", "--n", "2", "--t-a", "1", "--t-b", "2",
                    "--t-max", "300", "--seed", "5", "--grid-samples", "512",
                    "--out", str(out)]) == 0
    return out


class TestCompare:
    def test_discrete_round_trip(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli([
            "simulate", "--model", "discrete", "--n", "3", "--beta-a", "0.5",
            "--beta-b", "0.75", "--t-max", "8000", "--seed", "11",
            "--grid-samples", "8192", "--out", str(sim),
        ])
        out = tmp_path / "cmp"
        rc = run_cli(["compare", "--sim", str(sim), "--out", str(out)])
        assert rc == 0
        with open(out / "gof.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["passed"] == "True" for r in rows)
        assert_compare_reuses_profile(sim, out)

    def test_continuous_round_trip(self, tmp_path):
        # The verdict is a statistical test that rejects a correct engine at a
        # small rate (about 2% of seeds here), so the test holds compare to the
        # verdict it wrote, not to a pass.
        sim = tmp_path / "csim"
        assert run_cli([
            "simulate", "--model", "continuous", "--n", "2", "--t-a", "1",
            "--t-b", "2", "--t-max", "600", "--seed", "12",
            "--grid-samples", "4096", "--out", str(sim),
        ]) == 0
        out = tmp_path / "ccmp"
        code = run_cli(["compare", "--sim", str(sim), "--out", str(out)])
        assert_compare_reuses_profile(sim, out)
        rows = list(csv.DictReader((out / "gof.csv").read_text().splitlines()))
        assert [r["test"] for r in rows] == ["ks", "ks"]
        z = [float(row["z"]) for name in ("compare_profile.csv", "compare_covariance.csv")
             for row in csv.DictReader((out / name).read_text().splitlines())]
        passed = all(r["passed"] == "True" for r in rows) and max(map(abs, z)) < 4.0
        assert code == (0 if passed else 3)

    def test_replicas_round_trip(self, tmp_path):
        sim = simulate_small(tmp_path / "rsim", "--replicas", "3", "--workers", "1")
        out = tmp_path / "rcmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) in (0, 3, 4)
        assert_compare_reuses_profile(sim, out)

    def test_never_recomputes_the_profile(self, tmp_path, monkeypatch):
        sim = simulate_small(tmp_path / "sim")

        def refuse(*args, **kwargs):
            raise AssertionError("compare recomputed the profile report")

        monkeypatch.setattr(cli, "profile_report", refuse)
        monkeypatch.setattr(stats, "profile_report", refuse)
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "cmp")]) in (0, 3, 4)

    @pytest.mark.parametrize("name", ["profile.csv", "covariance.csv", "series.npy"])
    def test_missing_profile_exits_2(self, tmp_path, name, capsys):
        sim = simulate_small(tmp_path / "sim")
        (sim / name).unlink()
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_verify_output_exits_2(self, tmp_path, capsys):
        ver = tmp_path / "ver"
        assert run_cli(["verify", "--suite", "equilibrium", "--out", str(ver)]) == 0
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(ver), "--out", str(out)]) == 2
        assert "output of verify" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cut", [
        lambda series: series[:, :, :-1],  # a site short
        lambda series: series[:, ::2],     # a run on another grid
        lambda series: np.concatenate([series, series]),  # a replica too many
    ], ids=["site-short", "other-grid", "extra-replica"])
    def test_series_of_another_shape_exits_2(self, tmp_path, cut, capsys):
        sim = simulate_small(tmp_path / "sim")
        path = sim / "series.npy"
        np.save(path, cut(np.load(path)))
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        assert f"{path} has shape" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, edit", [
        ("discrete", lambda series: series - (series == series.min())),  # a count of -1
        ("discrete", lambda series: series.astype(float)),
        ("continuous", lambda series: np.where(series == series.max(), np.nan, series)),
        ("continuous", lambda series: np.where(series == series.max(), -0.5, series)),
        ("continuous", lambda series: np.where(series == series.max(), np.inf, series)),
    ], ids=["negative-count", "float-counts", "nan-energy", "negative-energy", "inf-energy"])
    def test_malformed_series_exits_2(self, tmp_path, model, edit, capsys):
        sim = simulate_small(tmp_path / "sim") if model == "discrete" else (
            simulate_small_continuous(tmp_path / "sim"))
        path = sim / "series.npy"
        np.save(path, edit(np.load(path)))
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [simulate_small, simulate_small_continuous],
                             ids=["discrete", "continuous"])
    def test_compare_reads_no_histograms(self, tmp_path, make):
        sim = make(tmp_path / "sim")
        with_file = run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "a")])
        (sim / "histograms.csv").unlink()
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "b")]) == with_file
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_particle_gof_counts_the_series(self, tmp_path):
        # gof.csv is the chi-square of each site's series values over every
        # replica, counted by np.bincount, at the recorded effective size.
        sim = simulate_small(tmp_path / "sim", "--replicas", "2", "--workers", "1")
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) in (0, 3, 4)
        series = np.load(sim / "series.npy")
        taus = json.loads((sim / "meta.json").read_text())["autocorr_times"]
        spec = measure.MixtureSpec(cli.ChainParams(n=3, beta_a=0.5, beta_b=0.75), "discrete")
        with open(out / "gof.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for x, row in enumerate(rows, start=1):
            ess = sum(series.shape[1] / tau[x - 1] for tau in taus)
            g = stats.chi_square_discrete(
                np.bincount(series[:, :, x - 1].ravel()),
                lambda v: measure.marginal_pmf_discrete(spec, x, v), ess)
            assert row == [str(v) for v in (x, g.name, g.statistic, g.dof, float(g.effective_n),
                                            g.p_value, g.passed(0.01 / 3), g.bins_note)]

    @pytest.mark.parametrize("name, line, column", [
        ("profile.csv", 2, 2),      # se of site 1
        ("covariance.csv", 3, 3),   # se of pair (1, 2)
        ("profile.csv", 3, 1),      # emp_mean of site 2
        ("covariance.csv", 2, 4),   # exact_cov of pair (1, 1)
        ("profile.csv", 4, 4),      # z of site 3
        ("covariance.csv", 4, 0),   # the pair's first site
    ])
    def test_edited_profile_exits_2(self, tmp_path, name, line, column, capsys):
        sim = simulate_small(tmp_path / "sim")
        lines = (sim / name).read_text().splitlines()
        fields = lines[line - 1].split(",")
        value = float(fields[column])
        fields[column] = repr(value * (1.0 + 2.0 ** -40) + (1.0 if value == 0.0 else 0.0))
        if column == 0:
            fields[column] = str(int(value) + 1)
        lines[line - 1] = ",".join(fields)
        (sim / name).write_text("\n".join(lines) + "\n")
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "cmp")]) == 2
        assert f"{name} line" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, says", [
        ("profile.csv", lambda rows: [["site", "mean", "se", "exact_mean", "z"], *rows[1:]],
         "header is not site,emp_mean,se,exact_mean,z"),
        ("covariance.csv", lambda rows: [rows[0], [*rows[1][:3], "wide", *rows[1][4:]],
                                         *rows[2:]], "unreadable se column"),
        ("profile.csv", lambda rows: rows[:-1], "has 2 rows, the run in"),
        ("covariance.csv", lambda rows: [*rows, rows[-1]], "has 7 rows, the run in"),
    ], ids=["header", "se", "short", "long"])
    def test_malformed_profile_exits_2(self, tmp_path, name, edit, says, capsys):
        sim = simulate_small(tmp_path / "sim")
        with open(sim / name, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(sim / name, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(sim / name) in err and says in err
        assert not out.exists()

    def test_chain_flags_rejected(self, tmp_path):
        # compare reads the chain from the simulation's own meta.json
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", "--sim", str(tmp_path), "--n", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_full_config_record_compares_the_same(self, tmp_path):
        # a meta.json that records every RunConfig field, not only the read set
        sim = simulate_small(tmp_path / "sim")
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "a")]) in (0, 3, 4)
        meta = json.loads((sim / "meta.json").read_text())
        full = dataclasses.asdict(cli.RunConfig(**{**meta["config"], "out": str(sim)}))
        assert set(full) == set(typing.get_type_hints(cli.RunConfig))
        (sim / "meta.json").write_text(json.dumps({**meta, "config": full}, default=str))
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "b")]) in (0, 3, 4)
        for name in ("gof.csv", "compare_profile.csv", "compare_covariance.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda meta: {},
        lambda meta: {k: v for k, v in meta.items() if k != "accumulators"},
        lambda meta: {**meta, "config": {**meta["config"], "colour": "red"}},
        lambda meta: {**meta, "accumulators": {}},
    ], ids=["empty", "no-accumulators", "unknown-config-key", "empty-accumulators"])
    def test_malformed_meta_exits_2(self, tmp_path, edit, capsys):
        sim = simulate_small(tmp_path / "sim")
        meta = json.loads((sim / "meta.json").read_text())
        (sim / "meta.json").write_text(json.dumps(edit(meta)))
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        assert f"{sim / 'meta.json'} is not the record of a simulate run" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda times: None, "records no autocorr_times"),
        (lambda times: [t[:-1] for t in times], "is not 1 list(s) of 3 times"),
        (lambda times: times * 2, "is not 1 list(s) of 3 times"),
        (lambda times: times[0], "is not 1 list(s) of 3 times"),
        (lambda times: [[*times[0][:2], [1.0]]], "is not 1 list(s) of 3 times"),
        (lambda times: [["a", "b", "c"]], "is not 1 list(s) of 3 times"),
        (lambda times: [[*times[0][:2], math.nan]], "not finite or is below 1"),
        (lambda times: [[*times[0][:2], math.inf]], "not finite or is below 1"),
        (lambda times: [[*times[0][:2], None]], "not finite or is below 1"),
        (lambda times: [[*times[0][:2], 0.999]], "not finite or is below 1"),
    ], ids=["missing", "site-short", "replica-extra", "flat", "ragged", "text", "nan", "inf",
            "null", "below-1"])
    def test_malformed_autocorr_times_exits_2(self, tmp_path, edit, message, capsys):
        sim = simulate_small(tmp_path / "sim")
        meta = json.loads((sim / "meta.json").read_text())
        times = edit(meta.pop("autocorr_times"))
        if times is not None:
            meta["autocorr_times"] = times
        (sim / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(sim / "meta.json") in err and message in err
        assert not out.exists()

    def test_site_times_are_computed_once_in_simulate(self, tmp_path, monkeypatch):
        rows = []
        kernel = stats.integrated_autocorr_time

        def counting(series):
            rows.append(len(np.atleast_2d(series)))
            return kernel(series)

        monkeypatch.setattr(stats, "integrated_autocorr_time", counting)
        sim = simulate_small(tmp_path / "sim", "--replicas", "3", "--workers", "1")
        assert sum(rows) == 3 * 3  # replicas x sites
        rows.clear()
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "cmp")]) in (0, 3, 4)
        assert rows == []

    def test_gof_equals_a_run_that_recomputes_the_effective_sizes(self, tmp_path, monkeypatch):
        sim = simulate_small(tmp_path / "sim", "--replicas", "2", "--workers", "1")
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "a")]) in (0, 3, 4)
        monkeypatch.setattr(cli, "effective_sample_size",
                            lambda series, tau=None: stats.effective_sample_size(series))
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "b")]) in (0, 3, 4)
        assert (tmp_path / "a" / "gof.csv").read_bytes() == (tmp_path / "b" / "gof.csv").read_bytes()

    def test_missing_sim_dir_exit_2(self, tmp_path):
        rc = run_cli(["compare", "--sim", str(tmp_path / "nope"),
                      "--out", str(tmp_path)])
        assert rc == 2


class TestNumericOptions:
    @pytest.mark.parametrize("command, flag, value", [
        ("sample-exact", "--samples", "0"),
        ("sample-exact", "--samples", "1"),
        ("simulate", "--grid-samples", "0"),
        ("simulate", "--grid-samples", "1"),
        ("simulate", "--workers", "0"),
        ("simulate", "--replicas", "0"),
        ("simulate", "--seed", "-1"),
        ("sample-exact", "--seed", "-1"),
        ("verify", "--seed", "-1"),
        ("verify", "--mc-samples", "0"),
        ("verify", "--mc-samples", "1"),
        ("verify", "--mc-samples", "999"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "-1"),
        ("compare", "--level", "0"),
        ("compare", "--level", "1"),
        ("compare", "--level", "-0.5"),
    ])
    def test_unhonourable_value_exits_2(self, tmp_path, command, flag, value, capsys):
        out = tmp_path / "out"
        rest = {"simulate": ["--n", "2", "--t-max", "5"], "sample-exact": ["--n", "2"],
                "compare": ["--sim", str(tmp_path)],
                "verify": ["--suite", "telescoping", "--sizes", "1,6"]}[command]
        assert run_cli([command, flag, value, *rest, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_tol_exits_2(self, tmp_path, source, capsys):
        # A check against an infinite tolerance passes anything, wrong candidates too.
        if source == "config":
            path = tmp_path / "run.cfg"
            path.write_text("tol=inf\n")
            option = ["--config", str(path)]
        else:
            option = ["--tol", "inf"]
        out = tmp_path / "out"
        assert run_cli(["verify", "--suite", "stationarity", "--n", "1", "--k", "20",
                        "--candidate", "product-geometric", *option, "--out", str(out)]) == 2
        assert "--tol must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_frozen_window_is_inconclusive(self, tmp_path):
        # A window of 1e-6 time units holds no event whatever the seed, so every
        # site keeps its value across the two grid points, and every mean misses
        # the exact one (integer means, non-integer exact ones).  Every error
        # takes the exact law's variance, so every z is finite and nonzero.
        # Two samples leave the GOF inconclusive: compare exits 4.
        sim = tmp_path / "sim"
        assert run_cli(["simulate", "--n", "2", "--t-max", "50", "--burn-in", "49.999999",
                        "--seed", "0", "--grid-samples", "2", "--out", str(sim)]) == 0
        z_mean, z_cov = ([float(row["z"]) for row in
                          csv.DictReader((sim / name).read_text().splitlines())]
                         for name in ("profile.csv", "covariance.csv"))
        assert len(z_mean) == 2 and all(math.isfinite(v) and v != 0.0 for v in z_mean)
        assert len(z_cov) == 3 and all(math.isfinite(v) and v != 0.0 for v in z_cov)
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 4
        notes = {row["note"] for row in csv.DictReader((out / "gof.csv").read_text().splitlines())}
        assert notes == {"insufficient effective samples"}


class TestUnreadOptions:
    """A run reads its own chain's boundary options; only energy simulations read the cutoff."""

    @pytest.mark.parametrize("command, model, name, value", [
        ("simulate", "discrete", "epsilon", "0.5"),
        ("simulate", "discrete", "t_a", "3"),
        ("simulate", "discrete", "t_b", "9"),
        ("simulate", "continuous", "beta_a", "0.1"),
        ("sample-exact", "continuous", "beta_a", "0.1"),
        ("sample-exact", "continuous", "beta_b", "0.9"),
        ("sample-exact", "discrete", "t_b", "9"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_other_models_option_exits_2(self, tmp_path, command, model, name, value,
                                         source, capsys):
        flag = "--" + name.replace("_", "-")
        rest = {"simulate": ["--t-max", "5"], "sample-exact": ["--samples", "10"]}[command]
        if source == "config":
            path = tmp_path / "run.cfg"
            path.write_text(f"{name}={value}\n")
            option = ["--config", str(path)]
        else:
            option = [flag, value]
        out = tmp_path / "out"
        argv = [command, "--model", model, "--n", "2", *rest, *option, "--out", str(out)]
        assert run_cli(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_readme_examples_are_valid(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(line, comments=True)[1:] for line in lines
                    if line.startswith("drivenchain ")]
        assert {argv[0] for argv in examples} == set(cli.READS)
        for argv in examples:
            cfg, given = cli.resolve_config(cli.build_parser().parse_args(argv))
            cli.check_options(cfg, given)


# One small run per READS variant; compare runs on a simulate_small output.
READ_RUNS = {
    ("simulate", "discrete"): ["simulate", "--n", "2", "--t-max", "5", "--grid-samples", "8"],
    ("simulate", "continuous"): ["simulate", "--model", "continuous", "--n", "2",
                                 "--t-max", "5", "--grid-samples", "8"],
    ("sample-exact", "discrete"): ["sample-exact", "--n", "2", "--samples", "10"],
    ("sample-exact", "continuous"): ["sample-exact", "--model", "continuous", "--n", "2",
                                     "--samples", "10"],
    ("verify", "direct check"): ["verify", "--suite", "stationarity", "--n", "1", "--k", "5"],
    ("verify", "telescoping"): ["verify", "--suite", "telescoping", "--sizes", "1"],
    ("verify", "equilibrium"): ["verify", "--suite", "equilibrium"],
    ("verify", "other suites"): ["verify", "--suite", "identities"],
    ("compare", "goodness of fit"): ["compare"],
}


class TestMetaRecord:
    def test_every_variant_has_a_run(self):
        assert set(READ_RUNS) == {(c, v) for c, variants in cli.READS.items() for v in variants}

    @pytest.mark.parametrize("command, variant", list(READ_RUNS))
    def test_config_is_the_read_set(self, tmp_path, command, variant):
        argv = READ_RUNS[command, variant]
        if command == "compare":
            argv = [*argv, "--sim", str(simulate_small(tmp_path / "sim"))]
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", str(out)]) in (0, 3, 4)
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta["config"]) == {"command", *cli.READS[command][variant]}
        assert meta["config"]["command"] == command
        assert not {"replica_streams", "profile_source"} & set(meta)
        assert ("epsilon" in meta) == (command == "simulate" and variant == "continuous")


class TestConfigResolution:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model=discrete\nn=2\nbeta-a=0.5\nbeta-b=0.6\nt-max=300\nseed=4\n"
            "grid-samples=512\n"
        )
        out = tmp_path / "out"
        rc = run_cli(["simulate", "--config", str(cfg), "--beta-b", "0.75",
                      "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["beta_b"] == 0.75  # flag wins
        assert meta["config"]["n"] == 2  # file value kept

    def test_config_file_values_get_field_types(self, tmp_path):
        text = {"n": "3", "beta_a": "0.25", "beta_b": "0.5", "t_a": "1", "t_b": "2",
                "epsilon": "1e-5", "t_max": "100", "burn_in": "5", "replicas": "2",
                "seed": "7", "workers": "1", "grid_samples": "256", "samples": "10",
                "truncation": "20", "tol": "1e-6", "mc_samples": "1000",
                "sizes": "1,2", "level": "0.05"}
        hints = typing.get_type_hints(cli.RunConfig)
        assert set(text) == {name for name, tp in hints.items() if tp is not str}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in text.items()))
        cfg, given = cli.resolve_config(cli.build_parser().parse_args(
            ["verify", "--config", str(path)]))
        assert given == set(text)
        for name, tp in hints.items():
            if name not in text:
                continue
            value = getattr(cfg, name)
            if typing.get_origin(tp) is tuple:
                assert value == (1, 2) and all(type(v) is int for v in value)
            else:
                want = next(a for a in (*typing.get_args(tp), tp) if a is not type(None))
                assert type(value) is want, name
                assert value == want(text[name])

    def test_config_key_without_flag_exits_2(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n=2\nt-max=10\ntol=1e-6\n")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "meta.json").exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate=1\n")
        assert run_cli(["simulate", "--config", str(cfg)]) == 2

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv(cli.ENV_OUTDIR, str(target))
        rc = run_cli(["sample-exact", "--model", "discrete", "--n", "2",
                      "--samples", "100", "--seed", "1"])
        assert rc == 0
        assert (target / "samples.csv").exists()


def run_module(*args, timeout=None) -> subprocess.CompletedProcess:
    """``python -m drivenchain.cli *args`` as a process, with this package on its path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "drivenchain.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_module_entry_point(tmp_path):
    # runs ``python -m drivenchain.cli`` as a process, so sys.exit(main()) is covered
    ok = run_module("sample-exact", "--model", "discrete", "--n", "2", "--samples", "50",
                    "--seed", "0", "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "ok" / "samples.csv").exists()
    bad = run_module("sample-exact", "--n", "2", "--samples", "1",
                     "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    assert "--samples" in bad.stderr
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("flag, value", [("--t-max", "inf"), ("--t-max", "nan"),
                                         ("--burn-in", "inf")])
def test_non_finite_window_exits_2(tmp_path, flag, value):
    # An infinite window never ends, so the command runs as a process with a
    # timeout: a hang fails this test instead of stalling the suite.
    window = {"--t-max": "5", "--burn-in": "0", flag: value}
    proc = run_module("simulate", "--n", "2", "--grid-samples", "8",
                      *(a for item in window.items() for a in item),
                      "--out", str(tmp_path / "out"), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert f"{flag} must be finite" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_epsilon_exits_2(tmp_path, value, capsys):
    # --model continuous: the particle chain rejects --epsilon as an option it does not read.
    out = tmp_path / "out"
    assert run_cli(["simulate", "--model", "continuous", "--n", "2", "--t-max", "5",
                    "--grid-samples", "8", "--epsilon", value, "--out", str(out)]) == 2
    assert f"--epsilon must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(shutil.which("drivenchain") is None,
                    reason="console script not installed")
def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        ["drivenchain", "sample-exact", "--model", "discrete", "--n", "2",
         "--samples", "50", "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "samples.csv").exists()
