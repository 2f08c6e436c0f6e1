"""CLI surface: subcommands, config resolution, outputs, exit codes."""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import typing
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
        assert meta["replica_streams"] == [0, 1, 2]
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

    def test_meta_records_run_counters(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["max_resync_drift"] >= 0.0
        assert "acceptance_a" not in meta and "events_per_sec" not in meta
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert all(f" {phase} " in line for phase in ("run", "report", "write"))

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
        exact = measure.moment_profile(spec).means
        emp, se = draws.mean(axis=0), draws.std(axis=0, ddof=1) / np.sqrt(5000)
        rows = [(x + 1, emp[x], se[x], exact[x], (emp[x] - exact[x]) / se[x])
                for x in range(3)]
        assert (out / "moments.csv").read_bytes() == csv_oracle(
            ["site", "emp_mean", "se", "exact_mean", "z"], rows)

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

    # candidate tables of 60^5, 121^3 (default --k 60) and 513^2 entries
    @pytest.mark.parametrize("flags", [["--n", "5", "--k", "10"],
                                       ["--n", "3", "--candidate", "product-geometric"],
                                       ["--n", "2", "--k", "256"]])
    def test_stationarity_rejects_unsupported_n(self, tmp_path, flags):
        out = tmp_path / "ver5"
        rc = run_cli(["verify", "--suite", "stationarity", *flags, "--out", str(out)])
        assert rc == 2
        assert not (out / "reports.jsonl").exists()

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
    ])
    def test_unused_option_exits_2(self, tmp_path, flags):
        if "--config" in flags:
            cfg = tmp_path / "ver.cfg"
            cfg.write_text(flags[-1] + "\n")
            flags = [*flags[:-1], str(cfg)]
        out = tmp_path / "ver7"
        assert run_cli(["verify", *flags, "--out", str(out)]) == 2
        assert not (out / "reports.jsonl").exists()

    @pytest.mark.parametrize("mc_samples", ["0", "-5"])
    def test_no_monte_carlo_samples_exits_2(self, tmp_path, mc_samples):
        out = tmp_path / "ver9"
        rc = run_cli(["verify", "--suite", "telescoping", "--sizes", "5",
                      "--mc-samples", mc_samples, "--out", str(out)])
        assert rc == 2
        assert not (out / "reports.jsonl").exists()

    def test_telescoping_sizes_flag(self, tmp_path):
        out = tmp_path / "ver3"
        rc = run_cli(["verify", "--suite", "telescoping", "--sizes", "1,2",
                      "--mc-samples", "100000", "--out", str(out)])
        assert rc == 0

    def test_verify_determinism(self, tmp_path):
        out = tmp_path / "ver4"
        args = ["verify", "--suite", "equilibrium", "--out", str(out)]
        assert run_cli(args) == 0
        first = dir_bytes(out)
        assert run_cli(args) == 0
        assert dir_bytes(out) == first


def assert_compare_reuses_profile(sim: Path, out: Path) -> None:
    """compare copies the simulation's profile byte for byte and says where it came from."""
    for name in ("profile.csv", "covariance.csv"):
        assert (out / f"compare_{name}").read_bytes() == (sim / name).read_bytes()
    sim_meta = json.loads((sim / "meta.json").read_text())
    meta = json.loads((out / "meta.json").read_text())
    n, replicas = sim_meta["config"]["n"], sim_meta["config"]["replicas"]
    assert sim_meta["autocorr_series"] == replicas * (n + n * (n + 1) // 2)
    assert meta["autocorr_series"] == replicas * n  # the GOF's effective sizes only
    assert meta["profile_source"] == "profile.csv"


def simulate_small(out: Path, *extra: str) -> Path:
    assert run_cli(["simulate", "--model", "discrete", "--n", "3", "--beta-a", "0.5",
                    "--beta-b", "0.75", "--t-max", "300", "--seed", "5",
                    "--grid-samples", "512", *extra, "--out", str(out)]) == 0
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

    def test_continuous_round_trip(self, tmp_path, monkeypatch):
        simulated = []
        real = cli.simulate_continuous
        monkeypatch.setattr(cli, "simulate_continuous",
                            lambda *a, **kw: simulated.append(real(*a, **kw)) or simulated[-1])
        sim = tmp_path / "csim"
        run_cli([
            "simulate", "--model", "continuous", "--n", "2", "--t-a", "1",
            "--t-b", "2", "--t-max", "600", "--seed", "12",
            "--grid-samples", "4096", "--out", str(sim),
        ])
        out = tmp_path / "ccmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 0
        assert_compare_reuses_profile(sim, out)
        _, loaded = cli._load_sim_dir(sim)
        assert len(loaded.hists) == len(simulated[0].hists) == 2
        for h_sim, h_load in zip(simulated[0].hists, loaded.hists):
            assert (h_load.lo, h_load.hi, h_load.n_bins) == (h_sim.lo, h_sim.hi, h_sim.n_bins)
            assert h_load.weights == h_sim.weights

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

    @pytest.mark.parametrize("name", ["profile.csv", "covariance.csv"])
    def test_missing_profile_exits_2(self, tmp_path, name, capsys):
        sim = simulate_small(tmp_path / "sim")
        (sim / name).unlink()
        out = tmp_path / "cmp"
        assert run_cli(["compare", "--sim", str(sim), "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

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

    def test_chain_flags_rejected(self, tmp_path):
        # compare reads the chain from the simulation's own meta.json
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", "--sim", str(tmp_path), "--n", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2

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
        ("compare", "--level", "0"),
        ("compare", "--level", "1"),
        ("compare", "--level", "-0.5"),
    ])
    def test_unhonourable_value_exits_2(self, tmp_path, command, flag, value, capsys):
        out = tmp_path / "out"
        rest = {"simulate": ["--n", "2", "--t-max", "5"], "sample-exact": ["--n", "2"],
                "compare": ["--sim", str(tmp_path)]}[command]
        assert run_cli([command, flag, value, *rest, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_z_fails_compare(self, tmp_path):
        # two grid points: site 2 never moves between them, so its se is 0 and
        # its mean misses the exact one; every finite z stays below 4
        sim = tmp_path / "sim"
        assert run_cli(["simulate", "--n", "2", "--t-max", "50", "--seed", "0",
                        "--grid-samples", "2", "--out", str(sim)]) == 0
        z = [float(row["z"]) for name in ("profile.csv", "covariance.csv")
             for row in csv.DictReader((sim / name).read_text().splitlines())]
        assert math.inf in z and max(abs(v) for v in z if math.isfinite(v)) < 4.0
        assert run_cli(["compare", "--sim", str(sim), "--out", str(tmp_path / "cmp")]) == 3


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
