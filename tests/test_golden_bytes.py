"""Golden output bytes: every CLI command, run in process on small pinned
configurations, writes files whose sha256 digests the table below holds.

A file's digest is that of its bytes, except ``meta.json``, which is compared
by value: its ``*_version`` fields and ``compare``'s ``config.sim_dir`` (a
path) are left out, and the rest is hashed as sorted-key JSON.  So a new
numpy, scipy or package version, or another output directory, does not move
the table; any other byte of any output does.  A change that alters output on
purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden_bytes.py OUT_DIR

which runs every configuration into OUT_DIR and prints ``EXIT_CODES`` and
``GOLDEN`` to paste here.
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import pytest

from drivenchain import cli

BETAS = ["--beta-a", "0.5", "--beta-b", "0.75"]
TEMPS = ["--t-a", "1", "--t-b", "2"]

# Output directory -> argv without ``--out``; ``compare`` names its simulate
# directory, which runs before it.  n=65 is the smallest size above 64 sites;
# its run starts empty and is far from stationary by t_max, so its compare
# exits 3.
RUNS = {
    "sim-d3": ["simulate", "--model", "discrete", "--n", "3", *BETAS, "--t-max", "200",
               "--seed", "7", "--grid-samples", "128", "--replicas", "2", "--workers", "1"],
    "sim-d65": ["simulate", "--model", "discrete", "--n", "65", *BETAS, "--t-max", "20",
                "--seed", "65", "--grid-samples", "256"],
    "sim-c3": ["simulate", "--model", "continuous", "--n", "3", *TEMPS, "--t-max", "400",
               "--seed", "3", "--grid-samples", "256"],
    "cmp-d3": ["compare", "--sim", "sim-d3"],
    "cmp-d65": ["compare", "--sim", "sim-d65"],
    "cmp-c3": ["compare", "--sim", "sim-c3"],
    "exact-d": ["sample-exact", "--model", "discrete", "--n", "3", *BETAS, "--samples", "1000",
                "--seed", "11"],
    "exact-c": ["sample-exact", "--model", "continuous", "--n", "3", *TEMPS, "--samples", "1000",
                "--seed", "12"],
    "ver-identities": ["verify", "--suite", "identities"],
    "ver-equilibrium": ["verify", "--suite", "equilibrium"],
    "ver-telescoping": ["verify", "--suite", "telescoping", "--sizes", "1,6", "--mc-samples",
                        "1000", "--seed", "13"],
    "ver-stationarity": ["verify", "--suite", "stationarity", "--n", "2", "--k", "10"],
}

EXIT_CODES = {
    "sim-d3": 0,
    "sim-d65": 0,
    "sim-c3": 0,
    "cmp-d3": 0,
    "cmp-d65": 3,
    "cmp-c3": 0,
    "exact-d": 0,
    "exact-c": 0,
    "ver-identities": 0,
    "ver-equilibrium": 0,
    "ver-telescoping": 0,
    "ver-stationarity": 0,
}

GOLDEN = {
    "cmp-c3/compare_covariance.csv":
        "307d658103fb87b8ab88fd3c7d62475bf793d3d1a23ef41855abeec3f96f1423",
    "cmp-c3/compare_profile.csv":
        "49e897a4b1b5ceebfdea3e757cb25259de040ce4325b466454d9d4fc861d792b",
    "cmp-c3/gof.csv":
        "bebd6e0124ed8b56f71426f02cec85482fae7172c45014601485e092c2729d34",
    "cmp-c3/meta.json":
        "29e43c32b5a36738b1337785e17723c87b8719a7e81bb63f020ae55a5e05052f",
    "cmp-d3/compare_covariance.csv":
        "cab04a90ef387ef610e77a2fba4a1562228dd249ee2229f3502d4ecb577d2779",
    "cmp-d3/compare_profile.csv":
        "9b0722c3544a0d9da7c6dad1ed5edd651704e059471e6265a377fb77891c3a3f",
    "cmp-d3/gof.csv":
        "8d2d9adb42606276db123ae857ab237de3a073ec006db0c0a2140f4cecce751b",
    "cmp-d3/meta.json":
        "a3545b70bc3eb5ee6dc4b956c774e60870f4d76855a2e7e550e7cc300f0a7f65",
    "cmp-d65/compare_covariance.csv":
        "71fa0fe1c38808e08bb6fa4d9f5fd9c314db0410f2f940e0db4d22a93a595eae",
    "cmp-d65/compare_profile.csv":
        "ba3c1dd8251936cdd3f55bce307bb7ad5b84b85a321f6cf108398dbf14a8f5f2",
    "cmp-d65/gof.csv":
        "a67c439e02c2029f51b1ee4317e471810783e2f8d57bd50cc86bda05b7f889fc",
    "cmp-d65/meta.json":
        "b99fde977c7a538ad62028b2098254150a7400e424dadf73f1ddbc0deb1f081e",
    "exact-c/meta.json":
        "4715957990360669950ea84fdf89124cc8a1dcbee3136c38a1f511e03a298c27",
    "exact-c/moments.csv":
        "f061a181dd927b8ac5c8f70a7d8163f0f3d6141482fa28e0b3b26824326d1d65",
    "exact-c/samples.csv":
        "7aa5723fbdaed795841322cf95bcf6ce463b349125642f18740c8476e298d54b",
    "exact-d/meta.json":
        "12ef6f070a399f8cc3583d902d1bca35bc06e7e384c9378384da066c6aeea633",
    "exact-d/moments.csv":
        "36015f0c79aba9b304d75273d9957492b9f504d03cd69fc579ae78b858e16a0a",
    "exact-d/samples.csv":
        "2306ce537bece7fa3389cf238fa86bd946b4f7507a963b06cf349dc1854e5930",
    "sim-c3/covariance.csv":
        "307d658103fb87b8ab88fd3c7d62475bf793d3d1a23ef41855abeec3f96f1423",
    "sim-c3/histograms.csv":
        "876055ae2ad5a7918d4d16434cebb5ac1c3ea054b3c5f430d13b334de234de81",
    "sim-c3/meta.json":
        "059eeb9e25b6db376d8a2def21ab3c519f4b880fb7af5b6e3d6a18ebc9acd555",
    "sim-c3/profile.csv":
        "49e897a4b1b5ceebfdea3e757cb25259de040ce4325b466454d9d4fc861d792b",
    "sim-c3/series.npy":
        "98b8b15400cbf21ad437eb79f7a35a2c3a9b6819ffc8a5ad87f83089ed510532",
    "sim-d3/covariance.csv":
        "cab04a90ef387ef610e77a2fba4a1562228dd249ee2229f3502d4ecb577d2779",
    "sim-d3/histograms.csv":
        "38f0ed1214ee58bd5ba3d11624c5b4bafc3eb2ef7b5a7da1a99aa48eb76aa27d",
    "sim-d3/meta.json":
        "d6d466b36cee118a8976aab529de88d523909ef7a7800d6055ee4acb094990ca",
    "sim-d3/profile.csv":
        "9b0722c3544a0d9da7c6dad1ed5edd651704e059471e6265a377fb77891c3a3f",
    "sim-d3/series.npy":
        "6f6020c2fa90e78fc6bce172fa80a4e1fece4c75aff83a2e7513d2709462143e",
    "sim-d65/covariance.csv":
        "71fa0fe1c38808e08bb6fa4d9f5fd9c314db0410f2f940e0db4d22a93a595eae",
    "sim-d65/histograms.csv":
        "f8cddc7aa9b48245b8d868c3b0292455194ba04049fdbaef3d2bc11798a08e92",
    "sim-d65/meta.json":
        "4acd7ad54aad67c98b27d1dac595c8fa028e6ced06cab81e49a3f8b1296f9a14",
    "sim-d65/profile.csv":
        "ba3c1dd8251936cdd3f55bce307bb7ad5b84b85a321f6cf108398dbf14a8f5f2",
    "sim-d65/series.npy":
        "af9c510153dc57226731ed8aad69dfc75ed071939ae7b1fee7c7cedb64035466",
    "ver-equilibrium/meta.json":
        "217b4db4540afb801ed3405eab8f7000887d18c009f91986975204fa7a154ba0",
    "ver-equilibrium/reports.jsonl":
        "b285cce634808ac988d1e169cae700d8b36dfd696a12ee06296601743361fba6",
    "ver-identities/meta.json":
        "20b94b704dab9e5e58cc6cb629e8dfe89a674b413c55aa08a4e2bfb66b4bfc6d",
    "ver-identities/reports.jsonl":
        "104498d1c2fb88f802c43cea17d5d888c8831d430780f28659d0924509938cab",
    "ver-stationarity/meta.json":
        "73e42bd50503e99c668d2dd589e360133d100a315f29f18c95dc74f88c4fdda4",
    "ver-stationarity/reports.jsonl":
        "52b87226dc962f09243bb34ee7f99ab1fbee421c9792a9bf6d4dcf077de5c50d",
    "ver-telescoping/meta.json":
        "a0c1916f445218349707de39a96534ea167816b61548b5071f7f0a86af02fbb4",
    "ver-telescoping/reports.jsonl":
        "d32a680470025d8aa35b71e43daeccca8c741e5b535d9b6dade49226f2109d54",
}


def _digest(path: Path) -> str:
    if path.name != "meta.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    meta = json.loads(path.read_text())
    meta = {k: v for k, v in meta.items() if not k.endswith("_version")}
    meta["config"].pop("sim_dir", None)
    return hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()


def run_all(root: Path) -> tuple[dict[str, int], dict[str, str]]:
    """Run every configuration into ``root``: (exit code per run, digest per
    output file, keyed by its path under ``root``)."""
    codes = {}
    for name, argv in RUNS.items():
        argv = [str(root / a) if a in RUNS else a for a in argv]
        codes[name] = cli.main([*argv, "--out", str(root / name)])
    digests = {p.relative_to(root).as_posix(): _digest(p)
               for p in sorted(root.rglob("*")) if p.is_file()}
    return codes, digests


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


def test_every_run_exits_as_pinned(outputs):
    assert outputs[0] == EXIT_CODES


def test_the_runs_write_the_pinned_files(outputs):
    assert sorted(outputs[1]) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_the_table(outputs, name):
    assert outputs[1].get(name) == GOLDEN[name], f"{name} differs from its golden digest"


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # the commands' own reports
        exit_codes, golden = run_all(Path(sys.argv[1]))
    print("EXIT_CODES = {")
    for name, code in exit_codes.items():
        print(f'    "{name}": {code},')
    print("}\n\nGOLDEN = {")
    for key, digest in golden.items():
        print(f'    "{key}":\n        "{digest}",')
    print("}")
