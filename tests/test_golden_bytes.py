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
    "ver-stationarity-suite": ["verify", "--suite", "stationarity"],
    "ver-all": ["verify", "--suite", "all"],
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
    "ver-stationarity-suite": 0,
    "ver-all": 0,
}

GOLDEN = {
    "cmp-c3/compare_covariance.csv":
        "307d658103fb87b8ab88fd3c7d62475bf793d3d1a23ef41855abeec3f96f1423",
    "cmp-c3/compare_profile.csv":
        "6d8cb9d5c75803ef8d044e0a1f19b61deae836eba1012141c60e02c80c7defe7",
    "cmp-c3/gof.csv":
        "bebd6e0124ed8b56f71426f02cec85482fae7172c45014601485e092c2729d34",
    "cmp-c3/meta.json":
        "55546881b217e4ee9a756d81c9d01981cea3aa052c8dda33f533179dfad02441",
    "cmp-d3/compare_covariance.csv":
        "cab04a90ef387ef610e77a2fba4a1562228dd249ee2229f3502d4ecb577d2779",
    "cmp-d3/compare_profile.csv":
        "43b29bdc1b8a65dcdddfe4e1652ebe4c2d557739835e12abff2753440054c492",
    "cmp-d3/gof.csv":
        "c875fca62ad61e8ab2e41483e0e1da46dbf62dff4d8e8986098593d372cb5818",
    "cmp-d3/meta.json":
        "55546881b217e4ee9a756d81c9d01981cea3aa052c8dda33f533179dfad02441",
    "cmp-d65/compare_covariance.csv":
        "71fa0fe1c38808e08bb6fa4d9f5fd9c314db0410f2f940e0db4d22a93a595eae",
    "cmp-d65/compare_profile.csv":
        "d6948144586cb7d95b87cbd748a7e19398b38592c1debc41b549fcad3cb9ac90",
    "cmp-d65/gof.csv":
        "a67c439e02c2029f51b1ee4317e471810783e2f8d57bd50cc86bda05b7f889fc",
    "cmp-d65/meta.json":
        "55546881b217e4ee9a756d81c9d01981cea3aa052c8dda33f533179dfad02441",
    "exact-c/meta.json":
        "4715957990360669950ea84fdf89124cc8a1dcbee3136c38a1f511e03a298c27",
    "exact-c/moments.csv":
        "4d54bc7d9930728e1aaf202d5eb192dfd749721f6cd7ebf298a2cfc404c9de06",
    "exact-c/samples.csv":
        "7aa5723fbdaed795841322cf95bcf6ce463b349125642f18740c8476e298d54b",
    "exact-d/meta.json":
        "12ef6f070a399f8cc3583d902d1bca35bc06e7e384c9378384da066c6aeea633",
    "exact-d/moments.csv":
        "9ab20686b2c72a1ba538a38d682987aa012871edbe42c30a27aa13351c7c50f1",
    "exact-d/samples.csv":
        "2306ce537bece7fa3389cf238fa86bd946b4f7507a963b06cf349dc1854e5930",
    "sim-c3/covariance.csv":
        "307d658103fb87b8ab88fd3c7d62475bf793d3d1a23ef41855abeec3f96f1423",
    "sim-c3/histograms.csv":
        "876055ae2ad5a7918d4d16434cebb5ac1c3ea054b3c5f430d13b334de234de81",
    "sim-c3/meta.json":
        "3811a33cc4c5c1184427cc7c3af1cb9f38195221abab304a93b4ddd3b662f94c",
    "sim-c3/profile.csv":
        "6d8cb9d5c75803ef8d044e0a1f19b61deae836eba1012141c60e02c80c7defe7",
    "sim-c3/series.npy":
        "98b8b15400cbf21ad437eb79f7a35a2c3a9b6819ffc8a5ad87f83089ed510532",
    "sim-d3/covariance.csv":
        "cab04a90ef387ef610e77a2fba4a1562228dd249ee2229f3502d4ecb577d2779",
    "sim-d3/histograms.csv":
        "38f0ed1214ee58bd5ba3d11624c5b4bafc3eb2ef7b5a7da1a99aa48eb76aa27d",
    "sim-d3/meta.json":
        "c2166dfad6b1b5b51aca9c7d50a76b7a83cd999422731241f2cb2a8040e2b63e",
    "sim-d3/profile.csv":
        "43b29bdc1b8a65dcdddfe4e1652ebe4c2d557739835e12abff2753440054c492",
    "sim-d3/series.npy":
        "6f6020c2fa90e78fc6bce172fa80a4e1fece4c75aff83a2e7513d2709462143e",
    "sim-d65/covariance.csv":
        "71fa0fe1c38808e08bb6fa4d9f5fd9c314db0410f2f940e0db4d22a93a595eae",
    "sim-d65/histograms.csv":
        "f8cddc7aa9b48245b8d868c3b0292455194ba04049fdbaef3d2bc11798a08e92",
    "sim-d65/meta.json":
        "82e1c724e916c906f98140b9962f1708a56869ca0cfc457c9137cd2805adaf57",
    "sim-d65/profile.csv":
        "d6948144586cb7d95b87cbd748a7e19398b38592c1debc41b549fcad3cb9ac90",
    "sim-d65/series.npy":
        "af9c510153dc57226731ed8aad69dfc75ed071939ae7b1fee7c7cedb64035466",
    "ver-all/meta.json":
        "14a0f1b54ab6d21b41cea2be11d2e7df8b02856e779392c39435db2b308fec44",
    "ver-all/reports.jsonl":
        "46cc32b0bab068159884cb965263f176183eb1301d357cc588652aec1975aa0c",
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
    "ver-stationarity-suite/meta.json":
        "d2a692c4f6706bee8d3f0130d5f10e9322517f8619f199827f9a3520076c18bf",
    "ver-stationarity-suite/reports.jsonl":
        "d9b791e1598d8b81fdbed666b98a4c9d010a6bc7906c373a953c8c7263bf3e52",
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
