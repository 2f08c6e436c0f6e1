"""Smoke test of tools/null_calibration.py on a few seeds."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "null_calibration.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("null_calibration", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_seeds(capsys):
    tool = load_tool()
    assert tool.main(["--seeds", "1-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for chain in tool.CHAINS:
        at = lines.index(f"{chain} (3 seeds)")
        rows = lines[at + 2:at + 2 + len(tool.KINDS)]
        assert [row.split()[0] for row in rows] == list(tool.KINDS)
        assert all(len(row.split()) == 6 for row in rows)
        assert lines[at + 2 + len(tool.KINDS)].startswith("  runs with any covariance |z| >= 4: ")
        assert lines[at + 3 + len(tool.KINDS)].startswith("  compare exit 3: ")


def test_seed_ranges():
    tool = load_tool()
    assert tool.parse_seeds("5") == range(5, 6)
    assert tool.parse_seeds("1-2400") == range(1, 2401)
