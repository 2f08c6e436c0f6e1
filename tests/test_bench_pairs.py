"""The summary of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, rss, rate, correct=True, failed=0) -> dict:
    """A parsed final line of bench/run.py."""
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_ref": {"value": wall, "unit": "ref"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def test_medians_quartiles_wins_and_bounds():
    tool = load_tool()
    pairs = [(result(10.0, 60.0, 5.0), result(9.0, 64.0, 6.0)),
             (result(12.0, 60.0, 5.0), result(11.0, 64.0, 4.0)),
             (result(11.0, 60.0, 5.0), result(11.0, 64.0, 6.0)),
             (result(13.0, 60.0, 5.0), result(14.0, 64.0, 6.0))]
    lines = tool.summarize(pairs, METRICS)
    assert lines[:4] == [
        "wall_ref (ref, lower is better)",
        "  parent median 11.5  IQR 10.75-12.25  range 10-13",
        "  change median 11  IQR 10.5-11.75  range 9-14",
        "  change better in 2 of 4 pairs; medians -4.35% (within bound 25%)",
    ]
    assert lines[7] == "  change better in 0 of 4 pairs; medians +6.67% (OUT OF bound 5%)"
    assert lines[11] == "  change better in 3 of 4 pairs; medians +20.00% (within bound 10%)"
    assert lines[12] == "every run correct with 0 failed operations"


def test_an_incorrect_or_failing_run_is_named():
    tool = load_tool()
    pairs = [(result(10.0, 60.0, 5.0), result(9.0, 60.0, 5.0, correct=False)),
             (result(10.0, 60.0, 5.0, failed=2), result(9.0, 60.0, 5.0))]
    assert tool.summarize(pairs, METRICS[:1])[-1] == (
        "NOT every run correct with 0 failed operations: pair 1 change, pair 2 parent")


def test_one_pair_has_degenerate_quartiles():
    tool = load_tool()
    lines = tool.summarize([(result(10.0, 60.0, 5.0), result(8.0, 60.0, 5.0))], METRICS[:1])
    assert lines[1] == "  parent median 10  IQR 10-10  range 10-10"
    assert lines[3] == "  change better in 1 of 1 pairs; medians -20.00% (within bound 25%)"
