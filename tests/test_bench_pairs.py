"""The summary arithmetic of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
import pathlib

import pytest

BENCH_PAIRS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("lra_tools_bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_paired_runs():
    bench = _load()
    parent = [10.0, 12.0, 11.0, 14.0, 13.0]
    change = [9.0, 12.0, 12.0, 10.0, 11.5]
    # sorted parent 10..14: median 12, inclusive quartiles 11 and 13; the change
    # reads lower in pairs 1, 4 and 5, higher in pair 3, and ties pair 2
    assert bench.summarize(parent, change, "lower") == {
        "parent": 12.0, "q1": 11.0, "q3": 13.0, "change": 11.5, "won": 3, "pairs": 5,
    }
    assert bench.summarize(parent, change, "higher")["won"] == 1
    assert bench.summarize([2.0], [1.0], "lower") == {
        "parent": 2.0, "q1": 2.0, "q3": 2.0, "change": 1.0, "won": 1, "pairs": 1,
    }
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    with pytest.raises(ValueError):
        bench.summarize([1.0, 2.0], [1.0], "lower")
