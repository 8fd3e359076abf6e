"""tools/bench_pair.py's statistics: the medians, quartiles and pair counts
that every committed BENCH_*.json reports."""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pair = _load_tool()


def runs(metric, values):
    return [{"metrics": {metric: v}} for v in values]


def declared(better):
    return [{"name": "m", "unit": "ms", "better": better, "bound": 0.25}]


def test_summary_of_one_run_is_that_run():
    assert bench_pair.summary([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5}


def test_summary_quartiles():
    assert bench_pair.summary([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 1.5, "q3": 4.5}


@pytest.mark.parametrize("better, wins, losses", [("lower", 1, 2), ("higher", 2, 1)])
def test_compare_counts_pairs_by_direction(better, wins, losses):
    base = runs("m", [10.0, 10.0, 10.0, 10.0])
    change = runs("m", [9.0, 10.0, 11.0, 12.0])
    out = bench_pair.compare(base, change, declared(better))["m"]
    assert (out["change_wins"], out["change_losses"], out["ties"]) == (wins, losses, 1)
    assert out["change_losses"] == len(base) - out["change_wins"] - out["ties"]
    assert out["base"] == bench_pair.summary([10.0] * 4)
    assert out["change"] == bench_pair.summary([9.0, 10.0, 11.0, 12.0])
    assert (out["unit"], out["better"], out["bound"]) == ("ms", better, 0.25)


def test_compare_ties_count_for_neither_side():
    base = runs("m", [3.0, 4.0])
    out = bench_pair.compare(base, runs("m", [3.0, 4.0]), declared("lower"))["m"]
    assert (out["change_wins"], out["change_losses"], out["ties"]) == (0, 0, 2)


def test_compare_pairs_runs_in_order():
    base = runs("m", [1.0, 5.0])
    change = runs("m", [2.0, 4.0])  # worse in pair 0, better in pair 1
    out = bench_pair.compare(base, change, declared("lower"))["m"]
    assert (out["change_wins"], out["change_losses"], out["ties"]) == (1, 1, 0)
