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


def verdict_of(better, base, change):
    return bench_pair.compare(runs("m", base), runs("m", change), declared(better))["m"]["verdict"]


@pytest.mark.parametrize("better, sign", [("lower", 1), ("higher", -1)], ids=["lower", "higher"])
def test_verdict_gain_needs_nine_tenths_of_pairs_and_a_gap_past_the_spread(better, sign):
    base = [sign * v for v in [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]]
    better_by = lambda d: [b - sign * d for b in base]
    assert verdict_of(better, base, better_by(10.0)) == "gain"
    # 9 of 10 pairs won still counts; 8 of 10 does not
    nine = better_by(10.0)[:9] + [base[9]]
    assert verdict_of(better, base, nine) == "gain"
    eight = better_by(10.0)[:8] + base[8:]
    assert verdict_of(better, base, eight) == "within_bound"
    # every pair won, but by less than the parent's quartile spread (q3 - q1 = 2.5)
    assert verdict_of(better, base, better_by(2.0)) == "within_bound"


@pytest.mark.parametrize("better, sign", [("lower", 1), ("higher", -1)], ids=["lower", "higher"])
def test_verdict_regression_is_a_median_worse_than_the_bound(better, sign):
    base = [sign * 100.0] * 4
    assert verdict_of(better, base, [sign * 126.0] * 4) == "regression"
    assert verdict_of(better, base, [sign * 124.0] * 4) == "within_bound"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    base = [50.0, 52.0, 66.0, 68.0, 50.0, 52.0, 66.0, 68.0]  # q3 - q1 = 17 > 0.25 x median 59
    assert verdict_of("lower", base, [55.0] * 8) == "unresolved"
    # every run of the change better than every run of the parent resolves it
    assert verdict_of("lower", base, [49.0] * 7 + [49.5]) == "within_bound"
    # a median worse by more than the bound is still a regression
    assert verdict_of("lower", base, [80.0] * 8) == "regression"


CPU_LINE = ("# cpu time: setup_s 0.0085, latency_ms_p50 75.01, requests_per_s 13.3333, "
            "reference_ms 17.300 (not scaled to the reference speed)")


def test_cpu_figures_read_the_unscaled_line():
    lines = ["# check: 40 requests", CPU_LINE,
             "# wall clock: setup_s 0.0090, latency_ms_p50 80.00, requests_per_s 12.5000 (not scaled)",
             '{"correct": true}']
    assert bench_pair.cpu_figures(lines) == {"cpu_latency_ms_p50": 75.01, "reference_ms": 17.3}


def test_cpu_figures_refuse_output_without_the_line():
    with pytest.raises(ValueError, match="cpu time"):
        bench_pair.cpu_figures(["# wall clock: setup_s 0.0090, latency_ms_p50 80.00", "{}"])


def test_cpu_summary_per_side_without_a_verdict():
    cpu = lambda p50, ref: {"cpu": {"cpu_latency_ms_p50": p50, "reference_ms": ref}}
    runs = {"base": [cpu(1.0, 10.0), cpu(3.0, 30.0), cpu(2.0, 20.0)], "change": [cpu(5.0, 7.0)]}
    assert bench_pair.cpu_summary(runs) == {
        "base": {"cpu_latency_ms_p50": bench_pair.summary([1.0, 3.0, 2.0]),
                 "reference_ms": bench_pair.summary([10.0, 30.0, 20.0])},
        "change": {"cpu_latency_ms_p50": bench_pair.summary([5.0]),
                   "reference_ms": bench_pair.summary([7.0])},
    }
