import hashlib
import json
import os
import time

import numpy as np
import pytest

from refinedet_edge import profiler as P
from refinedet_edge.postprocess import DetectionSet, NmsParams


def busy_wait_ms(ms):
    end = time.perf_counter_ns() + int(ms * 1e6)
    while time.perf_counter_ns() < end:
        pass


class FakeClock:
    """Stands in for the profiler's `time` module: perf_counter_ns only moves
    when a model advances it, so stage times are exact."""

    def __init__(self):
        self.ns = 0

    def perf_counter_ns(self):
        return self.ns

    def advance_ms(self, ms):
        self.ns += int(round(ms * 1e6))


@pytest.fixture
def fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(P, "time", clock)
    return clock


class DelayModel:
    """Profiler-protocol mock that spends a fixed per-stage budget: burnt on
    the wall clock, or added to a `FakeClock` when one is given."""

    input_size = 16
    model_id = "delay-mock"

    def __init__(self, delays_ms, warmup_penalty=1.0, warmup_calls=0, untimed_ms=0.0, clock=None):
        self.delays_ms = dict(delays_ms)
        self.warmup_penalty = warmup_penalty
        self.warmup_calls = warmup_calls
        self.untimed_ms = untimed_ms
        self.wait_ms = busy_wait_ms if clock is None else clock.advance_ms
        self.calls = 0
        self.dets = DetectionSet(
            boxes=np.array([[10.0, 10.0, 20.0, 20.0]], dtype=np.float32),
            scores=np.array([0.9], dtype=np.float32),
            class_ids=np.array([1], dtype=np.int64),
        )

    def infer(self, image, nms_params=None, timer=None):
        factor = self.warmup_penalty if self.calls < self.warmup_calls else 1.0
        self.calls += 1
        timer = timer if timer is not None else P.StageTimer()
        for name, ms in self.delays_ms.items():
            with timer.span(name):
                self.wait_ms(ms * factor)
        if self.untimed_ms:
            self.wait_ms(self.untimed_ms * factor)
        return self.dets


# ---------------------------------------------------------------------------
# StageTimer


def test_timer_accumulates_repeated_spans():
    t = P.StageTimer()
    with t.span("a"):
        busy_wait_ms(1.0)
    with t.span("a"):
        busy_wait_ms(1.0)
    with t.span("b"):
        pass
    acc = t.take()
    assert set(acc) == {"a", "b"}
    assert acc["a"] >= 2e6  # at least the 2 ms we burned, in ns
    assert acc["b"] >= 0
    assert t.take() == {}  # take() resets


def test_timer_records_span_even_on_exception():
    t = P.StageTimer()
    with pytest.raises(RuntimeError):
        with t.span("a"):
            raise RuntimeError("boom")
    assert "a" in t.take()


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_means_match_injected_delays(fake_clock):
    model = DelayModel({"backbone": 3.0, "nms": 2.0}, clock=fake_clock)
    report = P.benchmark(model, runs=25, warmup=5)
    assert report.model == "delay-mock"
    assert report.runs == 25 and report.warmup == 5
    assert report.stage("backbone").mean_ms == 3.0
    assert report.stage("nms").mean_ms == 2.0
    assert report.stage("total").mean_ms == 5.0
    assert report.stage("backbone").std_ms == 0.0
    assert report.stage("backbone").samples == 20
    assert report.sum_check_ok  # spans cover the whole call


def test_benchmark_excludes_warmup_runs(fake_clock):
    # first 10 calls are 20x slower; the report must not see them
    model = DelayModel({"backbone": 2.0}, warmup_penalty=20.0, warmup_calls=10, clock=fake_clock)
    report = P.benchmark(model, runs=30, warmup=10)
    assert report.stage("backbone").mean_ms == 2.0
    assert report.stage("total").mean_ms == 2.0  # with warmup rows it would be ~14.7 ms


def test_fps_is_inverse_of_total_mean():
    report = P.benchmark(DelayModel({"backbone": 1.0}), runs=8, warmup=2)
    assert report.fps == 1000.0 / report.stage("total").mean_ms


def test_stage_ordering_canonical_then_sorted_extras():
    model = DelayModel({"nms": 0.1, "backbone": 0.1, "zeta": 0.1, "alpha": 0.1})
    report = P.benchmark(model, runs=4, warmup=1)
    assert [s.name for s in report.stages] == ["backbone", "nms", "alpha", "zeta", "total"]


def test_sum_check_flags_untimed_gap():
    # spans cover 2 ms of a ~4 ms call: mismatch must be flagged and noted
    model = DelayModel({"backbone": 2.0}, untimed_ms=2.0)
    report = P.benchmark(model, runs=8, warmup=2)
    assert not report.sum_check_ok
    assert any(n.startswith("timing:") for n in report.notes)
    text = P.render_report(report)
    assert "WARNING" in text


def test_benchmark_validation():
    model = DelayModel({"backbone": 0.1})
    with pytest.raises(ValueError, match="warmup"):
        P.benchmark(model, runs=5, warmup=-1)
    with pytest.raises(ValueError, match="exceed"):
        P.benchmark(model, runs=5, warmup=5)


def test_benchmark_rejects_unstable_detections():
    class Flaky(DelayModel):
        def infer(self, image, nms_params=None, timer=None):
            dets = super().infer(image, nms_params=nms_params, timer=timer)
            if self.calls == 2:
                return DetectionSet(
                    boxes=dets.boxes,
                    scores=dets.scores + 0.01,
                    class_ids=dets.class_ids,
                )
            return dets

    with pytest.raises(RuntimeError, match="changed between"):
        P.benchmark(Flaky({"backbone": 0.1}), runs=4, warmup=1)


def test_benchmark_fixed_seed_means_fixed_input():
    seen = []

    class Recorder(DelayModel):
        def infer(self, image, nms_params=None, timer=None):
            seen.append(image.copy())
            return super().infer(image, nms_params=nms_params, timer=timer)

    P.benchmark(Recorder({"backbone": 0.01}), runs=3, warmup=1, seed=7)
    assert seen[0].shape == (1, 3, 16, 16)
    assert all(np.array_equal(seen[0], s) for s in seen[1:])


# ---------------------------------------------------------------------------
# report object


def sample_report():
    stages = [
        P.StageStat("backbone", 4.0, 0.25, 20),
        P.StageStat("nms", 1.0, 0.125, 20),
        P.StageStat("total", 5.0, 0.5, 20),
    ]
    return P.ProfileReport(
        model="m", runs=25, warmup=5, stages=stages, fps=200.0,
        environment={"host": "h", "threads": 1, "clock": "perf_counter_ns"},
        notes=[P.TIMING_NOTE], sum_check_ok=True,
    )


def test_stage_lookup_keyerror():
    with pytest.raises(KeyError, match="no stage named 'tcb'"):
        sample_report().stage("tcb")


def test_json_round_trip_is_lossless():
    report = P.benchmark(DelayModel({"backbone": 0.3, "nms": 0.2}), runs=6, warmup=2)
    back = P.ProfileReport.from_json(report.to_json())
    assert back == report  # dataclass equality covers stages, floats, env, notes


# SHA-256 of sample_report().to_json(): reports written earlier stay byte-identical
SAMPLE_REPORT_JSON_SHA256 = "8f76757f2d5b9b759fc89ce6aa9add73b7c25df6da353d12300b27822d11f7e6"


def test_to_json_bytes_are_pinned():
    text = sample_report().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_REPORT_JSON_SHA256
    assert P.ProfileReport.from_json(text) == sample_report()


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError, match="not a profile report"):
        P.ProfileReport.from_json("][ nope")
    payload = json.loads(sample_report().to_json())
    del payload["fps"]
    with pytest.raises(ValueError, match="not a profile report"):
        P.ProfileReport.from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# normalize_fps / bottleneck


def test_normalize_fps_reference_readings():
    got = P.normalize_fps([21.6, 18.8, 9.7])
    assert got[0] == 1.0
    assert got[1] == pytest.approx(18.8 / 21.6)
    assert got[2] == pytest.approx(9.7 / 21.6)
    assert got[1] == pytest.approx(0.8704, abs=1e-4)
    assert got[2] == pytest.approx(0.4491, abs=1e-4)


def test_normalize_fps_accepts_reports():
    class R:
        fps = 50.0

    assert P.normalize_fps([R(), 25.0]) == [1.0, 0.5]


def test_normalize_fps_validation():
    with pytest.raises(ValueError, match="no fps"):
        P.normalize_fps([])
    with pytest.raises(ValueError, match="positive"):
        P.normalize_fps([10.0, 0.0])


def test_bottleneck_picks_costliest_stage():
    name, share = P.bottleneck(sample_report())
    assert name == "backbone"
    assert share == pytest.approx(0.8)


def test_bottleneck_alphabetical_tiebreak():
    report = sample_report()
    report.stages = [
        P.StageStat("nms", 2.0, 0.0, 5),
        P.StageStat("decode", 2.0, 0.0, 5),
        P.StageStat("total", 4.0, 0.0, 5),
    ]
    assert P.bottleneck(report)[0] == "decode"


def test_bottleneck_requires_stages():
    report = sample_report()
    report.stages = [P.StageStat("total", 4.0, 0.0, 5)]
    with pytest.raises(ValueError, match="no stages"):
        P.bottleneck(report)


# ---------------------------------------------------------------------------
# sweeps


class SweepModel(DelayModel):
    """NMS cost grows with the max_input budget; backbone cost is fixed.
    Each span advances the fake clock instead of burning CPU time."""

    def __init__(self, clock):
        super().__init__({})
        self.clock = clock

    def infer(self, image, nms_params=None, timer=None):
        budget = 400 if nms_params is None else nms_params.max_input
        timer = timer if timer is not None else P.StageTimer()
        for name, ms in (("backbone", 1.0), ("nms", budget / 400.0)):
            with timer.span(name):
                self.clock.advance_ms(ms)
        return self.dets


def test_compare_sweep_orders_and_shifts_bottleneck(fake_clock):
    triples = [NmsParams(400, 200, 0.1), NmsParams(1000, 500, 0.01)]
    rows = P.compare_sweep(SweepModel(fake_clock), triples, runs=8, warmup=2)
    assert [r.nms for r in rows] == triples
    assert rows[0].fps > rows[1].fps  # smaller budget runs faster
    assert rows[0].bottleneck_stage == "backbone"  # 1.0 vs 1.0 ms: alphabetical
    assert rows[1].bottleneck_stage == "nms"  # 2.5 ms dominates
    assert rows[1].bottleneck_share > rows[0].bottleneck_share
    assert rows[0].report.stage("nms").mean_ms == pytest.approx(1.0, rel=0.15)


def test_compare_sweep_runs_only_the_timed_passes(fake_clock):
    model = SweepModel(fake_clock)
    calls = []
    timed_infer = model.infer

    def infer(image, **kw):
        calls.append(kw["nms_params"])
        return timed_infer(image, **kw)

    model.infer = infer
    triples = [NmsParams(400, 200, 0.1), NmsParams(1000, 500, 0.01)]
    P.compare_sweep(model, triples, runs=5, warmup=1)
    assert calls == [triples[0]] * 5 + [triples[1]] * 5


# ---------------------------------------------------------------------------
# rendering


def test_render_csv_floats_round_trip():
    out = P.render_report(sample_report(), fmt="csv")
    lines = out.strip().splitlines()
    assert lines[0] == "stage,mean_ms,std_ms,samples"
    assert len(lines) == 4
    name, mean, std, samples = lines[1].split(",")
    assert name == "backbone"
    assert float(mean) == 4.0 and float(std) == 0.25 and int(samples) == 20


def test_render_text_layout():
    out = P.render_report(sample_report(), fmt="text")
    assert "model: m" in out
    assert "runs: 25 (warmup 5 discarded; 20 samples per stage)" in out
    assert "fps: 200.00" in out
    assert "clock=perf_counter_ns" in out
    assert "100.0%" in out  # total's share of itself
    assert "80.0%" in out  # backbone share
    assert f"note: {P.TIMING_NOTE}" in out
    assert "WARNING" not in out


def test_render_strip_timings_blanks_numbers():
    report = sample_report()
    report.notes = list(report.notes) + ["timing: stage means sum to ..."]
    report.sum_check_ok = False
    text = P.render_report(report, fmt="text", strip_timings=True)
    assert "fps: -" in text
    assert "4.000" not in text and "200.00" not in text
    assert "timing:" not in text  # timing notes dropped
    assert "WARNING" not in text  # warning is itself timing-derived
    assert f"note: {P.TIMING_NOTE}" in text  # methodology note survives
    csv = P.render_report(report, fmt="csv", strip_timings=True)
    assert "backbone,-,-,20" in csv


def test_environment_record_is_byte_stable_under_strip_timings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    texts = []
    for _ in range(2):
        report = P.benchmark(DelayModel({"backbone": 0.2, "nms": 0.1}), runs=4, warmup=1)
        texts.append(P.render_report(report, fmt="text", strip_timings=True))
    env = report.environment
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] == "unset"
    assert {"host", "clock", "python", "blas"} <= set(env)
    assert texts[0] == texts[1]
    assert "OPENBLAS_NUM_THREADS=1" in texts[0] and f"numpy={np.__version__}" in texts[0]


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        P.render_report(sample_report(), fmt="xml")
    with pytest.raises(ValueError, match="unknown format"):
        P.render_sweep([], fmt="xml")


def test_render_sweep_text_and_csv():
    rows = [
        P.SweepRow(NmsParams(400, 200, 0.1), 12.5, "backbone", 0.5),
        P.SweepRow(NmsParams(1000, 500, 0.01), 3.25, "nms", 0.875),
    ]
    text = P.render_sweep(rows, fmt="text", model="m")
    assert "model: m" in text
    assert "(400,200,0.1)" in text and "(1000,500,0.01)" in text
    assert "87.5%" in text
    csv = P.render_sweep(rows, fmt="csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "max_input,max_output,conf_thresh,fps,bottleneck,share"
    assert lines[1] == "400,200,0.1,12.5,backbone,0.5"
    assert lines[2] == "1000,500,0.01,3.25,nms,0.875"
