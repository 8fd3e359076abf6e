"""Stage-wise latency measurement, reports, and NMS-parameter sweeps.

A benchmark reuses one seeded synthetic image for every run (so detections
are identical run to run), discards the leading warm-up runs, and reports
per-stage mean/std in milliseconds plus fps = 1000 / mean(total).  Stages are
timed with the monotonic perf counter inside non-overlapping spans.  The sum
of stage means is checked against the measured total and flagged when they
disagree by more than 2%.
"""

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
import json
import math
import os
import platform
import time

import numpy as np

STAGE_ORDER = ("backbone", "arm_head", "tcb", "odm_head", "decode", "arm_filter", "nms")
TIMING_NOTE = ("timed region covers the inference call only; input generation, "
               "warm-up runs, and report assembly are excluded")
SUM_CHECK_TOLERANCE = 0.02


class StageTimer:
    """Accumulates named span durations (ns) within one run."""

    def __init__(self):
        self._acc = {}

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._acc[name] = self._acc.get(name, 0) + time.perf_counter_ns() - t0

    def take(self):
        """Return accumulated durations and reset."""
        out = self._acc
        self._acc = {}
        return out


@dataclass(frozen=True)
class StageStat:
    name: str
    mean_ms: float
    std_ms: float
    samples: int


@dataclass
class ProfileReport:
    """One benchmark result; serializes losslessly to/from JSON."""

    model: str
    runs: int
    warmup: int
    stages: list
    fps: float
    environment: dict
    notes: list
    sum_check_ok: bool

    def stage(self, name):
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"report has no stage named {name!r}")

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"not a profile report: {e}") from None
        values = _typed_fields(payload, cls)
        values["stages"] = [StageStat(**_typed_fields(s, StageStat)) for s in values["stages"]]
        if not all(isinstance(n, str) for n in values["notes"]):
            raise ValueError("not a profile report: 'notes' holds a non-string")
        total = next((s for s in values["stages"] if s.name == "total"), None)
        if total is None:
            raise ValueError("not a profile report: no 'total' stage")
        runs, warmup, fps = values["runs"], values["warmup"], values["fps"]
        if not runs > warmup >= 0:
            raise ValueError(f"not a profile report: runs {runs} with warmup {warmup}; needs runs > warmup >= 0")
        for s in values["stages"]:
            if s.samples != runs - warmup or not (0 <= s.mean_ms < math.inf and 0 <= s.std_ms < math.inf):
                raise ValueError(f"not a profile report: stage {s.name!r} has {s.samples} samples, "
                                 f"mean_ms {s.mean_ms}, std_ms {s.std_ms}; needs {runs - warmup} "
                                 "samples and finite times >= 0")
        if not (total.mean_ms > 0 and 0 < fps < math.inf):
            raise ValueError(f"not a profile report: total mean_ms {total.mean_ms}, fps {fps}; "
                             "both must be finite and positive")
        return cls(**values)


def _typed_fields(record, cls):
    """`cls`'s fields from JSON object `record`, each of its declared type."""
    if not isinstance(record, dict):
        raise ValueError(f"not a profile report: a {cls.__name__} is {type(record).__name__}")
    for f in fields(cls):
        if f.name not in record:
            raise ValueError(f"not a profile report: missing field {f.name!r}")
        v = record[f.name]
        want = (int, float) if f.type is float else f.type
        if not isinstance(v, want) or isinstance(v, bool) != (f.type is bool):
            raise ValueError(f"not a profile report: {f.name!r} is {type(v).__name__}, not {f.type.__name__}")
    return {f.name: record[f.name] for f in fields(cls)}


def environment():
    """What kernel speed depends on besides the code: host, interpreter,
    numpy and its BLAS, CPU count and the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    env = {
        "host": platform.node() or "unknown",
        "clock": "perf_counter_ns",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def benchmark(model, runs=210, warmup=10, nms_params=None, seed=0):
    """Time `runs` single-image inference passes, discarding the first
    `warmup`.  The model must expose input_size and infer(image, nms_params=,
    timer=); anything satisfying that contract can be profiled."""
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if runs <= warmup:
        raise ValueError(f"runs ({runs}) must exceed warmup ({warmup})")
    size = model.input_size
    rng = np.random.default_rng(seed)
    image = rng.random((1, 3, size, size), dtype=np.float32)

    timer = StageTimer()
    rows = []
    reference = None
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        dets = model.infer(image, nms_params=nms_params, timer=timer)
        t1 = time.perf_counter_ns()
        row = timer.take()
        row["total"] = t1 - t0
        rows.append(row)
        if reference is None:
            reference = dets
        elif not (np.array_equal(reference.boxes, dets.boxes)
                  and np.array_equal(reference.scores, dets.scores)
                  and np.array_equal(reference.class_ids, dets.class_ids)):
            raise RuntimeError("detections changed between benchmark runs on a fixed input")

    measured = rows[warmup:]
    names = [s for s in STAGE_ORDER if any(s in r for r in rows)]
    extras = sorted({k for r in rows for k in r} - set(names) - {"total"})
    names += extras

    stats = []
    for name in names:
        vals = np.array([r.get(name, 0) for r in measured], dtype=np.float64) / 1e6
        stats.append(StageStat(name, float(vals.mean()), float(vals.std()), len(measured)))
    totals = np.array([r["total"] for r in measured], dtype=np.float64) / 1e6
    total_mean = float(totals.mean())
    stats.append(StageStat("total", total_mean, float(totals.std()), len(measured)))

    stage_sum = sum(s.mean_ms for s in stats[:-1])
    sum_check_ok = abs(stage_sum - total_mean) <= SUM_CHECK_TOLERANCE * total_mean
    notes = [TIMING_NOTE]
    if not sum_check_ok:
        notes.append(
            f"timing: stage means sum to {stage_sum:.3f} ms but total is "
            f"{total_mean:.3f} ms (>{SUM_CHECK_TOLERANCE:.0%} apart)"
        )

    return ProfileReport(
        model=getattr(model, "model_id", type(model).__name__),
        runs=runs,
        warmup=warmup,
        stages=stats,
        fps=1000.0 / total_mean,
        environment=environment(),
        notes=notes,
        sum_check_ok=sum_check_ok,
    )


def normalize_fps(values):
    """Scale a set of fps readings by the largest one (the fastest is 1.0)."""
    fps = [float(getattr(v, "fps", v)) for v in values]
    if not fps:
        raise ValueError("no fps values to normalize")
    if any(v <= 0 for v in fps):
        raise ValueError(f"fps values must be positive, got {fps}")
    top = max(fps)
    return [v / top for v in fps]


def bottleneck(report):
    """(stage name, fraction of total time) for the costliest stage.

    'total' is excluded; ties break toward the alphabetically first name.
    """
    total = report.stage("total").mean_ms
    if total <= 0:
        raise ValueError("report total time is not positive")
    candidates = [s for s in report.stages if s.name != "total"]
    if not candidates:
        raise ValueError("report has no stages besides total")
    best = sorted(candidates, key=lambda s: (-s.mean_ms, s.name))[0]
    return best.name, best.mean_ms / total


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    nms: object
    fps: float
    bottleneck_stage: str
    bottleneck_share: float
    report: ProfileReport = field(default=None, repr=False, compare=False)


def compare_sweep(model, triples, runs=210, warmup=10, seed=0):
    """Benchmark one bound model across NMS triples: one row per triple with
    its nms, fps, bottleneck stage and that stage's share of the total."""
    rows = []
    for triple in triples:
        report = benchmark(model, runs=runs, warmup=warmup, nms_params=triple, seed=seed)
        rows.append(SweepRow(triple, report.fps, *bottleneck(report), report))
    return rows


# ---------------------------------------------------------------------------
# rendering


def _fmt(value, pattern, strip):
    return "-" if strip else pattern.format(value)


def render_report(report, fmt="text", strip_timings=False):
    """Render a report for humans (text) or machines (csv).

    strip_timings blanks every timing-derived number (and drops timing
    notes), leaving a byte-stable skeleton for reproducibility diffs.
    """
    if fmt == "csv":
        lines = ["stage,mean_ms,std_ms,samples"]
        for s in report.stages:
            lines.append(
                f"{s.name},{_fmt(s.mean_ms, '{!r}', strip_timings)},"
                f"{_fmt(s.std_ms, '{!r}', strip_timings)},{s.samples}"
            )
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; expected 'text' or 'csv'")

    total = report.stage("total").mean_ms
    lines = [
        f"model: {report.model}",
        f"runs: {report.runs} (warmup {report.warmup} discarded; "
        f"{report.runs - report.warmup} samples per stage)",
        f"fps: {_fmt(report.fps, '{:.2f}', strip_timings)}",
        "environment: " + ", ".join(f"{k}={v}" for k, v in sorted(report.environment.items())),
        "",
        f"{'stage':<12} {'mean_ms':>10} {'std_ms':>9} {'share':>7}",
    ]
    for s in report.stages:
        share = s.mean_ms / total if total > 0 else 0.0
        lines.append(
            f"{s.name:<12} {_fmt(s.mean_ms, '{:.3f}', strip_timings):>10} "
            f"{_fmt(s.std_ms, '{:.3f}', strip_timings):>9} "
            f"{_fmt(share, '{:.1%}', strip_timings):>7}"
        )
    notes = [n for n in report.notes if not (strip_timings and n.startswith("timing:"))]
    if not report.sum_check_ok and not strip_timings:
        lines.append("")
        lines.append("WARNING: stage sum deviates from measured total by more than 2%")
    if notes:
        lines.append("")
        lines.extend(f"note: {n}" for n in notes)
    return "\n".join(lines) + "\n"


def render_sweep(rows, fmt="text", model=""):
    if fmt == "csv":
        lines = ["max_input,max_output,conf_thresh,fps,bottleneck,share"]
        for r in rows:
            lines.append(
                f"{r.nms.max_input},{r.nms.max_output},{r.nms.conf_thresh!r},"
                f"{r.fps!r},{r.bottleneck_stage},{r.bottleneck_share!r}"
            )
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; expected 'text' or 'csv'")
    lines = []
    if model:
        lines.append(f"model: {model}")
    lines.append(f"{'nms':<18} {'fps':>8} {'bottleneck':<12} {'share':>7}")
    for r in rows:
        lines.append(
            f"{r.nms.short():<18} {r.fps:>8.2f} {r.bottleneck_stage:<12} "
            f"{r.bottleneck_share:>7.1%}"
        )
    return "\n".join(lines) + "\n"
