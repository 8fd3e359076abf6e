"""Acceptance gate: nine system-level checks with pinned tolerances.

Each test prints exactly one `acceptance N/9: PASS/FAIL` line; the lines
are also registered with conftest so the block reappears in the terminal
summary, where capture cannot hide it.
"""

from contextlib import contextmanager
import math
import time

import numpy as np

from refinedet_edge import config as C
from refinedet_edge import evaluate as ev
from refinedet_edge import postprocess as pp
from refinedet_edge import profiler as P
from refinedet_edge.blocks import BACKBONE_NAMES, ConvUnit
from refinedet_edge.head import assemble_model, build_model, generate_anchors
from refinedet_edge.tensor_ops import ConvParams, conv2d, deconv2d

from conftest import ACCEPTANCE_LINES
from oracles import anchors_gold, conv2d_gold, deconv2d_gold, nms_gold


def _emit(line):
    print(line)
    ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(n, title):
    """Yield a detail list; print one verdict line no matter how we exit."""
    info = []
    try:
        yield info
    except BaseException as e:
        reason = str(e).splitlines()[0] if str(e) else type(e).__name__
        _emit(f"acceptance {n}/9: FAIL - {title} ({type(e).__name__}: {reason[:120]})")
        raise
    extra = f" ({'; '.join(info)})" if info else ""
    _emit(f"acceptance {n}/9: PASS - {title}{extra}")


# ---------------------------------------------------------------------------
# 1. greedy suppression equals a brute-force reference


def random_dets(rng, k, image=100.0):
    cx = rng.uniform(0, image, k)
    cy = rng.uniform(0, image, k)
    w = rng.uniform(2, image / 2, k)
    h = rng.uniform(2, image / 2, k)
    boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    return pp.DetectionSet(
        boxes.astype(np.float32),
        rng.random(k).astype(np.float32),
        rng.integers(1, 6, k).astype(np.int32),
    )


def test_01_nms_brute_force_equivalence():
    with criterion(1, "suppression indices and order match brute force") as info:
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        trials = 1000
        for trial in range(trials):
            dets = random_dets(rng, int(rng.integers(0, 51)))
            params = pp.NmsParams(
                max_input=int(rng.integers(1, 60)),
                max_output=int(rng.integers(1, 60)),
                conf_thresh=float(rng.choice([0.0, 0.05, 0.2, 0.5])),
            )
            iou_thresh = float(rng.choice([0.3, 0.45, 0.6]))
            scope = "per_class" if trial % 2 == 0 else "per_image"
            got = pp.nms_greedy(dets, iou_thresh, params, cap_scope=scope)
            want = nms_gold(dets.boxes, dets.scores, dets.class_ids, iou_thresh,
                            params.max_input, params.max_output,
                            params.conf_thresh, scope)
            np.testing.assert_array_equal(got.indices, np.asarray(want, np.int64))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{trials} comparisons took {elapsed:.1f} s (budget 10 s)"
        info.append(f"{trials} random sets in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. the parameter triple caps outputs and bounds the IoU workload


def test_02_nms_triple_semantics():
    with criterion(2, "triples cap outputs and order the IoU workload") as info:
        rng = np.random.default_rng(202)
        edge, full = pp.NmsParams(400, 200, 0.1), pp.NmsParams(1000, 500, 0.01)
        evals_edge = evals_full = 0
        for _ in range(100):
            n = 6375
            cx = rng.uniform(0, 320, n)
            cy = rng.uniform(0, 320, n)
            w = rng.uniform(20, 120, n)
            h = rng.uniform(20, 120, n)
            dets = pp.DetectionSet(
                np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], 1).astype(np.float32),
                rng.random(n).astype(np.float32),
                rng.integers(1, 21, n).astype(np.int32),
            )
            ca, cb = pp.NmsCounters(), pp.NmsCounters()
            out_edge = pp.nms_greedy(dets, 0.45, edge, counters=ca)
            out_full = pp.nms_greedy(dets, 0.45, full, counters=cb)
            assert len(out_edge) <= 200
            assert len(out_full) <= 500
            if len(out_edge):
                assert np.all(out_edge.scores.astype(np.float64) >= 0.1)
            if len(out_full):
                assert np.all(out_full.scores.astype(np.float64) >= 0.01)
            assert ca.iou_evals <= cb.iou_evals
            evals_edge += ca.iou_evals
            evals_full += cb.iou_evals
        info.append(f"IoU evals {evals_edge} vs {evals_full} over 100 sets")


# ---------------------------------------------------------------------------
# 3. convolution family vs naive oracles


def test_03_convolutions_match_oracles():
    with criterion(3, "conv/group/depthwise/deconv match naive oracles") as info:
        rng = np.random.default_rng(303)
        cases = 0
        for _ in range(80):  # standard
            cases += _run_conv_case(rng, groups=1)
        for _ in range(40):  # grouped
            cases += _run_conv_case(rng, groups=int(rng.choice([2, 4])))
        for _ in range(40):  # depthwise
            cases += _run_conv_case(rng, groups=None)
        for _ in range(40):  # transposed
            kh = int(rng.integers(2, 5))
            padding = int(rng.integers(0, min(kh - 1, 2)))
            n, c_in, c_out = 1, int(rng.integers(1, 4)), int(rng.integers(1, 4))
            hw = int(rng.integers(2, 6))
            x = rng.standard_normal((n, c_in, hw, hw)).astype(np.float32)
            wt = rng.standard_normal((c_in, c_out, kh, kh)).astype(np.float32)
            got = deconv2d(x, wt, ConvParams(kh, stride=2, padding=padding))
            gold = deconv2d_gold(x, wt, 2, padding)
            np.testing.assert_allclose(got, gold, rtol=1e-6, atol=1e-6)
            cases += 1
        assert cases == 200

        # slice equivalence: a grouped conv equals independent convs per slice
        x = rng.standard_normal((2, 4, 7, 7)).astype(np.float32)
        for g in (1, 2, 4):  # 4 == c_in
            wt = rng.standard_normal((8, 4 // g, 3, 3)).astype(np.float32)
            whole = conv2d(x, wt, None, ConvParams(3, padding=1, groups=g))
            parts = []
            for s in range(g):
                xs = x[:, s * (4 // g):(s + 1) * (4 // g)]
                ws = wt[s * (8 // g):(s + 1) * (8 // g)]
                parts.append(conv2d(xs, ws, None, ConvParams(3, padding=1)))
            np.testing.assert_allclose(whole, np.concatenate(parts, axis=1),
                                       rtol=1e-6, atol=1e-6)
        info.append("200 oracle cases at 1e-6; slices agree for g in {1,2,4}")


def _run_conv_case(rng, groups):
    if groups is None:  # depthwise: one group per input channel
        c_in = int(rng.integers(2, 7))
        groups = c_in
        c_out = c_in * int(rng.integers(1, 3))
    else:
        c_in = groups * int(rng.integers(1, 4))
        c_out = groups * int(rng.integers(1, 4))
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    h = int(rng.integers(max(kh, 3), 8))
    w = int(rng.integers(max(kw, 3), 8))
    x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
    wt = rng.standard_normal((c_out, c_in // groups, kh, kw)).astype(np.float32)
    b = rng.standard_normal(c_out).astype(np.float32) if rng.random() < 0.5 else None
    got = conv2d(x, wt, b, ConvParams((kh, kw), stride=stride, padding=padding, groups=groups))
    gold = conv2d_gold(x, wt, b, stride, padding, groups)
    np.testing.assert_allclose(got, gold, rtol=1e-6, atol=1e-6)
    return 1


# ---------------------------------------------------------------------------
# 4. parameter-count claims


def test_04_parameter_counts():
    with criterion(4, "656 vs 4608 closed forms; slim head is smaller everywhere") as info:
        depthwise = ConvUnit("dw", 16, 16, 3, groups=16).decls()[0].size
        pointwise = ConvUnit("pw", 16, 32, 1).decls()[0].size
        standard = ConvUnit("std", 16, 32, 3).decls()[0].size
        assert depthwise + pointwise == 656
        assert standard == 4608

        assert len(BACKBONE_NAMES) == 9
        for backbone in BACKBONE_NAMES:
            totals = {}
            for depth in (128, 256):
                spec = C.ModelSpec(name=f"probe-{backbone}-{depth}",
                                   backbone=backbone, head_depth=depth)
                totals[depth] = assemble_model(spec).param_count()
            assert totals[128] < totals[256], (backbone, totals)
        info.append("9 backbones ordered by head depth")


# ---------------------------------------------------------------------------
# 5. anchor counts and per-anchor array agreement


def test_05_pyramid_shape_contract():
    with criterion(5, "anchor grids exact; four output arrays agree on 50 fixtures") as info:
        strides, ratios = (8, 16, 32, 64), (0.5, 1.0, 2.0)
        for size in (320, 512):
            scales = tuple(4.0 * s for s in strides)
            grid = generate_anchors(size, strides, scales, ratios)
            gold = anchors_gold(size, strides, scales, ratios)
            by_arithmetic = len(ratios) * sum((size // s) ** 2 for s in strides)
            assert len(grid) == len(gold) == by_arithmetic
            np.testing.assert_allclose(grid.boxes, gold, rtol=0, atol=1e-4)
        assert len(generate_anchors(320)) == 6375
        assert len(generate_anchors(512)) == 16320

        rng = np.random.default_rng(505)
        images = {s: rng.random((1, 3, s, s), dtype=np.float32) for s in (320, 512)}
        for spec in C.fixture_specs():
            model = build_model(spec)
            raw = model.forward(images[spec.input_size])
            lengths = {raw.arm_obj.shape[1], raw.arm_deltas.shape[1],
                       raw.odm_cls.shape[1], raw.odm_deltas.shape[1]}
            assert lengths == {len(model.anchors)}, spec.name
        info.append("320->6375, 512->16320; 50/50 fixtures forward")


# ---------------------------------------------------------------------------
# 6. evaluator


def _gt(boxes, classes, ignore=None):
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    n = len(boxes)
    return ev.GroundTruth(boxes=boxes,
                          class_ids=np.asarray(classes, dtype=np.int64),
                          ignore=np.zeros(n, bool) if ignore is None else np.asarray(ignore, bool))


def _dets(boxes, scores, classes):
    return pp.DetectionSet(np.asarray(boxes, np.float32).reshape(-1, 4),
                           np.asarray(scores, np.float32),
                           np.asarray(classes, np.int32))


def _random_eval_case(rng):
    dets, gts = {}, {}
    for i in range(3):
        img = f"img-{i}"
        ng = int(rng.integers(1, 5))
        gb = np.stack([rng.uniform(0, 80, ng), rng.uniform(0, 80, ng)], 1)
        gb = np.concatenate([gb, gb + rng.uniform(5, 30, (ng, 2))], 1)
        ignore = rng.random(ng) < 0.2
        if i == 0:
            ignore[0] = False
        gts[img] = _gt(gb, rng.integers(1, 3, ng), ignore)
        nd = int(rng.integers(0, 8))
        db = np.zeros((nd, 4))
        for j in range(nd):
            if rng.random() < 0.6:  # jittered copy of a real object
                db[j] = gb[int(rng.integers(0, ng))] + rng.uniform(-3, 3, 4)
            else:
                xy = rng.uniform(0, 80, 2)
                db[j] = np.concatenate([xy, xy + rng.uniform(5, 30, 2)])
        dets[img] = _dets(db, rng.random(nd), rng.integers(1, 3, nd))
    return dets, gts


def test_06_evaluator():
    with criterion(6, "hand AP values exact; mean-of-thresholds; rescale-invariant") as info:
        box_a, box_b = [0, 0, 10, 10], [40, 40, 60, 60]
        perfect = ev.average_precision({"i": _dets([box_a, box_b], [0.9, 0.8], [1, 1])},
                                       {"i": _gt([box_a, box_b], [1, 1])})
        assert abs(perfect - 1.0) <= 1e-9
        empty = ev.average_precision({"i": pp.DetectionSet.empty()},
                                     {"i": _gt([box_a], [1])})
        assert abs(empty - 0.0) <= 1e-9
        mixed = ev.average_precision(
            {"i": _dets([box_a, [70, 70, 90, 95]], [0.9, 0.8], [1, 1])},
            {"i": _gt([box_a, box_b], [1, 1])})
        assert abs(mixed - 0.5) <= 1e-9

        rng = np.random.default_rng(606)
        dets, gts = _random_eval_case(rng)
        singles = [ev.average_precision(dets, gts, t) for t in ev.COCO_THRESHOLDS]
        result = ev.coco_map(dets, gts)
        assert abs(result.mean - np.mean(singles)) <= 1e-9
        for t, ap in zip(ev.COCO_THRESHOLDS, singles):
            assert abs(result.per_threshold[t] - ap) <= 1e-9

        for _ in range(100):
            dets, gts = _random_eval_case(rng)
            base = ev.coco_map(dets, gts)
            scaled = {img: pp.DetectionSet(d.boxes, d.scores * 0.5 + 0.25, d.class_ids)
                      for img, d in dets.items()}
            again = ev.coco_map(scaled, gts)
            assert abs(base.mean - again.mean) <= 1e-12
            for t in ev.COCO_THRESHOLDS:
                assert abs(base.per_threshold[t] - again.per_threshold[t]) <= 1e-12
        info.append("hand cases at 1e-9; 100 rescaled cases identical")


# ---------------------------------------------------------------------------
# 7. profiler fidelity


def _busy_wait_ms(ms):
    end = time.perf_counter_ns() + int(ms * 1e6)
    while time.perf_counter_ns() < end:
        pass


class DelayMock:
    input_size = 16
    model_id = "delay-mock"

    def __init__(self, delays_ms, slow_calls=0, slow_factor=1.0):
        self.delays_ms = dict(delays_ms)
        self.slow_calls = slow_calls
        self.slow_factor = slow_factor
        self.calls = 0
        self._dets = pp.DetectionSet(np.array([[1.0, 1.0, 2.0, 2.0]], np.float32),
                                     np.array([0.5], np.float32),
                                     np.array([1], np.int32))

    def infer(self, image, nms_params=None, timer=None):
        factor = self.slow_factor if self.calls < self.slow_calls else 1.0
        self.calls += 1
        timer = timer if timer is not None else P.StageTimer()
        for name, ms in self.delays_ms.items():
            with timer.span(name):
                _busy_wait_ms(ms * factor)
        return self._dets


def test_07_profiler_fidelity():
    with criterion(7, "stage means, warm-up exclusion, fps identity, normalization") as info:
        injected = {"backbone": 30.0, "nms": 20.0}
        report = P.benchmark(DelayMock(injected), runs=15, warmup=3)
        for name, ms in injected.items():
            got = report.stage(name).mean_ms
            assert abs(got - ms) <= 0.10 * ms, (name, got)
        assert report.fps == 1000.0 / report.stage("total").mean_ms

        # first 10 runs slowed 100x must not move the reported mean by 5%
        slow = P.benchmark(DelayMock({"backbone": 10.0}, slow_calls=10, slow_factor=100.0),
                           runs=13, warmup=10)
        drift = abs(slow.stage("backbone").mean_ms - 10.0) / 10.0
        assert drift < 0.05, f"warm-up leakage: {drift:.1%}"

        norm = P.normalize_fps([21.6, 18.8, 9.7])
        for got, want in zip(norm, (1.0, 0.8703, 0.4490)):
            assert abs(got - want) <= 1e-3
        info.append(f"drift {drift:.2%}; fps identity exact")


# ---------------------------------------------------------------------------
# 8. fixture configs round-trip and initialize correctly


def test_08_fixture_round_trip_and_init():
    with criterion(8, "50 fixtures round-trip and assemble; init sigma on target") as info:
        specs = C.fixture_specs()
        assert len(specs) == 50
        for spec in specs:
            assert C.parse(C.serialize(spec)) == spec
            model = assemble_model(spec)
            assert model.param_count() > 0

        spec = C.ModelSpec(name="sigma-probe", backbone="vgg16", head_depth=256)
        model = build_model(spec)
        # float64 sums per tensor, in two passes (the mean, then the squared
        # deviations), so no copy of all 34.9 M draws is made
        sample = [model.weights[d.name] for d in model.weight_manifest() if d.const is None]
        size = sum(t.size for t in sample)
        assert size >= 10**5
        mean = sum(float(t.sum(dtype=np.float64)) for t in sample) / size
        sigma = math.sqrt(sum(float(np.square(np.subtract(t, mean, dtype=np.float64)).sum())
                              for t in sample) / size)
        assert abs(sigma - 0.01) <= 0.02 * 0.01, sigma
        info.append(f"sigma {sigma:.6f} from {size} draws")


# ---------------------------------------------------------------------------
# 9. the suppression stage grows into the bottleneck as the budget rises


def test_09_nms_share_grows_with_budget():
    with criterion(9, "nms share of runtime strictly rises from (400,200,0.1) to (1000,500,0.01)") as info:
        spec = C.ModelSpec(name="toy", backbone="resnet18", input_size=64,
                           head_depth=128, width_multiplier=0.0625,
                           num_classes=80, seed=3)
        model = build_model(spec)
        shares = []
        for triple in (pp.NmsParams(400, 200, 0.1), pp.NmsParams(1000, 500, 0.01)):
            report = P.benchmark(model, runs=8, warmup=2, nms_params=triple)
            shares.append(report.stage("nms").mean_ms / report.stage("total").mean_ms)
        assert shares[1] > shares[0], shares
        info.append(f"share {shares[0]:.1%} -> {shares[1]:.1%}")
