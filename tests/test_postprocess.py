import re

import numpy as np
import pytest

from refinedet_edge import evaluate as ev
from refinedet_edge import postprocess as pp
from oracles import (
    apply_deltas_gold, decode_gold, iou_gold, nms_gold, nms_iou_evals_gold,
    pipeline_nonzero_route, softmax_gold,
)


def random_boxes(rng, k, size=320.0):
    xy = rng.random((k, 2)) * (size - 40.0)
    wh = rng.random((k, 2)) * 60.0 + 4.0
    return np.concatenate([xy, xy + wh], axis=1).astype(np.float32)


def random_dets(rng, k, n_classes=5, size=320.0):
    return pp.DetectionSet(
        random_boxes(rng, k, size),
        rng.random(k).astype(np.float32),
        rng.integers(1, n_classes + 1, size=k).astype(np.int32),
    )


# ---------------------------------------------------------------------------
# geometry


def iou(a, b):
    """IoU of one pair of corner boxes through `iou_matrix`."""
    return pp.iou_matrix(a, b)[0, 0]


def test_iou_matches_gold_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = random_boxes(rng, 1)[0]
        b = random_boxes(rng, 1)[0]
        np.testing.assert_allclose(iou(a, b), iou_gold(a, b), atol=1e-12)


def test_iou_hand_cases():
    a = [0, 0, 10, 10]
    assert iou(a, a) == 1.0
    assert iou(a, [10, 10, 20, 20]) == 0.0  # touching corners: zero area
    assert iou(a, [5, 0, 15, 10]) == pytest.approx(50.0 / 150.0)
    assert iou(a, [3, 3, 3, 9]) == 0.0  # degenerate: zero width
    assert iou([0, 0, 0, 0], [0, 0, 0, 0]) == 0.0


def test_iou_matrix_matches_pairwise():
    rng = np.random.default_rng(1)
    a = random_boxes(rng, 7)
    b = random_boxes(rng, 5)
    m = pp.iou_matrix(a, b)
    assert m.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert m[i, j] == pytest.approx(iou_gold(a[i], b[j]), abs=1e-12)


# ---------------------------------------------------------------------------
# delta coding


def test_apply_deltas_matches_gold():
    rng = np.random.default_rng(3)
    anchors = np.concatenate([rng.random((40, 2)) * 300, rng.random((40, 2)) * 50 + 5], axis=1)
    deltas = rng.standard_normal((40, 4))
    got = pp.apply_deltas(anchors, deltas)
    want = apply_deltas_gold(anchors, deltas, 0.1, 0.2)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_zero_deltas_are_identity():
    anchors = np.array([[50.0, 60.0, 20.0, 10.0]])
    out = pp.apply_deltas(anchors, np.zeros((1, 4)))
    np.testing.assert_allclose(out, anchors)


def test_decode_matches_gold_and_clips():
    rng = np.random.default_rng(4)
    anchors = np.concatenate([rng.random((30, 2)) * 320, rng.random((30, 2)) * 80 + 5], axis=1)
    deltas = rng.standard_normal((30, 4)) * 2.0
    got = pp.decode(anchors, deltas, image_size=320)
    want = decode_gold(anchors, deltas, 0.1, 0.2, image_size=320)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-3)
    assert got.min() >= 0.0 and got.max() <= 320.0
    unclipped = pp.decode(anchors, deltas)
    assert unclipped.min() < 0.0 or unclipped.max() > 320.0


def test_variance_semantics():
    # center variance scales the translation term; size variance the log-size term
    anchors = np.array([[100.0, 100.0, 40.0, 40.0]])
    deltas = np.array([[1.0, 0.0, 0.0, 0.0]])
    out_default = pp.apply_deltas(anchors, deltas)  # vc = 0.1
    assert out_default[0, 0] == pytest.approx(104.0)
    d_size = np.array([[0.0, 0.0, 1.0, 0.0]])
    out_size = pp.apply_deltas(anchors, d_size)  # vs = 0.2
    assert out_size[0, 2] == pytest.approx(40.0 * np.exp(0.2))


def test_apply_deltas_validations():
    anchors = np.array([[10.0, 10.0, 5.0, 5.0]])
    with pytest.raises(ValueError, match="non-finite delta at row 0"):
        pp.apply_deltas(anchors, np.array([[np.nan, 0, 0, 0]]))
    with pytest.raises(ValueError, match="non-positive size"):
        pp.apply_deltas(np.array([[10.0, 10.0, 0.0, 5.0]]), np.zeros((1, 4)))


@pytest.mark.parametrize("cols", [2, 81])  # objectness and class logits
def test_softmax_bytes_equal_the_three_temporary_formula(cols):
    rng = np.random.default_rng(25)
    cases = [rng.normal(0.0, s, (6375, cols)).astype(np.float32) for s in (0.01, 1.0, 30.0)]
    extreme = rng.choice([-3.4e38, -1e4, -700.0, 0.0, 1e-30, 700.0, 1e4, 3.4e38], size=(64, cols))
    cases += [extreme, extreme.astype(np.float32)]
    for x in cases:
        before = x.copy()
        assert pp.softmax(x, axis=1).tobytes() == softmax_gold(x, axis=1).tobytes()
        assert np.array_equal(x, before)  # the float64 input is copied, not overwritten


def test_softmax_rows_sum_to_one_and_handle_extremes():
    logits = np.array([[1000.0, 1000.0, 999.0], [-1000.0, 0.0, 1000.0]])
    probs = pp.softmax(logits, axis=1)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)
    assert np.all(np.isfinite(probs))
    assert probs[1, 2] == pytest.approx(1.0)


def test_arm_filter_threshold_semantics():
    probs = np.array([0.5, 0.99, 0.991, 1.0, 0.0])
    kept = pp.arm_filter(probs, neg_thresh=0.99)
    # strictly-above-threshold background is removed; exactly-at stays
    np.testing.assert_array_equal(kept, [0, 1, 4])
    with pytest.raises(ValueError, match="neg_thresh"):
        pp.arm_filter(probs, neg_thresh=1.0)


# ---------------------------------------------------------------------------
# NMS vs the brute-force oracle


def run_both(dets, iou_thresh, params, cap_scope):
    """nms_greedy against nms_gold (indices, order) and against
    nms_iou_evals_gold (the counters); counting leaves the result alone."""
    counters = pp.NmsCounters()
    got = pp.nms_greedy(dets, iou_thresh, params, counters=counters, cap_scope=cap_scope)
    want = nms_gold(dets.boxes, dets.scores, dets.class_ids, iou_thresh,
                    params.max_input, params.max_output, params.conf_thresh, cap_scope)
    np.testing.assert_array_equal(got.indices, np.asarray(want, np.int64))
    evals, per_class = nms_iou_evals_gold(dets.boxes, dets.scores, dets.class_ids, iou_thresh,
                                          params.max_input, params.conf_thresh, cap_scope,
                                          params.max_output)
    assert counters.iou_evals == evals
    assert counters.candidates_per_class == per_class
    uncounted = pp.nms_greedy(dets, iou_thresh, params, cap_scope=cap_scope)
    np.testing.assert_array_equal(uncounted.indices, got.indices)
    return got


def test_nms_matches_gold_randomized_both_scopes():
    rng = np.random.default_rng(6)
    for trial in range(60):
        k = int(rng.integers(0, 120))
        dets = random_dets(rng, k)
        params = pp.NmsParams(
            max_input=int(rng.integers(1, 50)),
            max_output=int(rng.integers(1, 40)),
            conf_thresh=float(rng.random() * 0.6),
        )
        thresh = float(rng.random() * 0.8)
        for scope in pp.CAP_SCOPES:
            run_both(dets, thresh, params, scope)


def test_nms_duplicate_boxes_collapse_to_lowest_index():
    boxes = np.tile(np.array([[10.0, 10.0, 50.0, 50.0]], np.float32), (4, 1))
    dets = pp.DetectionSet(boxes, np.full(4, 0.7, np.float32), np.ones(4, np.int32))
    out = pp.nms_greedy(dets, 0.45, pp.NmsParams(10, 10, 0.1))
    assert list(out.indices) == [0]  # equal scores: the earliest candidate wins


def test_nms_iou_threshold_is_strict():
    # two boxes at IoU exactly 0.45: "strictly above" means both survive
    a = np.array([0.0, 0.0, 100.0, 45.0])
    b = np.array([0.0, 0.0, 100.0, 55.0])
    assert iou(a, b) == pytest.approx(45.0 / 55.0)
    boxes = np.stack([np.array([0, 0, 100, 45.0]), np.array([0, 0, 100, 100.0])])
    # iou = 45/100 = 0.45 exactly
    dets = pp.DetectionSet(boxes.astype(np.float32),
                           np.array([0.9, 0.8], np.float32),
                           np.array([1, 1], np.int32))
    out = pp.nms_greedy(dets, 0.45, pp.NmsParams(10, 10, 0.0))
    assert len(out) == 2


def test_nms_conf_threshold_is_inclusive():
    dets = pp.DetectionSet(
        random_boxes(np.random.default_rng(7), 3),
        np.array([0.1, 0.0999, 0.5], np.float32),
        np.array([1, 1, 2], np.int32),
    )
    out = pp.nms_greedy(dets, 0.45, pp.NmsParams(10, 10, 0.1))
    assert set(out.indices.tolist()) <= {0, 2}
    assert 1 not in out.indices


def test_nms_cap_scope_changes_results():
    # 30 class-1 boxes spread apart + 1 strong class-2 box; max_input 10.
    rng = np.random.default_rng(8)
    boxes = np.zeros((31, 4), np.float32)
    for i in range(30):
        boxes[i] = (i * 50, 0, i * 50 + 40, 40)  # disjoint: nothing suppressed
    boxes[30] = (0, 100, 40, 140)
    scores = np.concatenate([np.linspace(0.9, 0.3, 30), [0.95]]).astype(np.float32)
    classes = np.array([1] * 30 + [2], np.int32)
    dets = pp.DetectionSet(boxes, scores, classes)
    params = pp.NmsParams(10, 40, 0.1)
    per_class = pp.nms_greedy(dets, 0.45, params, cap_scope="per_class")
    per_image = pp.nms_greedy(dets, 0.45, params, cap_scope="per_image")
    assert len(per_class) == 11  # 10 class-1 survivors + the class-2 box
    assert len(per_image) == 10  # one shared budget
    run_both(dets, 0.45, params, "per_class")
    run_both(dets, 0.45, params, "per_image")


def test_nms_max_output_truncates_merged_ranking():
    rng = np.random.default_rng(9)
    dets = random_dets(rng, 80)
    out = pp.nms_greedy(dets, 0.45, pp.NmsParams(100, 5, 0.0))
    assert len(out) == 5
    scores = out.scores.astype(np.float64)
    assert all(scores[i] >= scores[i + 1] for i in range(4))  # merged list is ranked


def test_nms_counters():
    rng = np.random.default_rng(10)
    dets = random_dets(rng, 50, n_classes=3)
    counters = pp.NmsCounters()
    pp.nms_greedy(dets, 0.45, pp.NmsParams(400, 200, 0.0), counters=counters)
    per_class = {int(c): int((dets.class_ids == c).sum()) for c in np.unique(dets.class_ids)}
    assert counters.candidates_per_class == per_class  # conf 0: everything enters
    max_pairs = sum(n * (n - 1) // 2 for n in per_class.values())
    assert 0 < counters.iou_evals <= max_pairs
    evals, _ = nms_iou_evals_gold(dets.boxes, dets.scores, dets.class_ids, 0.45, 400, 0.0)
    assert counters.iou_evals == evals


T = pp.NMS_TILE
TILE_SIZES = (1, T - 1, T, T + 1, 2 * T + 1)  # members per class


def class_blocks(rng, sizes, canvas=160.0):
    """One class per size, boxes crowded onto a small canvas so kept boxes
    remove members of later tiles."""
    k = sum(sizes)
    xy = rng.random((k, 2)) * canvas
    wh = rng.random((k, 2)) * 50.0 + 10.0
    classes = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return pp.DetectionSet(np.concatenate([xy, xy + wh], axis=1), rng.random(k),
                           rng.permutation(classes))


@pytest.mark.parametrize("scope", pp.CAP_SCOPES)
@pytest.mark.parametrize("iou_thresh", [0.0, 0.3, 0.45, 0.7])
def test_nms_tile_boundaries_match_gold(scope, iou_thresh):
    dets = class_blocks(np.random.default_rng(13), TILE_SIZES)
    n = len(dets)
    run_both(dets, iou_thresh, pp.NmsParams(n, n, 0.0), scope)
    # caps that bind: at a tile edge per class, mid-pool per image
    run_both(dets, iou_thresh, pp.NmsParams(T, n, 0.0), scope)
    run_both(dets, iou_thresh, pp.NmsParams(n // 2 + 1, 40, 0.2), scope)


@pytest.mark.parametrize("scope", pp.CAP_SCOPES)
def test_nms_dense_cluster_kills_cross_tiles(scope):
    # 1000 same-class boxes on a 320 canvas: kept boxes in early tiles
    # remove members many tiles later, and more than two tiles' worth survive
    rng = np.random.default_rng(14)
    xy = rng.random((1000, 2)) * 280.0
    wh = rng.random((1000, 2)) * 60.0 + 30.0
    dets = pp.DetectionSet(np.concatenate([xy, xy + wh], axis=1), rng.random(1000),
                           np.ones(1000, np.int32))
    got = run_both(dets, 0.45, pp.NmsParams(1000, 1000, 0.0), scope)
    assert 2 * T < len(got) < 1000


def test_nms_duplicate_scores_break_ties_by_id():
    # four score levels and repeated boxes across tile edges: only the id
    # decides the order among equals
    rng = np.random.default_rng(15)
    dets = class_blocks(rng, TILE_SIZES, canvas=60.0)
    dets.scores = (rng.integers(1, 5, len(dets)) / 4).astype(np.float32)
    dets.boxes[1::3] = dets.boxes[0::3][: len(dets.boxes[1::3])]
    for scope in pp.CAP_SCOPES:
        run_both(dets, 0.45, pp.NmsParams(len(dets), len(dets), 0.0), scope)
        run_both(dets, 0.45, pp.NmsParams(T + 1, 100, 0.3), scope)


def test_nms_zero_area_boxes_never_suppress():
    # a box of zero width or height has IoU 0 with every box (union 0 with
    # a zero-area twin), so it is never removed
    rng = np.random.default_rng(16)
    dets = class_blocks(rng, (2 * T + 1,), canvas=40.0)
    ids = np.arange(len(dets))
    flat = ids % 3 == 0
    dets.boxes[flat, 2] = dets.boxes[flat, 0]
    dets.boxes[ids % 6 == 0, 3] = dets.boxes[ids % 6 == 0, 1]  # some are points
    dets.boxes[len(dets) // 2] = dets.boxes[0]  # an identical zero-area pair
    for thresh in (0.0, 0.45):
        for scope in pp.CAP_SCOPES:
            got = run_both(dets, thresh, pp.NmsParams(len(dets), len(dets), 0.0), scope)
            assert set(np.flatnonzero(flat)) <= set(got.indices.tolist())


@pytest.mark.parametrize("iou_thresh", [0.6, 0.5, 1 / 3, 0.2])
def test_nms_grid_boxes_at_exact_threshold(iou_thresh):
    # integer boxes on a grid of 5 with widths 10 and 20: many pairs have IoU
    # exactly 3/5, 1/2, 1/3 or 1/5, which is not above the threshold
    k = 2 * T + 1
    x0 = (np.arange(k) % 13) * 5.0
    w = np.where(np.arange(k) % 3 == 0, 10.0, 20.0)
    y0 = (np.arange(k) // 13) * 40.0
    boxes = np.stack([x0, y0, x0 + w, y0 + 10.0], axis=1)
    exact = pp.iou_matrix(boxes, boxes)[np.tril_indices(k, -1)] == iou_thresh
    assert exact.any()
    dets = pp.DetectionSet(boxes, np.linspace(0.9, 0.1, k), np.ones(k, np.int32))
    for scope in pp.CAP_SCOPES:
        run_both(dets, iou_thresh, pp.NmsParams(k, k, 0.0), scope)


# ---------------------------------------------------------------------------
# early exit: suppression stops at a merged-order prefix holding max_output
# kept boxes


def count_passes(monkeypatch):
    """Record the prefix size of every suppression pass nms_greedy makes."""
    sizes = []
    suppress = pp._suppress_prefix

    def spy(dets, mask, *args):
        sizes.append(int(np.count_nonzero(mask)))
        return suppress(dets, mask, *args)

    monkeypatch.setattr(pp, "_suppress_prefix", spy)
    return sizes


def test_nms_prefix_grows_past_duplicates(monkeypatch):
    # the 300 strongest boxes are copies of one box per class: the first
    # prefix keeps one box per class, so it must grow to reach max_output
    rng = np.random.default_rng(17)
    dets = random_dets(rng, 600, n_classes=2)
    top = np.argsort(-dets.scores)[:300]
    dets.boxes[top] = np.where(dets.class_ids[top, None] == 1, dets.boxes[0], dets.boxes[1])
    sizes = count_passes(monkeypatch)
    for scope in pp.CAP_SCOPES:
        sizes.clear()
        params = pp.NmsParams(600, 10, 0.0)
        got = run_both(dets, 0.45, params, scope)
        assert len(got) == 10
        assert sizes == [80, 320] * 2  # run_both calls nms_greedy twice


def test_nms_equal_scores_straddle_prefix_boundary(monkeypatch):
    # three score levels over ids in shuffled order: every prefix boundary
    # cuts through a run of equal scores, which only the id orders
    rng = np.random.default_rng(18)
    dets = random_dets(rng, 240, n_classes=3, size=120.0)
    dets.scores = rng.choice(np.array([0.25, 0.5, 0.75], np.float32), len(dets))
    sizes = count_passes(monkeypatch)
    for max_output in (1, 2, 3, 5, 8, 13):
        for scope in pp.CAP_SCOPES:
            run_both(dets, 0.45, pp.NmsParams(240, max_output, 0.3), scope)
    assert min(sizes) < 240


def test_nms_per_image_cap_binds_with_early_exit(monkeypatch):
    rng = np.random.default_rng(19)
    dets = random_dets(rng, 300, n_classes=3)
    sizes = count_passes(monkeypatch)
    for max_output in (1, 4, 20, 200):
        run_both(dets, 0.45, pp.NmsParams(100, max_output, 0.1), "per_image")
    assert max(sizes) == 100 and min(sizes) < 100


def test_nms_per_class_cap_binds_inside_prefix(monkeypatch):
    # class 1 holds the 100 strongest boxes; its cap of 10 binds inside the
    # first prefix, so later classes fill the output
    rng = np.random.default_rng(20)
    dets = random_dets(rng, 400, n_classes=4)
    dets.class_ids[np.argsort(-dets.scores)[:100]] = 1
    sizes = count_passes(monkeypatch)
    got = run_both(dets, 0.45, pp.NmsParams(10, 30, 0.0), "per_class")
    assert sizes == [240] * 2
    assert np.count_nonzero(got.class_ids == 1) <= 10


def test_nms_max_output_one():
    rng = np.random.default_rng(21)
    for trial in range(10):
        dets = random_dets(rng, 150, n_classes=4)
        for scope in pp.CAP_SCOPES:
            got = run_both(dets, 0.45, pp.NmsParams(50, 1, 0.2), scope)
            assert len(got) == 1


def test_nms_max_output_past_total_kept_counts_every_member():
    # when max_output does not bind, the truncated count is the full one
    rng = np.random.default_rng(22)
    dets = class_blocks(rng, TILE_SIZES)
    for scope in pp.CAP_SCOPES:
        params = pp.NmsParams(len(dets), len(dets), 0.0)
        got = run_both(dets, 0.45, params, scope)
        assert len(got) < len(dets)
        counters = pp.NmsCounters()
        pp.nms_greedy(dets, 0.45, params, counters=counters, cap_scope=scope)
        full, _ = nms_iou_evals_gold(dets.boxes, dets.scores, dets.class_ids, 0.45,
                                     params.max_input, params.conf_thresh, scope)
        assert counters.iou_evals == full


def server_pool():
    """The server budget's shape: 6375 anchors x 80 classes, every class
    probability above conf_thresh 0.01."""
    rng = np.random.default_rng(23)
    n, c = 6375, 80
    xy = rng.random((n, 2)) * 280.0
    wh = rng.random((n, 2)) * 60.0 + 10.0
    boxes = np.repeat(np.concatenate([xy, xy + wh], axis=1), c, axis=0)
    scores = rng.uniform(0.012, 0.0127, n * c).astype(np.float32)
    return pp.DetectionSet(boxes, scores, np.tile(np.arange(1, c + 1, dtype=np.int32), n))


def test_nms_memory_stays_below_a_float64_pool_copy():
    # 510 000 candidates: one float64 copy of their scores is 3.9 MiB.
    # nms_greedy peaked at 8.8 MiB before the early exit and at 3.4 MiB after.
    import tracemalloc

    dets = server_pool()
    tracemalloc.start()
    try:
        got = pp.nms_greedy(dets, 0.45, pp.NmsParams(1000, 500, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 500
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_nms_empty_input():
    out = pp.nms_greedy(pp.DetectionSet.empty(), 0.45, pp.NmsParams())
    assert len(out) == 0


def test_nms_params_validation():
    with pytest.raises(ValueError, match="max_input"):
        pp.NmsParams(0, 10, 0.1)
    with pytest.raises(ValueError, match="conf_thresh"):
        pp.NmsParams(10, 10, 1.0)
    assert pp.NmsParams(400, 200, 0.1).short() == "(400,200,0.1)"


@pytest.mark.parametrize("args, message", [
    ((400.0, 200, 0.1), "max_input must be an integer, got 400.0"),
    ((400, 2.5, 0.1), "max_output must be an integer, got 2.5"),
    ((np.float64(10), 10, 0.1), "max_input must be an integer, got 10.0"),
    (("400", 200, 0.1), "max_input must be an integer, got 400"),
    ((True, 200, 0.1), "max_input must be an integer, got True"),
    ((400, False, 0.1), "max_output must be an integer, got False"),
])
def test_nms_params_refuses_non_integer_budgets(args, message):
    # a float budget would fail later, as a slice index in nms_greedy
    with pytest.raises(ValueError, match=re.escape(message)):
        pp.NmsParams(*args)


def test_nms_params_takes_numpy_integers():
    params = pp.NmsParams(np.int64(10), np.int32(5), 0.1)
    dets = pp.DetectionSet(np.array([[0, 0, 1, 1]], np.float32), np.array([0.5], np.float32),
                           np.array([1], np.int32))
    assert len(pp.nms_greedy(dets, 0.45, params)) == 1


# ---------------------------------------------------------------------------
# the pipeline


def build_pipeline_case(n_anchors=40, n_classes=3, seed=11):
    """Anchors + logits crafted so a handful of known detections emerge."""
    rng = np.random.default_rng(seed)
    anchors = np.concatenate([
        rng.random((n_anchors, 2)) * 280 + 20,
        rng.random((n_anchors, 2)) * 40 + 10,
    ], axis=1)
    arm_obj = np.zeros((n_anchors, 2))
    arm_obj[:, 0] = 8.0  # everything confidently background...
    hot = [3, 17, 29]
    for a in hot:
        arm_obj[a] = (0.0, 5.0)  # ...except three anchors
    arm_deltas = np.zeros((n_anchors, 4))
    odm_cls = np.zeros((n_anchors, n_classes + 1))
    for a, cls in zip(hot, (1, 2, 3)):
        odm_cls[a, cls] = 9.0
    odm_deltas = np.zeros((n_anchors, 4))
    return anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot


def test_pipeline_end_to_end_known_answers():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = build_pipeline_case()
    out = pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                      pp.NmsParams(400, 200, 0.1), image_size=320)
    # softmax(8,0) background ~ 0.99966 > 0.99 -> filtered; hot anchors survive
    assert sorted(out.indices.tolist()) == sorted(hot)
    assert sorted(out.class_ids.tolist()) == [1, 2, 3]
    # zero deltas: boxes are the anchors themselves in corner form, clipped
    want = np.clip(pp.to_corners(anchors[sorted(out.indices.tolist())]), 0, 320)
    got = out.boxes[np.argsort(out.indices)]
    np.testing.assert_allclose(got, want, atol=1e-3)


def test_pipeline_arm_filter_blocks_everything_when_confident_background():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, _ = build_pipeline_case()
    arm_obj[:, :] = 0.0
    arm_obj[:, 0] = 20.0  # background prob ~ 1 everywhere
    out = pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                      pp.NmsParams(400, 200, 0.1), image_size=320)
    assert len(out) == 0


def test_pipeline_rejects_non_finite_logits():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = build_pipeline_case()
    odm_cls[hot[1], 2] = np.inf
    with pytest.raises(ValueError, match="class logits have 1 non-finite values"):
        pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                    pp.NmsParams(400, 200, 0.1), image_size=320)
    odm_cls[hot[1], 2] = 0.0
    arm_obj[:5, 1] = np.nan  # background anchors: arm_filter would drop them
    with pytest.raises(ValueError, match="objectness logits have 5 non-finite values"):
        pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                    pp.NmsParams(400, 200, 0.1), image_size=320)


@pytest.mark.parametrize("sizes, shown", [((0.0, 5000.0), "inf"), ((-5000.0, 0.0), r"\[ ?0\. ")],
                         ids=["overflow", "underflow"])
def test_pipeline_refuses_a_refined_prior_without_a_finite_positive_size(sizes, shown):
    # exp(0.2 * 5000) overflows to inf, where decode would compute 0 * inf
    # and return NaN boxes; exp(-1000) underflows to a zero width
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = build_pipeline_case()
    arm_deltas[hot[1], 2:] = sizes
    message = rf"anchor {hot[1]}: ARM size deltas \[.*\] refine its prior to size .*{shown}"
    with pytest.raises(ValueError, match=message):
        pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                    pp.NmsParams(400, 200, 0.1), image_size=320)


def test_pipeline_arm_deltas_refine_before_decode():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = build_pipeline_case()
    arm_deltas[hot[0]] = (1.0, 0.0, 0.0, 0.0)  # shift the refined prior right
    out = pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                      pp.NmsParams(400, 200, 0.1), image_size=320)
    row = out.indices.tolist().index(hot[0])
    a = anchors[hot[0]]
    shifted_cx = a[0] + 0.1 * a[2]  # vc * w
    got_cx = (out.boxes[row, 0] + out.boxes[row, 2]) / 2
    assert got_cx == pytest.approx(shifted_cx, abs=1e-3)


def test_pipeline_counters_and_scope_plumbing():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, _ = build_pipeline_case()
    counters = pp.NmsCounters()
    pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors,
                pp.NmsParams(400, 200, 0.1), image_size=320, counters=counters)
    assert sum(counters.candidates_per_class.values()) == 3


def test_pipeline_rejects_bad_shapes():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, _ = build_pipeline_case()
    with pytest.raises(ValueError, match="objectness must be"):
        pp.pipeline(arm_obj[:, :1], arm_deltas, odm_cls, odm_deltas, anchors,
                    pp.NmsParams(), image_size=320)
    with pytest.raises(ValueError, match="objectness rows"):
        pp.pipeline(arm_obj[:10], arm_deltas, odm_cls, odm_deltas, anchors,
                    pp.NmsParams(), image_size=320)
    bad = {
        # three extra rows used to pair logits with the wrong anchors
        "class logits must be \\(40 anchors, >= 2\\), got \\(43, 4\\)":
            (arm_deltas, np.concatenate([odm_cls, odm_cls[:3]]), odm_deltas),
        # background alone used to return no detections and raise nothing
        "class logits must be .*got \\(40, 1\\)": (arm_deltas, odm_cls[:, :1], odm_deltas),
        "class logits must be .*got \\(39, 4\\)": (arm_deltas, odm_cls[:-1], odm_deltas),
        "class logits must be .*got \\(160,\\)": (arm_deltas, odm_cls.reshape(-1), odm_deltas),
        "odm_deltas must be \\(40 anchors, 4\\), got \\(39, 4\\)": (arm_deltas, odm_cls, odm_deltas[:-1]),
        "arm_deltas must be .*got \\(40, 3\\)": (arm_deltas[:, :3], odm_cls, odm_deltas),
        "arm_deltas must be .*got \\(160,\\)": (arm_deltas.reshape(-1), odm_cls, odm_deltas),
    }
    for message, (a_deltas, cls, o_deltas) in bad.items():
        with pytest.raises(ValueError, match=message):
            pp.pipeline(arm_obj, a_deltas, cls, o_deltas, anchors, pp.NmsParams(), image_size=320)


def assert_matches_nonzero_route(case, params, scope):
    """The pipeline against the route that lists every candidate as a
    DetectionSet row: equal detections, column by column, and equal
    counters.  Returns the pipeline's detections and counters."""
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas = case
    want_counters, got_counters = pp.NmsCounters(), pp.NmsCounters()
    want = pipeline_nonzero_route(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, params,
                                  iou_thresh=pp.DEFAULT_IOU_THRESH,
                                  neg_thresh=pp.DEFAULT_NEG_THRESH, cap_scope=scope,
                                  image_size=320, counters=want_counters)
    got = pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, params,
                      cap_scope=scope, image_size=320, counters=got_counters)
    for column in ("indices", "boxes", "scores", "class_ids"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b, err_msg=column)
    assert got_counters.iou_evals == want_counters.iou_evals
    assert got_counters.candidates_per_class == want_counters.candidates_per_class
    return got, got_counters


@pytest.fixture(scope="module")
def signal_predictions():
    """Predictions of the benchmark's thin vgg16-320 (80 classes) under
    He-scaled weights, where tens of thousands of candidates pass both
    budgets' conf_thresh."""
    from refinedet_edge.config import ModelSpec
    from refinedet_edge.head import assemble_model
    from test_head import _signal_bundle

    model = assemble_model(ModelSpec(backbone="vgg16", head_depth=256, width_multiplier=0.0625,
                                     num_classes=80))
    model.bind(_signal_bundle(model, 3))
    raw = model.forward(np.random.default_rng(7).random((1, 3, 320, 320), dtype=np.float32))
    return model.anchors.boxes, raw.arm_obj[0], raw.arm_deltas[0], raw.odm_cls[0], raw.odm_deltas[0]


@pytest.mark.parametrize("scope", pp.CAP_SCOPES)
@pytest.mark.parametrize("triple", [(400, 200, 0.1), (1000, 500, 0.01)], ids=["edge", "server"])
def test_pipeline_matches_nonzero_route_under_signal_weights(signal_predictions, triple, scope):
    got, _ = assert_matches_nonzero_route(signal_predictions, pp.NmsParams(*triple), scope)
    assert len(got) == triple[1]


def test_pipeline_equal_probabilities_straddle_prefix_boundary(monkeypatch):
    # every anchor has the same class logits, so three classes share the
    # largest probability: 900 equal candidates in different anchors and
    # classes, through which each first prefix (8 x max_output) cuts
    rng = np.random.default_rng(24)
    n = 300
    anchors = np.concatenate([rng.random((n, 2)) * 200 + 40, rng.random((n, 2)) * 60 + 10], axis=1)
    arm_obj = np.tile([0.0, 5.0], (n, 1))
    odm_cls = np.tile([0.0, 2.0, 1.0, 2.0, 1.0, 2.0], (n, 1))
    zeros = np.zeros((n, 4))
    sizes = count_passes(monkeypatch)
    for max_output in (1, 5, 40, 200):
        for scope in pp.CAP_SCOPES:
            assert_matches_nonzero_route((anchors, arm_obj, zeros, odm_cls, zeros),
                                         pp.NmsParams(200, max_output, 0.05), scope)
    assert 0 < min(sizes) < 3 * n


def test_pipeline_drops_a_float32_threshold_probability_below_conf_thresh(monkeypatch):
    # float32(0.7) is below 0.7: a float32 test lists a probability that
    # rounds to it, the float64 pool test leaves it out
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = build_pipeline_case()
    odm_cls[hot[1]] = (0.0, -50.0, np.log(7 / 3), -50.0)
    assert softmax_gold(odm_cls[hot[1]])[2] == np.float32(0.7)
    assert float(np.float32(0.7)) < 0.7
    lengths = []
    nms_greedy = pp.nms_greedy
    monkeypatch.setattr(pp, "nms_greedy", lambda dets, *args, **kwargs:
                        lengths.append(len(dets)) or nms_greedy(dets, *args, **kwargs))
    for scope in pp.CAP_SCOPES:
        got, _ = assert_matches_nonzero_route((anchors, arm_obj, arm_deltas, odm_cls, odm_deltas),
                                           pp.NmsParams(400, 200, 0.7), scope)
        assert sorted(got.indices.tolist()) == [hot[0], hot[2]]
    # the listed set holds 3 rows; the pipeline's candidates count 2
    assert lengths == [3, 2] * 2


# ---------------------------------------------------------------------------
# the bound that decides which anchors are scored


def kept_rows(arm_obj):
    return pp.arm_filter(softmax_gold(arm_obj, axis=1)[:, 0], pp.DEFAULT_NEG_THRESH)


def bound_case(rng, odm_cls):
    """Anchors, ARM outputs that keep about nine in ten of them, small
    deltas, and the given class logits."""
    n = len(odm_cls)
    anchors = np.concatenate([rng.random((n, 2)) * 240 + 40, rng.random((n, 2)) * 50 + 8], axis=1)
    arm_obj = np.stack([np.zeros(n), rng.normal(-2.0, 2.0, n)], axis=1).astype(np.float32)
    arm_deltas = rng.normal(0.0, 0.2, (n, 4)).astype(np.float32)
    odm_deltas = rng.normal(0.0, 0.2, (n, 4)).astype(np.float32)
    return anchors, arm_obj, arm_deltas, odm_cls, odm_deltas


NARROW = 120  # the first rows of `bound_logits`


def bound_logits(rng, n_classes):
    """Class logits of NARROW narrow rows, then wide and extreme ones:
    spreads of 0.01 and 3, and rows of +-1e4 whose exp(low - top)
    underflows to 0."""
    cols = n_classes + 1
    narrow = rng.normal(0.0, 0.01, (NARROW, cols))
    wide = rng.normal(0.0, 3.0, (120, cols))
    extreme = rng.choice([-1e4, 0.0], size=(40, cols))
    extreme[np.arange(40), rng.integers(0, cols, 40)] = 1e4
    extreme[np.arange(0, 40, 2), rng.integers(0, cols, 20)] = 1e4  # ties at the top
    return np.concatenate([narrow, wide, extreme]).astype(np.float32)


@pytest.mark.parametrize("n_classes", [4, 80])
@pytest.mark.parametrize("conf", [0.0, 0.01, 0.1, 0.5, 0.99])
def test_pipeline_bound_keeps_the_nonzero_route_answers(n_classes, conf):
    rng = np.random.default_rng([27, n_classes, int(conf * 100)])
    case = bound_case(rng, bound_logits(rng, n_classes))
    kept = kept_rows(case[1])
    # kept anchors with a foreground probability at conf_thresh or above
    reaching = np.count_nonzero(
        (softmax_gold(case[3][kept], axis=1)[:, 1:].astype(np.float64) >= conf).any(axis=1))
    for scope in pp.CAP_SCOPES:
        got, counters = assert_matches_nonzero_route(case, pp.NmsParams(400, 200, conf), scope)
        assert len(got) > 0
        assert reaching <= counters.scored_rows <= len(kept)
        if conf == 0.0:
            assert counters.scored_rows == len(kept)
        if conf >= 0.5:  # the bound of a narrow row is near 1 / (n_classes + 1)
            assert counters.scored_rows <= len(kept) - np.count_nonzero(kept < NARROW)


@pytest.mark.parametrize("n_classes", [4, 80])
def test_pipeline_keeps_a_row_whose_probability_meets_the_bound(n_classes):
    # one high logit and n_classes equal lower ones: the row's largest
    # probability equals the bound.  With conf_thresh exactly that float32
    # probability the row is a candidate, so the bound must keep it, also
    # where rounding to float32 raised the probability above the float64
    # bound.
    rng = np.random.default_rng(28)
    cols = n_classes + 1
    gaps = np.linspace(0.05, 12.0, 240).astype(np.float32)
    odm_cls = np.zeros((len(gaps), cols), np.float32)
    high = rng.integers(1, cols, len(gaps))
    odm_cls[np.arange(len(gaps)), high] = gaps
    # every anchor kept, on a grid where no two boxes overlap
    cells = np.stack(np.meshgrid(np.arange(16), np.arange(15)), axis=-1).reshape(-1, 2) * 20.0 + 10
    anchors = np.concatenate([cells, np.full((len(gaps), 2), 8.0)], axis=1)
    arm_obj = np.tile(np.float32([0.0, 5.0]), (len(gaps), 1))
    zeros = np.zeros((len(gaps), 4), np.float32)
    case = anchors, arm_obj, zeros, odm_cls, zeros
    probs = softmax_gold(odm_cls, axis=1)
    checked = 0
    for row in range(len(gaps)):
        conf = float(probs[row, high[row]])
        if not 0.0 < conf < 1.0:
            continue
        got, counters = assert_matches_nonzero_route(case, pp.NmsParams(400, 400, conf),
                                                     "per_class")
        assert row in got.indices[got.class_ids == high[row]], f"row {row} at {conf!r}"
        # tight rows 0.05 apart: exactly those reaching conf_thresh are scored
        assert counters.scored_rows == np.count_nonzero(probs[np.arange(len(gaps)), high] >= conf)
        checked += 1
    assert checked > 200


def test_can_reach_bounds_every_row():
    rng = np.random.default_rng(29)
    logits = bound_logits(rng, 80)
    top, low = logits.max(axis=1), logits.min(axis=1)
    largest = softmax_gold(logits, axis=1).max(axis=1).astype(np.float64)
    for conf in (0.0, 0.012, 0.05, 0.3, 0.9):
        reach = pp.can_reach(top, low, 81, conf)
        assert reach[largest >= conf].all()
    assert pp.can_reach(top, low, 81, 0.0).all()
    # equal logits: the bound is 1 / 81, which the slack raises by 2**-20 of it
    assert pp.can_reach(np.float32([2.5]), np.float32([2.5]), 81, (1 + 2**-21) / 81)[0]
    assert not pp.can_reach(np.float32([2.5]), np.float32([2.5]), 81, (1 + 2**-19) / 81)[0]


def dropped_row_case():
    """The known-answer case with hot[1]'s class logits flat (probability
    0.25 each): at conf_thresh 0.5 the bound drops it and scores the other
    two kept anchors."""
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = build_pipeline_case()
    odm_cls[hot[1]] = 0.0
    counters = pp.NmsCounters()
    out = pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, pp.NmsParams(400, 200, 0.5),
                      image_size=320, counters=counters)
    assert counters.scored_rows == 2 and sorted(out.indices.tolist()) == [hot[0], hot[2]]
    return anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pipeline_refuses_a_non_finite_final_delta_on_an_unscored_row(value):
    # the row number is hot[1]'s among the kept anchors (3, 17, 29), as
    # decoding every kept anchor names it
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = dropped_row_case()
    odm_deltas[hot[1], 1] = value
    for route in (pp.pipeline, pipeline_nonzero_route):
        kwargs = {} if route is pp.pipeline else dict(
            iou_thresh=pp.DEFAULT_IOU_THRESH, neg_thresh=pp.DEFAULT_NEG_THRESH, cap_scope="per_class")
        with pytest.raises(ValueError, match="^non-finite delta at row 1$"):
            route(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, pp.NmsParams(400, 200, 0.5),
                  image_size=320, **kwargs)


def test_pipeline_refuses_an_overflowing_size_delta_on_an_unscored_row():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = dropped_row_case()
    arm_deltas[hot[1], 2:] = (0.0, 5000.0)
    message = rf"anchor {hot[1]}: ARM size deltas \[.*\] refine its prior to size .*inf"
    with pytest.raises(ValueError, match=message):
        pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, pp.NmsParams(400, 200, 0.5),
                    image_size=320)


def test_pipeline_refuses_a_nan_class_logit_on_an_unscored_row():
    anchors, arm_obj, arm_deltas, odm_cls, odm_deltas, hot = dropped_row_case()
    odm_cls[hot[1], 3] = np.nan
    odm_cls[0, 0] = -np.inf  # an anchor arm_filter drops
    with pytest.raises(ValueError, match="class logits have 2 non-finite values"):
        pp.pipeline(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, pp.NmsParams(400, 200, 0.5),
                    image_size=320)


def test_scored_rows_follow_the_budget_on_thin_vgg16():
    # under the default init every class probability sits near 1/81: no
    # kept anchor can reach 0.1, and every one can reach 0.01
    from refinedet_edge.config import ModelSpec
    from refinedet_edge.head import build_model

    model = build_model(ModelSpec(backbone="vgg16", head_depth=256, width_multiplier=0.0625,
                                  num_classes=80))
    image = np.random.default_rng(30).random((1, 3, 320, 320), dtype=np.float32)
    kept = len(kept_rows(model.forward(image).arm_obj[0]))
    assert kept > 0
    counters = pp.NmsCounters()
    assert len(model.infer(image, pp.NmsParams(400, 200, 0.1), counters=counters)) == 0
    assert counters.scored_rows == 0
    assert len(model.infer(image, pp.NmsParams(1000, 500, 0.01), counters=counters)) == 500
    assert counters.scored_rows == kept
    model.infer(image, pp.NmsParams(1000, 500, 0.01), counters=counters)
    assert counters.scored_rows == 2 * kept  # summed over calls


def test_pipeline_memory_at_the_server_shape():
    # 6375 x 81 logits at (1000, 500, 0.01), where every foreground
    # probability is a candidate: listing all 510 000 as DetectionSet rows
    # peaked at 29-31 MiB
    import tracemalloc

    rng = np.random.default_rng(26)
    n = 6375
    anchors = np.concatenate([rng.random((n, 2)) * 280 + 20, rng.random((n, 2)) * 40 + 10], axis=1)
    arm_obj = np.tile(np.float32([0.0, 1.0]), (n, 1))
    odm_cls = rng.normal(0.0, 0.01, (n, 81)).astype(np.float32)
    deltas = rng.normal(0.0, 0.1, (n, 4)).astype(np.float32)
    for scope in pp.CAP_SCOPES:
        tracemalloc.start()
        try:
            got = pp.pipeline(arm_obj, deltas, odm_cls, deltas, anchors, pp.NmsParams(1000, 500, 0.01),
                              cap_scope=scope, image_size=320, counters=pp.NmsCounters())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 500
        assert peak < 12 * 2**20, f"{scope}: peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# detection records on disk


def test_detection_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    by_image = {"img-001": random_dets(rng, 6), "img-002": random_dets(rng, 3)}
    path = tmp_path / "dets.csv"
    pp.write_detections(path, by_image)
    back = pp.read_detections(path)
    assert set(back) == set(by_image)
    for key in by_image:
        np.testing.assert_allclose(back[key].boxes, by_image[key].boxes, atol=1e-5)
        np.testing.assert_array_equal(back[key].scores, by_image[key].scores)
        np.testing.assert_array_equal(back[key].class_ids, by_image[key].class_ids)


def _ground_truth(dets):
    return ev.GroundTruth(boxes=dets.boxes, class_ids=dets.class_ids.astype(np.int64),
                          ignore=np.arange(len(dets)) % 2 == 0)


RECORD_FILES = {
    "detections": (pp.write_detections, pp.read_detections, lambda d: d),
    "ground-truth": (ev.write_ground_truth, ev.read_ground_truth, _ground_truth),
}


@pytest.mark.parametrize("kind", sorted(RECORD_FILES))
@pytest.mark.parametrize("image_id, problem", [
    ("#cam-1", "starts with '#'"),
    ("a,b", "holds a comma"),
    ("a\nb", "holds a line break"),
    ("a\rb", "holds a line break"),
    (" cam", "has leading or trailing whitespace"),
    ("cam\t", "has leading or trailing whitespace"),
    (7, "is int, not str"),
    ("b\udc80", "is not encodable as UTF-8"),
], ids=["hash", "comma", "newline", "carriage-return", "leading-space", "trailing-tab", "int", "unencodable"])
def test_record_writers_refuse_ids_the_reader_would_change(tmp_path, kind, image_id, problem):
    write, _, convert = RECORD_FILES[kind]
    rng = np.random.default_rng(5)
    path = tmp_path / "records.csv"
    items = {"ok": convert(random_dets(rng, 2)), image_id: convert(random_dets(rng, 2))}
    with pytest.raises(ValueError, match=re.escape(f"image id {image_id!r} {problem}")):
        write(path, items)
    assert not path.exists()


@pytest.mark.parametrize("kind", sorted(RECORD_FILES))
def test_record_writers_round_trip_legal_ids(tmp_path, kind):
    write, read, convert = RECORD_FILES[kind]
    rng = np.random.default_rng(6)
    items = {image_id: convert(random_dets(rng, 3)) for image_id in ("cam 1", "", "a#b", "réglage")}
    path = tmp_path / "records.csv"
    write(path, items)
    back = read(path)
    assert sorted(back) == sorted(items)
    for image_id, item in items.items():
        np.testing.assert_allclose(back[image_id].boxes, item.boxes, atol=1e-5)
        np.testing.assert_array_equal(back[image_id].class_ids, item.class_ids)


def _boxes(*rows):
    return np.array(rows, dtype=np.float32)


BAD_RECORDS = {
    "negative-width": (_boxes([0, 0, 1, 1], [5, 0, 4, 1]), (0.5, 0.5), "box 1: a negative width or height"),
    "nan-box": (_boxes([0, 0, 1, 1], [0, 0, 1, np.nan]), (0.5, 0.5), "box 1: a NaN or inf"),
    "nan-score": (_boxes([0, 0, 1, 1], [0, 0, 1, 1]), (0.5, np.nan), "box 1: a NaN or inf"),
}


# ground truth has no score column, so only detections can carry a NaN score
@pytest.mark.parametrize("kind, case", [(kind, case) for kind in sorted(RECORD_FILES) for case in BAD_RECORDS
                                        if (kind, case) != ("ground-truth", "nan-score")])
def test_record_writers_refuse_values_the_reader_would_refuse(tmp_path, kind, case):
    write, read, convert = RECORD_FILES[kind]
    boxes, scores, problem = BAD_RECORDS[case]
    rng = np.random.default_rng(8)
    bad = pp.DetectionSet(boxes, np.array(scores, np.float32), np.ones(len(scores), np.int32))
    items = {"a": convert(random_dets(rng, 2)), "b": convert(bad)}
    path = tmp_path / "records.csv"
    with pytest.raises(ValueError, match=re.escape(problem)):
        write(path, items)
    assert not path.exists()
    # an existing file is left as it was
    write(path, {"a": items["a"]})
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(problem)):
        write(path, items)
    assert path.read_bytes() == before
    assert list(read(path)) == ["a"]


def test_record_writers_keep_their_line_format(tmp_path):
    dets = pp.DetectionSet(_boxes([1, 2, 4, 6], [0.5, 0.25, 0.75, 1]), np.array([0.5, 0.1], np.float32),
                           np.array([3, 1], np.int32))
    path = tmp_path / "records.csv"
    pp.write_detections(path, {"img-2": dets, "img-1": dets})
    assert path.read_bytes() == (b"img-1,3,1.0,2.0,3.0,4.0,0.5\n"
                                 b"img-1,1,0.5,0.25,0.25,0.75,0.10000000149011612\n"
                                 b"img-2,3,1.0,2.0,3.0,4.0,0.5\n"
                                 b"img-2,1,0.5,0.25,0.25,0.75,0.10000000149011612\n")
    ev.write_ground_truth(path, {"r\u00e9": _ground_truth(dets)})
    assert path.read_bytes() == ("r\u00e9,3,1.0,2.0,3.0,4.0,1\n"
                                 "r\u00e9,1,0.5,0.25,0.25,0.75\n").encode("utf-8")


@pytest.mark.parametrize("kind", sorted(RECORD_FILES))
def test_record_readers_name_a_file_that_is_not_utf8(tmp_path, kind):
    write, read, convert = RECORD_FILES[kind]
    path = tmp_path / "records.csv"
    write(path, {"a": convert(random_dets(np.random.default_rng(9), 2))})
    path.write_bytes(path.read_bytes() + b"b\xff,1,0,0,1,1,0\n")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}: not UTF-8 text: cannot decode byte 0xff (invalid start byte)"


def test_detection_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("img,1,2,3\n")
    with pytest.raises(ValueError, match="expected 7 fields"):
        pp.read_detections(path)
    path.write_text("img,1,a,b,c,d,e\n")
    with pytest.raises(ValueError, match="malformed numeric"):
        pp.read_detections(path)


@pytest.mark.parametrize("record, problem", [
    ("img,1,0,0,10,10,nan", "non-finite value"),
    ("img,1,0,inf,10,10,0.5", "non-finite value"),
    ("img,1,0,0,-1,10,0.5", "negative width or height"),
    ("img,1,0,0,10,-0.5,0.5", "negative width or height"),
    ("img,1,0,0,10,10,x", "malformed numeric field"),
], ids=["nan-score", "inf-y", "negative-width", "negative-height", "malformed"])
def test_detection_file_rejects_bad_values_naming_the_line(tmp_path, record, problem):
    path = tmp_path / "dets.csv"
    path.write_text(f"# header\nimg,1,0,0,10,10,0.5\n{record}\nimg,1,0,0,10,10,0.25\n")
    with pytest.raises(ValueError) as info:
        pp.read_detections(path)
    assert str(info.value) == f"{path}:3: {problem}"


def test_detection_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_text("# header comment\n\nimg,2,1.0,2.0,3.0,4.0,0.5\n"
                    "other,1,0,0,1,1,0.25\n  # indented comment\nimg,3,5,5,1,1,0.75\n")
    back = pp.read_detections(path)
    assert list(back) == ["img", "other"]  # first appearance, rows in file order
    np.testing.assert_allclose(back["img"].boxes, [[1.0, 2.0, 4.0, 6.0], [5, 5, 6, 6]])
    assert back["img"].class_ids.tolist() == [2, 3]
    assert back["img"].scores.tolist() == [0.5, 0.75]


def test_detection_set_validation():
    with pytest.raises(ValueError, match="column lengths differ"):
        pp.DetectionSet(np.zeros((2, 4)), np.zeros(3), np.zeros(3, np.int32))
    ds = pp.DetectionSet(np.zeros((2, 4)), np.zeros(2), np.zeros(2, np.int32))
    assert ds.boxes.dtype == np.float32
    assert ds.indices.tolist() == [0, 1]
