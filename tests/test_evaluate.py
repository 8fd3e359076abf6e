import logging

import numpy as np
import pytest

from refinedet_edge import evaluate as ev
from refinedet_edge.postprocess import DetectionSet
from oracles import class_ap_gold


def dets(boxes, scores, classes):
    return DetectionSet(np.asarray(boxes, np.float32),
                        np.asarray(scores, np.float32),
                        np.asarray(classes, np.int32))


def gt(boxes, classes, ignore=None):
    return ev.GroundTruth(np.asarray(boxes, np.float64),
                          np.asarray(classes, np.int32),
                          None if ignore is None else np.asarray(ignore, bool))


# ---------------------------------------------------------------------------
# hand-checkable cases


def test_perfect_detections_give_ap_one():
    boxes = [[0, 0, 10, 10], [20, 20, 40, 40]]
    d = {"a": dets(boxes, [0.9, 0.8], [1, 1])}
    g = {"a": gt(boxes, [1, 1])}
    assert ev.average_precision(d, g) == pytest.approx(1.0, abs=1e-9)


def test_no_detections_give_ap_zero():
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    assert ev.average_precision({}, g) == pytest.approx(0.0, abs=1e-9)
    assert ev.average_precision({"a": DetectionSet.empty()}, g) == 0.0


def test_one_tp_one_fp_two_gt_gives_half():
    # TP at rank 1 (precision 1, recall 1/2), FP at rank 2:
    # AP = (0.5 - 0) * 1.0 = 0.5
    d = {"a": dets([[0, 0, 10, 10], [100, 100, 110, 110]], [0.9, 0.8], [1, 1])}
    g = {"a": gt([[0, 0, 10, 10], [50, 50, 60, 60]], [1, 1])}
    assert ev.average_precision(d, g) == pytest.approx(0.5, abs=1e-9)


def test_low_ranked_tp_counts_with_interpolated_precision():
    # FP at rank 1, TP at rank 2: precision at recall 1.0 is 1/2
    d = {"a": dets([[100, 100, 110, 110], [0, 0, 10, 10]], [0.9, 0.8], [1, 1])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    assert ev.average_precision(d, g) == pytest.approx(0.5, abs=1e-9)


def test_iou_gate_at_even_threshold():
    # overlap IoU = (10*8)/(10*10 + 10*8 - 80) = 80/100 = 0.8
    d = {"a": dets([[0, 0, 10, 8]], [0.9], [1])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    assert ev.average_precision(d, g, iou_thresh=0.8) == pytest.approx(1.0)
    assert ev.average_precision(d, g, iou_thresh=0.81) == pytest.approx(0.0)


def test_duplicate_detections_on_one_box_count_once():
    box = [[0, 0, 10, 10]]
    d = {"a": dets(box * 3, [0.9, 0.8, 0.7], [1, 1, 1])}
    g = {"a": gt(box, [1])}
    # first claims the box (TP), duplicates become FPs; AP = 1.0 still
    # (precision at recall 1.0 is 1.0 before the duplicates arrive)
    assert ev.average_precision(d, g) == pytest.approx(1.0, abs=1e-9)


def test_ignored_boxes_absorb_detections():
    d = {"a": dets([[0, 0, 10, 10], [50, 50, 60, 60]], [0.9, 0.8], [1, 1])}
    g = {"a": gt([[0, 0, 10, 10], [50, 50, 60, 60]], [1, 1], ignore=[False, True])}
    # second detection overlaps only the ignored box: dropped, not an FP
    assert ev.average_precision(d, g) == pytest.approx(1.0, abs=1e-9)


def test_ignored_boxes_do_not_add_recall_demand():
    d = {"a": dets([[0, 0, 10, 10]], [0.9], [1])}
    g = {"a": gt([[0, 0, 10, 10], [50, 50, 60, 60]], [1, 1], ignore=[False, True])}
    assert ev.average_precision(d, g) == pytest.approx(1.0, abs=1e-9)


def test_detection_on_unknown_image_is_fp():
    d = {"a": dets([[0, 0, 10, 10]], [0.95], [1]),
         "ghost": dets([[0, 0, 10, 10]], [0.99], [1])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    # the ghost FP outranks the TP: precision at recall 1.0 is 1/2
    assert ev.average_precision(d, g) == pytest.approx(0.5, abs=1e-9)


def test_zero_gt_classes_are_skipped_and_logged(caplog):
    d = {"a": dets([[0, 0, 10, 10], [20, 20, 30, 30]], [0.9, 0.8], [1, 7])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    with caplog.at_level(logging.INFO, logger="refinedet_edge.evaluate"):
        per_class = ev.class_average_precisions(d, g)
    assert set(per_class) == {1}
    assert any("7" in rec.message for rec in caplog.records)


def test_error_when_nothing_countable():
    g = {"a": gt([[0, 0, 10, 10]], [1], ignore=[True])}
    with pytest.raises(ValueError, match="countable ground truth"):
        ev.average_precision({}, g)


# ---------------------------------------------------------------------------
# randomized comparison against the naive oracle


def random_problem(rng, n_images=4, n_classes=3):
    d, g = {}, {}
    d_raw, g_raw = {}, {}
    for i in range(n_images):
        img = f"im{i}"
        nd = int(rng.integers(0, 12))
        ng = int(rng.integers(0, 8))
        db = np.concatenate([rng.random((nd, 2)) * 200, rng.random((nd, 2)) * 40 + 5], 1)
        db[:, 2:] += db[:, :2]
        ds = rng.random(nd)
        dc = rng.integers(1, n_classes + 1, nd)
        gb = np.concatenate([rng.random((ng, 2)) * 200, rng.random((ng, 2)) * 40 + 5], 1)
        gb[:, 2:] += gb[:, :2]
        gc = rng.integers(1, n_classes + 1, ng)
        gi = rng.random(ng) < 0.25
        # overlap some detections with ground truth so TPs exist
        for j in range(min(nd, ng)):
            if rng.random() < 0.6:
                db[j] = gb[j] + rng.standard_normal(4) * 2.0
                dc[j] = gc[j]
        d[img] = dets(db, ds, dc)
        g[img] = gt(gb, gc, gi)
        d_raw[img] = (db.astype(np.float64), ds.copy(), dc.copy())
        g_raw[img] = (gb, gc, gi)
    return d, g, d_raw, g_raw


def test_class_ap_matches_gold_randomized():
    rng = np.random.default_rng(0)
    compared = 0
    for trial in range(25):
        d, g, d_raw, g_raw = random_problem(rng)
        for t in ev.COCO_THRESHOLDS:
            per_class = ev.class_average_precisions(d, g, iou_thresh=t)
            for cls, ap in per_class.items():
                want = class_ap_gold(d_raw, g_raw, cls, t)
                assert ap == pytest.approx(want, abs=1e-9), f"trial {trial} class {cls} at {t}"
                compared += 1
    assert compared > 300  # the comparison actually exercised many classes


def test_score_rescaling_invariance():
    # AP depends only on the ranking, not the score values
    rng = np.random.default_rng(1)
    d, g, _, _ = random_problem(rng)
    base = ev.average_precision(d, g)
    rescaled = {
        img: DetectionSet(s.boxes, (s.scores.astype(np.float64) * 0.5 + 0.25).astype(np.float32),
                          s.class_ids)
        for img, s in d.items()
    }
    assert ev.average_precision(rescaled, g) == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# the multi-threshold mean


def test_coco_thresholds():
    np.testing.assert_allclose(ev.COCO_THRESHOLDS, np.arange(0.50, 0.999, 0.05))
    assert len(ev.COCO_THRESHOLDS) == 10


def test_coco_map_is_mean_of_per_threshold_aps():
    rng = np.random.default_rng(2)
    d, g, d_raw, g_raw = random_problem(rng, n_images=6)
    classes = sorted({int(c) for _, cids, ign in g_raw.values() for c in cids[~ign]})
    result = ev.coco_map(d, g)
    golds = [float(np.mean([class_ap_gold(d_raw, g_raw, c, t) for c in classes]))
             for t in ev.COCO_THRESHOLDS]
    assert result.mean == pytest.approx(float(np.mean(golds)), abs=1e-12)
    assert list(result.per_threshold) == list(ev.COCO_THRESHOLDS)
    for t, want in zip(ev.COCO_THRESHOLDS, golds):
        assert result.per_threshold[t] == pytest.approx(want, abs=1e-12)


def test_each_threshold_claims_boxes_on_its_own():
    # A (IoU 0.8) claims the box at 0.5, leaving B (IoU 0.95) a false positive;
    # at 0.9 A misses, so B must still find the box unclaimed
    d = {"a": dets([[0, 0, 10, 8], [0, 0, 10, 9.5]], [0.9, 0.8], [1, 1])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    assert ev.coco_map(d, g, (0.5, 0.9)).per_threshold == {0.5: 1.0, 0.9: 0.5}
    assert ev.average_precision(d, g, 0.9) == 0.5


def test_detection_on_ignore_region_is_dropped_per_threshold():
    # D (IoU 0.6 with the live box, 1.0 with the ignored one) is a true
    # positive at 0.5; at 0.8 it lands on the ignore region and is not
    # counted, so E claims the live box with nothing ranked above it
    d = {"a": dets([[0, 0, 10, 6], [0, 0, 10, 10]], [0.9, 0.5], [1, 1])}
    g = {"a": gt([[0, 0, 10, 10], [0, 0, 10, 6]], [1, 1], ignore=[False, True])}
    assert ev.coco_map(d, g, (0.5, 0.8)).per_threshold == {0.5: 1.0, 0.8: 1.0}
    assert ev.class_average_precisions(d, g, 0.8) == {1: 1.0}


def test_coco_map_matches_each_class_once(monkeypatch):
    # one IoU row per detection serves every threshold
    rng = np.random.default_rng(3)
    d, g, _, _ = random_problem(rng, n_images=6)
    calls = []
    iou = ev.iou_matrix
    monkeypatch.setattr(ev, "iou_matrix", lambda a, b: calls.append(1) or iou(a, b))
    ev.coco_map(d, g)
    ladder = len(calls)
    calls.clear()
    ev.average_precision(d, g, 0.5)
    assert 0 < ladder <= len(calls)


def test_coco_map_logs_each_skipped_class_once(caplog):
    d = {"a": dets([[0, 0, 10, 10], [20, 20, 30, 30]], [0.9, 0.8], [1, 7])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    with caplog.at_level(logging.INFO, logger="refinedet_edge.evaluate"):
        ev.coco_map(d, g)
    assert [rec.getMessage() for rec in caplog.records] == [
        "class 7 has no countable ground truth; skipped from the mean"]


@pytest.mark.parametrize("thresholds, match", [
    ((), "at least one threshold"),
    ((0.5, 1.5), r"\(0, 1\]"),
    ((0.0,), r"\(0, 1\]"),
])
def test_coco_map_rejects_bad_thresholds(thresholds, match):
    d = {"a": dets([[0, 0, 10, 10]], [0.9], [1])}
    g = {"a": gt([[0, 0, 10, 10]], [1])}
    with pytest.raises(ValueError, match=match):
        ev.coco_map(d, g, thresholds)


# ---------------------------------------------------------------------------
# ground truth on disk


def test_ground_truth_round_trip(tmp_path):
    g = {"a": gt([[0, 0, 10, 10], [5, 5, 25, 45]], [1, 2], ignore=[False, True]),
         "b": gt([[1, 2, 3, 4]], [7])}
    path = tmp_path / "gt.csv"
    ev.write_ground_truth(path, g)
    back = ev.read_ground_truth(path)
    assert set(back) == {"a", "b"}
    for img in g:
        np.testing.assert_allclose(back[img].boxes, g[img].boxes, atol=1e-9)
        np.testing.assert_array_equal(back[img].class_ids, g[img].class_ids)
        np.testing.assert_array_equal(back[img].ignore, g[img].ignore)


def test_ground_truth_file_validation(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("img,1,0,0\n")
    with pytest.raises(ValueError, match="expected 6 or 7 fields"):
        ev.read_ground_truth(path)


@pytest.mark.parametrize("record, problem", [
    ("img,1,0,0,inf,10", "non-finite value"),
    ("img,1,nan,0,10,10,0", "non-finite value"),
    ("img,1,0,0,-2,10", "negative width or height"),
    ("img,1,0,0,10,-1,1", "negative width or height"),
    ("img,1,0,0,10,10,2", "ignore flag is not 0 or 1"),
    ("img,1,0,0,10,10,-1", "ignore flag is not 0 or 1"),
    ("img,1,0,0,10,10,1.0", "malformed numeric field"),
], ids=["inf-width", "nan-x", "negative-width", "negative-height", "flag-2", "flag-minus-1",
        "flag-not-an-integer"])
def test_ground_truth_file_rejects_bad_values_naming_the_line(tmp_path, record, problem):
    path = tmp_path / "gt.csv"
    path.write_text(f"# header\nimg,1,0,0,10,10\n{record}\nimg,2,0,0,10,10,1\n")
    with pytest.raises(ValueError) as info:
        ev.read_ground_truth(path)
    assert str(info.value) == f"{path}:3: {problem}"


def test_ground_truth_shape_validation():
    with pytest.raises(ValueError, match="boxes for"):
        ev.GroundTruth(np.zeros((2, 4)), np.zeros(3, np.int32))
    with pytest.raises(ValueError, match="ignore flags"):
        ev.GroundTruth(np.zeros((2, 4)), np.zeros(2, np.int32), np.zeros(1, bool))
