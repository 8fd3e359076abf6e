"""Detection-quality metrics: per-class AP and the multi-threshold mean.

Average precision uses all-point (continuous) interpolation over the full
precision envelope.  The summary metric averages AP over the ten IoU
thresholds 0.50, 0.55, ..., 0.95.  Matching is greedy in score order: each
detection claims the highest-IoU unmatched ground-truth box of its class;
ignore-flagged boxes absorb detections without counting either way.  Each
class is matched in one pass: one ranking and one IoU row per detection,
with a separate set of claimed boxes per threshold.
"""

from dataclasses import dataclass, field
import logging

import numpy as np

from .postprocess import iou_matrix, read_records, write_records

log = logging.getLogger(__name__)

COCO_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))


@dataclass
class GroundTruth:
    """Annotations for one image: corner boxes, class ids, optional ignores."""

    boxes: np.ndarray
    class_ids: np.ndarray
    ignore: np.ndarray = None

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int32).reshape(-1)
        m = len(self.class_ids)
        if self.boxes.shape[0] != m:
            raise ValueError(f"{self.boxes.shape[0]} boxes for {m} class ids")
        if self.ignore is None:
            self.ignore = np.zeros(m, dtype=bool)
        else:
            self.ignore = np.asarray(self.ignore, dtype=bool).reshape(-1)
            if self.ignore.shape[0] != m:
                raise ValueError(f"{self.ignore.shape[0]} ignore flags for {m} boxes")

    def __len__(self):
        return len(self.class_ids)


def _match_class(detections, gts, class_id, thresholds):
    """Greedy matching for one class at every threshold in one pass.

    Returns (flags, n_gt): flags has one row per detection in score order and
    one column per threshold, holding 1 (true positive), 0 (false positive) or
    NaN (landed on an ignore-flagged box: not counted at that threshold).
    """
    records = []  # (score, image_id, birth order) for deterministic ranking
    for image_id in sorted(detections):
        dets = detections[image_id]
        for i in np.flatnonzero(dets.class_ids == class_id):
            records.append((float(dets.scores[i]), image_id, int(i)))
    records.sort(key=lambda r: (-r[0], r[1], r[2]))

    thr = np.asarray(thresholds, dtype=np.float64)
    t_rows = np.arange(len(thr))
    n_gt = 0
    boxes = {}  # image id -> (live boxes then ignored ones, live count, used)
    for image_id, gt in gts.items():
        sel = gt.class_ids == class_id
        live_sel = sel & ~gt.ignore
        k = int(live_sel.sum())
        n_gt += k
        both = np.concatenate([gt.boxes[live_sel], gt.boxes[sel & gt.ignore]])
        boxes[image_id] = (both, k, np.zeros((len(thr), k), dtype=bool))  # a mask per threshold

    flags = np.zeros((len(records), len(thr)))
    for r, (_, image_id, det_i) in enumerate(records):
        both, k, used = boxes.get(image_id, ((), 0, None))
        if not len(both):
            continue  # nothing to overlap: a false positive at every threshold
        row = iou_matrix(detections[image_id].boxes[det_i : det_i + 1].astype(np.float64), both)[0]
        hit = np.zeros(len(thr), dtype=bool)
        if k:
            overlaps = np.where(used, -1.0, row[:k])
            best = np.argmax(overlaps, axis=1)
            hit = overlaps[t_rows, best] >= thr
            used[t_rows[hit], best[hit]] = True
        flags[r] = hit
        if len(both) > k:  # matched an ignore region instead: not counted
            flags[r, ~hit & (row[k:].max() >= thr)] = np.nan
    return flags, n_gt


def _ap_from_matches(tp, n_gt):
    """All-point interpolated AP from score-ordered TP flags."""
    if n_gt == 0:
        raise ValueError("AP undefined without ground truth")
    if len(tp) == 0:
        return 0.0
    ctp = np.cumsum(tp)
    cfp = np.cumsum(1.0 - tp)
    recall = ctp / n_gt
    precision = ctp / (ctp + cfp)
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]  # the envelope: best precision to the right
    steps = np.flatnonzero(np.diff(mrec) > 0)
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _class_table(detections, gts, thresholds):
    """{class id: [AP at each threshold]} for classes with countable ground
    truth.  Other classes are skipped (logged once), so they never dilute
    the mean."""
    if not thresholds:
        raise ValueError("need at least one threshold")
    for t in thresholds:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"iou_thresh must be in (0, 1], got {t}")
    class_ids, skipped = set(), set()
    for gt in gts.values():
        class_ids.update(int(c) for c in gt.class_ids[~gt.ignore])
        skipped.update(int(c) for c in gt.class_ids[gt.ignore])
    for dets in detections.values():
        skipped.update(int(c) for c in dets.class_ids)
    for c in sorted(skipped - class_ids):
        log.info("class %d has no countable ground truth; skipped from the mean", c)

    table = {}
    for c in sorted(class_ids):
        flags, n_gt = _match_class(detections, gts, c, thresholds)
        table[c] = [_ap_from_matches(f[~np.isnan(f)], n_gt) for f in flags.T]
    return table


def class_average_precisions(detections, gts, iou_thresh=0.5):
    """AP per class id at one IoU threshold ({} if no class is countable)."""
    return {c: aps[0] for c, aps in _class_table(detections, gts, (iou_thresh,)).items()}


def average_precision(detections, gts, iou_thresh=0.5):
    """Mean AP over all classes that own ground truth, at one IoU threshold."""
    return coco_map(detections, gts, (iou_thresh,)).mean


@dataclass(frozen=True)
class CocoMapResult:
    mean: float
    per_threshold: dict = field(compare=False)


def coco_map(detections, gts, thresholds=COCO_THRESHOLDS):
    """AP averaged over classes, then over thresholds; one pass per class."""
    thresholds = tuple(thresholds)
    table = _class_table(detections, gts, thresholds)
    if not table:
        raise ValueError("no class has countable ground truth; AP is undefined")
    aps = [float(np.mean([row[k] for row in table.values()])) for k in range(len(thresholds))]
    return CocoMapResult(float(np.mean(aps)), dict(zip(thresholds, aps)))


# ---------------------------------------------------------------------------
# ground truth on disk


def write_ground_truth(path, gts):
    """Write records: image_id,class_id,x_min,y_min,width,height[,ignore]."""
    write_records(path, gts, lambda gt, i: 1 if gt.ignore[i] else None)


def read_ground_truth(path):
    """Read ground-truth records into {image_id: GroundTruth}."""
    return {image_id: GroundTruth(boxes, class_ids, flags.astype(bool))
            for image_id, (class_ids, boxes, flags) in read_records(path, ignore_flag=True).items()}
