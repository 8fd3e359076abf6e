"""Detection-quality metrics: per-class AP and the multi-threshold mean.

Average precision uses all-point (continuous) interpolation over the full
precision envelope.  The summary metric averages AP over the ten IoU
thresholds 0.50, 0.55, ..., 0.95.  Matching is greedy in score order: each
detection claims the highest-IoU unmatched ground-truth box of its class;
ignore-flagged boxes absorb detections without counting either way.
"""

from dataclasses import dataclass, field
import logging

import numpy as np

from .postprocess import iou_matrix

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


def _match_class(detections, gts, class_id, iou_thresh):
    """Greedy matching for one class.

    Returns (tp flags in score order for counted detections, n_gt).
    Detections that land on ignore-flagged boxes are dropped entirely.
    """
    records = []  # (score, image_id, birth order) for deterministic ranking
    for image_id in sorted(detections):
        dets = detections[image_id]
        for i in np.flatnonzero(dets.class_ids == class_id):
            records.append((float(dets.scores[i]), image_id, int(i)))
    records.sort(key=lambda r: (-r[0], r[1], r[2]))

    n_gt = 0
    live = {}
    ignored = {}
    for image_id, gt in gts.items():
        sel = gt.class_ids == class_id
        live_sel = sel & ~gt.ignore
        ign_sel = sel & gt.ignore
        n_gt += int(live_sel.sum())
        live[image_id] = [gt.boxes[live_sel], np.zeros(int(live_sel.sum()), dtype=bool)]
        ignored[image_id] = gt.boxes[ign_sel]

    tp = []
    for score, image_id, det_i in records:
        if image_id not in gts:
            tp.append(0)
            continue
        box = detections[image_id].boxes[det_i : det_i + 1].astype(np.float64)
        boxes, used = live[image_id]
        best, best_iou = -1, iou_thresh
        if len(boxes):
            overlaps = iou_matrix(box, boxes)[0]
            overlaps[used] = -1.0
            j = int(np.argmax(overlaps))
            if overlaps[j] >= best_iou:
                best = j
        if best >= 0:
            used[best] = True
            tp.append(1)
            continue
        ign_boxes = ignored[image_id]
        if len(ign_boxes) and iou_matrix(box, ign_boxes)[0].max() >= iou_thresh:
            continue  # matched an ignore region: not counted at all
        tp.append(0)
    return np.asarray(tp, dtype=np.float64), n_gt


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
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(np.diff(mrec) > 0)
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def class_average_precisions(detections, gts, iou_thresh=0.5):
    """AP per class id.  Classes with zero non-ignored ground truth are
    skipped (logged), so they never dilute the mean."""
    if not (0.0 < iou_thresh <= 1.0):
        raise ValueError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    class_ids = set()
    for gt in gts.values():
        class_ids.update(int(c) for c in gt.class_ids[~gt.ignore])
    skipped = set()
    for gt in gts.values():
        skipped.update(int(c) for c in gt.class_ids[gt.ignore])
    for dets in detections.values():
        skipped.update(int(c) for c in dets.class_ids)
    skipped -= class_ids
    for c in sorted(skipped):
        log.info("class %d has no countable ground truth; skipped from the mean", c)

    out = {}
    for c in sorted(class_ids):
        tp, n_gt = _match_class(detections, gts, c, iou_thresh)
        out[c] = _ap_from_matches(tp, n_gt)
    return out


def average_precision(detections, gts, iou_thresh=0.5):
    """Mean AP over all classes that own ground truth, at one IoU threshold."""
    per_class = class_average_precisions(detections, gts, iou_thresh)
    if not per_class:
        raise ValueError("no class has countable ground truth; AP is undefined")
    return float(np.mean(list(per_class.values())))


@dataclass(frozen=True)
class CocoMapResult:
    mean: float
    per_threshold: dict = field(compare=False)


def coco_map(detections, gts, thresholds=COCO_THRESHOLDS):
    """AP averaged over the standard threshold ladder, one threshold at a time."""
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("need at least one threshold")
    aps = [average_precision(detections, gts, t) for t in thresholds]
    table = dict(zip(thresholds, aps))
    return CocoMapResult(float(np.mean(aps)), table)


# ---------------------------------------------------------------------------
# ground truth on disk


def write_ground_truth(path, gts):
    """Write records: image_id,class_id,x_min,y_min,width,height[,ignore]."""
    with open(path, "w", encoding="utf-8") as f:
        for image_id in sorted(gts):
            gt = gts[image_id]
            for i in range(len(gt)):
                x0, y0, x1, y1 = (float(v) for v in gt.boxes[i])
                flag = ",1" if gt.ignore[i] else ""
                f.write(f"{image_id},{int(gt.class_ids[i])},{x0!r},{y0!r},{(x1 - x0)!r},{(y1 - y0)!r}{flag}\n")


def read_ground_truth(path):
    """Read ground-truth records into {image_id: GroundTruth}."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) not in (6, 7):
                raise ValueError(f"{path}:{n}: expected 6 or 7 fields, got {len(parts)}")
            image_id = parts[0]
            try:
                cls = int(parts[1])
                x, y, w, h = (float(v) for v in parts[2:6])
                ignore = bool(int(parts[6])) if len(parts) == 7 else False
            except ValueError:
                raise ValueError(f"{path}:{n}: malformed numeric field") from None
            rows.setdefault(image_id, []).append((cls, x, y, w, h, ignore))
    out = {}
    for image_id, recs in rows.items():
        boxes = np.array([[r[1], r[2], r[1] + r[3], r[2] + r[4]] for r in recs], dtype=np.float64)
        out[image_id] = GroundTruth(
            boxes,
            np.array([r[0] for r in recs], dtype=np.int32),
            np.array([r[5] for r in recs], dtype=bool),
        )
    return out
