"""Box decoding, anchor filtering, greedy NMS, and the detection pipeline.

Boxes move through this module in absolute pixel coordinates.  Two
conventions appear: anchors/priors are (cx, cy, w, h); finished boxes are
corner form (x_min, y_min, x_max, y_max).  Detection records written to disk
use (x_min, y_min, width, height).

The NMS stage is parameterized by a triple (max_input, max_output,
conf_thresh): candidates below conf_thresh are dropped, at most max_input
survivors enter each greedy suppression pass, and at most max_output boxes
leave per image.  A candidate is an (anchor, class) pair of the class
probability matrix: the pipeline hands that matrix to suppression as it is
(`ScoreMatrix`), where tests and callers with their own boxes pass a
`DetectionSet` row per candidate.  The pipeline scores and decodes only the
anchors whose largest class probability can reach conf_thresh, found from
each row's largest and smallest logit (`can_reach`).
"""

import math
import numbers
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

VARIANCES = (0.1, 0.2)
DEFAULT_IOU_THRESH = 0.45
DEFAULT_NEG_THRESH = 0.99
CAP_SCOPES = ("per_class", "per_image")


@dataclass(frozen=True)
class NmsParams:
    """The (max_input, max_output, conf_thresh) suppression triple."""

    max_input: int = 400
    max_output: int = 200
    conf_thresh: float = 0.1

    def __post_init__(self):
        for name in ("max_input", "max_output"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not (0.0 <= self.conf_thresh < 1.0):
            raise ValueError(f"conf_thresh must be in [0, 1), got {self.conf_thresh}")

    def short(self):
        return f"({self.max_input},{self.max_output},{self.conf_thresh:g})"


@dataclass
class DetectionSet:
    """Column-wise detections: corner boxes, scores, 1-based class ids.

    `indices` carries provenance: positions into whatever candidate list the
    set was produced from (anchor rows for pipeline output).
    """

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray
    indices: np.ndarray = None

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float32).reshape(-1, 4)
        self.scores = np.asarray(self.scores, dtype=np.float32).reshape(-1)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int32).reshape(-1)
        k = len(self.scores)
        if self.boxes.shape[0] != k or self.class_ids.shape[0] != k:
            raise ValueError(
                f"column lengths differ: {self.boxes.shape[0]} boxes, "
                f"{k} scores, {self.class_ids.shape[0]} class ids"
            )
        if self.indices is None:
            self.indices = np.arange(k, dtype=np.int64)
        else:
            self.indices = np.asarray(self.indices, dtype=np.int64).reshape(-1)
            if self.indices.shape[0] != k:
                raise ValueError(f"{self.indices.shape[0]} indices for {k} detections")

    def __len__(self):
        return len(self.scores)

    @classmethod
    def empty(cls):
        return cls(np.zeros((0, 4), np.float32), np.zeros(0, np.float32), np.zeros(0, np.int32))

    def take(self, order):
        order = np.asarray(order, dtype=np.int64)
        return DetectionSet(self.boxes[order], self.scores[order],
                            self.class_ids[order], self.indices[order])

    # The candidate accessors `nms_greedy` reads; `ScoreMatrix` has the same.

    def class_ids_of(self, ids):
        return self.class_ids[ids]

    def boxes_of(self, ids):
        return self.boxes[ids]


@dataclass
class ScoreMatrix:
    """Suppression candidates read straight from the class probabilities.

    `probs` is the (scored anchors x C) foreground probability matrix,
    `boxes` the decoded corner box of each scored anchor, and `anchor_ids`
    each scored anchor's row among all anchors.  Candidate i is flat position
    i of `probs`: scored anchor i // C, class id i % C + 1.  The flat order is the
    row-major order in which `np.nonzero` lists the matrix, so a candidate
    ranks, ties and caps as it would in a `DetectionSet` of every pair, while
    boxes and class ids are computed only for the candidates asked for.
    `len()` is the number of candidates at or above `conf_thresh`, tested in
    float64 as `nms_greedy` tests them.
    """

    probs: np.ndarray
    boxes: np.ndarray
    anchor_ids: np.ndarray
    conf_thresh: float

    def __post_init__(self):
        self.probs = np.ascontiguousarray(self.probs, dtype=np.float32)
        self.scores = self.probs.reshape(-1)

    def __len__(self):
        return int(np.count_nonzero(np.greater_equal(
            self.scores, self.conf_thresh, signature=(np.float64, np.float64, np.bool_))))

    def class_ids_of(self, ids):
        return ids % self.probs.shape[1] + 1

    def boxes_of(self, ids):
        return self.boxes[ids // self.probs.shape[1]]

    def take(self, ids):
        """The candidates `ids` as detections indexed by anchor row."""
        return DetectionSet(self.boxes_of(ids), self.scores[ids], self.class_ids_of(ids),
                            self.anchor_ids[ids // self.probs.shape[1]])


@dataclass
class NmsCounters:
    """Instrumentation: scored anchors, pairwise IoU evaluations and
    per-class candidate loads.

    `scored_rows` is the number of kept anchors whose class softmax
    `pipeline` computed: those that `can_reach` conf_thresh.

    `iou_evals` is the work of greedy suppression taken one kept box at a
    time, over the members up to and including the max_output-th kept box
    of the merged ranking (every member when fewer are kept): each of them
    counts the same-class kept boxes ranked before it, up to and including
    the first that removes it.  Members ranked after that box cannot change
    the output and are not counted.  `nms_greedy` computes this count from
    its tiles; it is not the number of IoUs the tiles evaluate, and
    `iou_matrix` is not called.  `candidates_per_class` maps a class id to
    the members the max_input cap admits to suppression, whether or not
    the early exit reaches them.  All three add up over calls.
    """

    scored_rows: int = 0
    iou_evals: int = 0
    candidates_per_class: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# geometry


def iou_matrix(a, b):
    """Pairwise IoU between two corner-box arrays: (m, 4) x (k, 4) -> (m, k)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_a = np.clip(a[:, 2] - a[:, 0], 0, None) * np.clip(a[:, 3] - a[:, 1], 0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0, None) * np.clip(b[:, 3] - b[:, 1], 0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def to_corners(cboxes):
    """(cx, cy, w, h) -> (x_min, y_min, x_max, y_max)."""
    cboxes = np.asarray(cboxes, dtype=np.float64)
    half = cboxes[..., 2:4] / 2.0
    return np.concatenate([cboxes[..., 0:2] - half, cboxes[..., 0:2] + half], axis=-1)


# ---------------------------------------------------------------------------
# delta coding


def check_finite_deltas(deltas):
    """Raise ValueError naming the first row of (k, 4) `deltas` with a NaN or inf."""
    if not np.all(np.isfinite(deltas)):
        bad = int(np.flatnonzero(~np.isfinite(deltas).all(axis=1))[0])
        raise ValueError(f"non-finite delta at row {bad}")


def apply_deltas(anchors, deltas):
    """Shift/scale center-form priors by regression deltas; stays center-form.

    cx' = cx + d0 * vc * w      w' = w * exp(d2 * vs)
    cy' = cy + d1 * vc * h      h' = h * exp(d3 * vs)

    with (vc, vs) = VARIANCES.
    """
    vc, vs = VARIANCES
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    if anchors.shape != deltas.shape:
        raise ValueError(f"anchors {anchors.shape} and deltas {deltas.shape} differ")
    check_finite_deltas(deltas)
    if np.any(anchors[:, 2:] <= 0):
        bad = int(np.flatnonzero((anchors[:, 2:] <= 0).any(axis=1))[0])
        raise ValueError(f"anchor {bad} has non-positive size {anchors[bad, 2:]}")
    centers = anchors[:, :2] + deltas[:, :2] * vc * anchors[:, 2:]
    sizes = anchors[:, 2:] * np.exp(deltas[:, 2:] * vs)
    return np.concatenate([centers, sizes], axis=1)


def decode(anchors, deltas, image_size=None):
    """Deltas on center-form priors -> corner boxes, clipped when a size is given."""
    corners = to_corners(apply_deltas(anchors, deltas))
    if image_size is not None:
        corners = np.clip(corners, 0.0, float(image_size))
    return corners.astype(np.float32)


def softmax(logits, axis=-1):
    """Numerically stable softmax (float64 internally, float32 out).

    Computed in place on one float64 copy: each step is the same elementwise
    operation as in `e = exp(z - max); e / sum(e)`, so the output bytes are
    those of that formula without its two further temporaries.
    """
    z = np.array(logits, dtype=np.float64)
    return _softmax_shifted(z, z.max(axis=axis, keepdims=True), axis)


def _softmax_shifted(z, top, axis):
    """`softmax` of the float64 array `z`, in place, given its max along
    `axis` (with the axis kept)."""
    z -= top
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z.astype(np.float32)


# Relative slack on the bound of `can_reach`.  It covers the rounding of a
# float64 probability to float32 (at most 2**-24 of it) and the float64
# error of the softmax and of the bound (under 1e-12 of them), so no
# float32 probability of a dropped row can reach conf_thresh.
BOUND_SLACK = 2**-20


def can_reach(top, low, n_cols, conf_thresh):
    """Mask of the rows whose largest class probability may reach conf_thresh.

    `top` and `low` are each row's largest and smallest of `n_cols` logits.
    The largest probability of a row is 1 / (1 + sum of exp(z - top)) over
    its other n_cols - 1 logits z, and each term is at least
    exp(low - top), so it is at most 1 / (1 + (n_cols - 1) exp(low - top)),
    with equality when those logits are all equal.  A row is dropped when
    that bound, raised by BOUND_SLACK, is below conf_thresh; conf_thresh 0
    keeps every row.
    """
    gap = np.subtract(low, top, dtype=np.float64)
    bound = 1.0 / (1.0 + (n_cols - 1) * np.exp(gap))
    return bound * (1.0 + BOUND_SLACK) >= conf_thresh


def arm_filter(background_probs, neg_thresh=DEFAULT_NEG_THRESH):
    """Indices of anchors whose background probability does NOT exceed the
    threshold; confidently-background anchors leave the pipeline here."""
    if not (0.0 < neg_thresh < 1.0):
        raise ValueError(f"neg_thresh must be in (0, 1), got {neg_thresh}")
    p = np.asarray(background_probs, dtype=np.float64).reshape(-1)
    return np.flatnonzero(p <= neg_thresh)


# ---------------------------------------------------------------------------
# greedy suppression


# Live members a suppression tile takes as rows.  At most 64: the tile's own
# block is resolved with one 64-bit mask per row.  On a captured
# server-budget image (80 classes of 1000 boxes) 64 beat 32 and 48, and
# 96 and 128, tried with wider masks, were 15-30% slower.
NMS_TILE = 64

# `nms_greedy` first suppresses the leading PREFIX_START * max_output pool
# members of the merged ranking, and takes PREFIX_GROWTH times as many on
# each further pass that keeps fewer than max_output boxes.  A redone pass
# repeats at most 1 / (PREFIX_GROWTH - 1) of the last one's members.
PREFIX_START = 8
PREFIX_GROWTH = 4


def _ranked(scores, ids):
    """Order by score descending, ties by lower id."""
    return np.lexsort((ids, -scores.astype(np.float64)))


def _prefix(scores, pool, n_pool, k):
    """Mask of the first k pool members in merged order (`pool` itself when
    k == n_pool).

    The k-th largest pool score v is found by partitioning a float32 copy of
    the pool's scores alone (filling the other members with -inf instead made
    partition ten times slower on a pool of a tenth of the scores).  Every
    score above v is a pool member, and so is every score equal to v; the
    lowest ids among the equals fill the prefix to k.
    """
    if k == n_pool:
        return pool
    s = scores[pool]
    s.partition(n_pool - k)
    v = s[n_pool - k]
    mask = scores > v
    mask[np.flatnonzero(scores == v)[: k - np.count_nonzero(mask)]] = True
    return mask


def _tile_overlaps(rows, cols, iou_thresh, scratch):
    """IoU(rows, cols) > iou_thresh as a (t, m) bool array in `scratch`.

    `rows` and `cols` hold x0, y0, x1, y1, area as float64 rows.  The
    elementwise steps are those of `iou_matrix`, in its order, so every
    decision equals the one `iou_matrix` would give for the pair.
    """
    t, m = rows.shape[1], cols.shape[1]
    ix, iy, tmp, over = (buf[: t * m].reshape(t, m) for buf in scratch)
    rx0, ry0, rx1, ry1, r_area = (row[:, None] for row in rows)
    cx0, cy0, cx1, cy1, c_area = cols
    np.minimum(rx1, cx1, out=ix)
    np.subtract(ix, np.maximum(rx0, cx0, out=tmp), out=ix)
    np.minimum(ry1, cy1, out=iy)
    np.subtract(iy, np.maximum(ry0, cy0, out=tmp), out=iy)
    # np.clip(v, 0, None) is np.maximum(v, 0)
    inter = np.multiply(np.maximum(ix, 0, out=ix), np.maximum(iy, 0, out=iy), out=ix)
    union = np.subtract(np.add(r_area, c_area, out=iy), inter, out=iy)
    tmp.fill(0.0)
    np.divide(inter, union, out=tmp, where=np.greater(union, 0, out=over))
    return np.greater(tmp, iou_thresh, out=over)


def _suppress_class(cols, iou_thresh, scratch):
    """Greedy suppression of one class's ranked members.

    Returns the kept ranks and, per member, its IoU evaluations in the
    row-at-a-time loop: the kept boxes ranked before it that it is compared
    with, up to and including the first that removes it.

    `cols` holds the members in rank order as x0, y0, x1, y1, area rows.
    `live` lists the ranks no kept box has removed yet, and every one of
    them ranks after every box kept so far.  Each tile compares the next
    NMS_TILE live members (the rows) with every live member from the first
    row on (the columns).  The rows are then resolved in rank order on the
    tile's own block: a row is kept unless an earlier kept row of the tile
    overlaps it, which is exactly the row-at-a-time rule.  Columns past the
    tile that any kept row overlaps are dropped, and the survivors' columns
    are compressed for the next tile.
    """
    live = np.arange(cols.shape[1])
    evals = np.zeros(cols.shape[1], np.int64)
    kept = []
    while len(live):
        t = min(NMS_TILE, len(live))
        over = _tile_overlaps(cols[:, :t], cols, iou_thresh, scratch)
        bits = np.zeros((t, 8), np.uint8)
        bits[:, : (t + 7) // 8] = np.packbits(over[:, :t], axis=1, bitorder="little")
        dead, tile_kept = 0, []
        for r, mask in enumerate(bits.view("<u8")[:, 0].tolist()):
            if not (dead >> r) & 1:
                tile_kept.append(r)
                dead |= mask
        by_kept = over[tile_kept]
        hit = by_kept.any(axis=0)
        # A row meets only the kept rows before it; a later column meets
        # every kept row up to its first remover.
        first = np.where(hit, by_kept.argmax(axis=0) + 1, len(tile_kept))
        first[:t] = np.minimum(first[:t], np.searchsorted(tile_kept, np.arange(t)))
        evals[live] += first
        kept.append(live[tile_kept])
        survivors = np.flatnonzero(~hit[t:]) + t
        live, cols = live[survivors], cols[:, survivors]
    return np.concatenate(kept), evals


def _suppress_prefix(dets, mask, iou_thresh, max_input):
    """Greedy suppression of the pool members in `mask`, a merged-order prefix.

    Returns their ids in merged order, which of them are kept, and each
    one's IoU evaluations.  The members are grouped by class once; a
    member's rank within its group is its class rank in the whole pool, so
    the per-class max_input cap is the group's first max_input.
    """
    ids = np.flatnonzero(mask)
    order = ids[_ranked(dets.scores[ids], ids)]
    classes = dets.class_ids_of(order)
    by_class = np.argsort(classes, kind="stable")
    groups = [pos[:max_input] for pos in
              np.split(by_class, np.flatnonzero(np.diff(classes[by_class])) + 1)]
    size = NMS_TILE * max(map(len, groups))
    scratch = (np.empty(size), np.empty(size), np.empty(size), np.empty(size, bool))

    kept = np.zeros(len(order), bool)
    evals = np.zeros(len(order), np.int64)
    for pos in groups:
        x0, y0, x1, y1 = dets.boxes_of(order[pos]).astype(np.float64).T
        area = np.clip(x1 - x0, 0, None) * np.clip(y1 - y0, 0, None)
        ranks, evals[pos] = _suppress_class(np.stack([x0, y0, x1, y1, area]), iou_thresh, scratch)
        kept[pos[ranks]] = True
    return order, kept, evals


def nms_greedy(dets, iou_thresh=DEFAULT_IOU_THRESH, params=NmsParams(),
               counters=None, cap_scope="per_class"):
    """Deterministic classwise greedy suppression under a parameter triple.

    Candidates below conf_thresh are dropped; the strongest max_input
    survivors (per class, or per image under cap_scope="per_image") enter
    suppression; a kept box removes same-class rivals with IoU strictly
    above iou_thresh; the merged result is score-sorted and truncated to
    max_output.

    `dets` is either a `DetectionSet`, one row per candidate, or the
    `ScoreMatrix` that `pipeline` passes, one candidate per (anchor, class)
    pair.  Both give `scores` in candidate order and the boxes and class
    ids of the candidates asked for, so one suppression loop serves both.
    The result is a `DetectionSet` whose indices are the input's `indices`
    column at the kept rows (their positions when the set was built without
    one) for a `DetectionSet`, and anchor rows for a `ScoreMatrix`.

    Suppression stops once the result is settled.  A class's rank order is
    the merged order (score descending, ties to the lower id) restricted to
    the class, so whether a box is kept depends only on boxes ahead of it in
    the merged order.  A merged-order prefix of the capped pool that holds
    max_output kept boxes therefore decides the output: the prefix starts at
    PREFIX_START * max_output members and grows by PREFIX_GROWTH until it
    does, or until it is the whole pool.  The prefix is chosen on float32
    scores; the conf_thresh test runs in float64 without a float64 copy.

    Within the prefix, suppression runs in tiles rather than one kept box at
    a time: the next NMS_TILE surviving boxes of a class are compared with
    every surviving box from them on in one broadcast, resolved in rank
    order among themselves, and the later boxes they remove are dropped
    before the next tile (see `_suppress_class`).  The result is exactly the
    greedy one: the IoU steps are those of `iou_matrix`, so each
    `> iou_thresh` decision is bit-identical, and a box is kept iff no
    earlier kept box overlaps it.  Scratch memory is NMS_TILE rows by the
    largest class in the prefix.
    """
    if not (0.0 <= iou_thresh < 1.0):
        raise ValueError(f"iou_thresh must be in [0, 1), got {iou_thresh}")
    if cap_scope not in CAP_SCOPES:
        raise ValueError(f"cap_scope must be one of {CAP_SCOPES}, got {cap_scope!r}")

    pool = np.greater_equal(dets.scores, params.conf_thresh,
                            signature=(np.float64, np.float64, np.bool_))
    n_pool = int(np.count_nonzero(pool))
    if n_pool == 0:
        return DetectionSet.empty()
    # A per-image cap keeps the first max_input members of the merged ranking.
    limit = min(n_pool, params.max_input) if cap_scope == "per_image" else n_pool
    if counters is not None:
        capped = _prefix(dets.scores, pool, n_pool, limit)
        # bincount, not unique: no sorted copy of up to every member's class id
        counts = np.bincount(dets.class_ids_of(np.flatnonzero(capped)))
        classes = np.flatnonzero(counts)
        for cls, n in zip(classes.tolist(), np.minimum(counts[classes], params.max_input).tolist()):
            counters.candidates_per_class[cls] = counters.candidates_per_class.get(cls, 0) + n

    k = min(limit, PREFIX_START * params.max_output)
    while True:
        order, kept, evals = _suppress_prefix(dets, _prefix(dets.scores, pool, n_pool, k),
                                              iou_thresh, params.max_input)
        if k == limit or np.count_nonzero(kept) >= params.max_output:
            break
        k = min(limit, PREFIX_GROWTH * k)

    kept = np.flatnonzero(kept)[: params.max_output]
    if counters is not None:
        end = kept[-1] + 1 if len(kept) == params.max_output else len(order)
        counters.iou_evals += int(evals[:end].sum())
    return dets.take(order[kept])


# ---------------------------------------------------------------------------
# the full pipeline


def span(timer, name):
    """The timer's span for `name`, or a no-op context when timer is None."""
    return nullcontext() if timer is None else timer.span(name)


def pipeline(arm_obj_logits, arm_deltas, odm_cls_logits, odm_deltas, anchors,
             nms_params, *, iou_thresh=DEFAULT_IOU_THRESH, neg_thresh=DEFAULT_NEG_THRESH,
             cap_scope="per_class", image_size, timer=None, counters=None):
    """Single-image post-processing over per-anchor predictions.

    Steps: soften objectness and drop confident background anchors; refine
    surviving priors with the first-stage deltas; drop the anchors no class
    of which can reach conf_thresh (`can_reach`, from each row's largest and
    smallest class logit); decode final boxes from the refined priors of the
    rest and score their classes; suppress.  Scoring makes no candidate
    list: `nms_greedy` reads the (scored anchors x classes) foreground
    probability matrix as a `ScoreMatrix`, and boxes and class ids are looked
    up only for the candidates suppression examines.  `nms_greedy` is called
    once, with a matrix of no rows when no anchor is scored.  Returned
    indices are anchor rows, so outputs stay traceable to their priors.

    Objectness must be (anchors, 2), class logits (anchors, >= 2) and both
    delta arrays (anchors, 4); another shape, objectness or class logits
    holding NaN or inf, a kept anchor's final deltas holding NaN or inf, or
    a refined prior whose width or height is not finite and positive, raise
    ValueError, whether or not the anchor is scored.
    """
    arm_obj_logits = np.asarray(arm_obj_logits)
    if arm_obj_logits.ndim != 2 or arm_obj_logits.shape[1] != 2:
        raise ValueError(f"objectness must be (anchors, 2), got {arm_obj_logits.shape}")
    n_anchors = arm_obj_logits.shape[0]
    anchors = np.asarray(anchors).reshape(-1, 4)
    if anchors.shape[0] != n_anchors:
        raise ValueError(f"{n_anchors} objectness rows for {anchors.shape[0]} anchors")
    odm_cls_logits = np.asarray(odm_cls_logits)
    # Background-only class logits would leave no foreground column and
    # return no boxes; extra or missing rows would pair logits with the
    # wrong anchors.
    shape = odm_cls_logits.shape
    if len(shape) != 2 or shape[0] != n_anchors or shape[1] < 2:
        raise ValueError(f"class logits must be ({n_anchors} anchors, >= 2), got {shape}")
    arm_deltas, odm_deltas = np.asarray(arm_deltas), np.asarray(odm_deltas)
    for name, deltas in (("arm_deltas", arm_deltas), ("odm_deltas", odm_deltas)):
        if deltas.shape != (n_anchors, 4):
            raise ValueError(f"{name} must be ({n_anchors} anchors, 4), got {deltas.shape}")
    # A NaN objectness fails every arm_filter test and would return no boxes.
    # A row's max and min are NaN when it holds a NaN and infinite when it
    # holds an inf, so the extremes that bound its probabilities check it.
    top, low = odm_cls_logits.max(axis=1), odm_cls_logits.min(axis=1)
    for name, logits, finite in (("objectness", arm_obj_logits, np.isfinite(arm_obj_logits)),
                                 ("class", odm_cls_logits, np.isfinite(top) & np.isfinite(low))):
        if not finite.all():
            bad = logits.size - int(np.count_nonzero(np.isfinite(logits)))
            raise ValueError(f"{name} logits have {bad} non-finite values (NaN or inf) of {logits.size}")

    with span(timer, "arm_filter"):
        obj = softmax(arm_obj_logits, axis=1)
        kept = arm_filter(obj[:, 0], neg_thresh)

    with span(timer, "decode"):
        with np.errstate(over="ignore"):  # an overflow is refused below
            refined = apply_deltas(anchors[kept], arm_deltas[kept])
        sizes = refined[:, 2:]
        bad = np.flatnonzero(~(np.isfinite(sizes) & (sizes > 0)).all(axis=1))
        if len(bad):
            a = int(kept[bad[0]])
            raise ValueError(f"anchor {a}: ARM size deltas {arm_deltas[a, 2:]} refine its prior "
                             f"to size {sizes[bad[0]]}, which is not finite and positive")
        check_finite_deltas(odm_deltas[kept])  # rows as `decode` of every kept anchor names them
        # only the anchors some class of which can reach conf_thresh are decoded and scored
        reach = can_reach(top[kept], low[kept], shape[1], nms_params.conf_thresh)
        scored = kept[reach]
        boxes = decode(refined[reach], odm_deltas[scored], image_size=image_size)

    with span(timer, "nms"):
        if counters is not None:
            counters.scored_rows += len(scored)
        probs = _softmax_shifted(odm_cls_logits[scored].astype(np.float64), top[scored, None], axis=1)
        candidates = ScoreMatrix(probs[:, 1:], boxes, scored, nms_params.conf_thresh)
        del probs  # the matrix holds a copy of the foreground columns
        return nms_greedy(candidates, iou_thresh, nms_params,
                          counters=counters, cap_scope=cap_scope)


# ---------------------------------------------------------------------------
# detection records on disk


def _check_image_id(image_id):
    """Refuse an image id that `read_records` would not give back unchanged."""
    if not isinstance(image_id, str):
        problem = f"is {type(image_id).__name__}, not str"
    elif "," in image_id:
        problem = "holds a comma"
    elif image_id != image_id.strip():
        problem = "has leading or trailing whitespace"
    elif len(image_id.splitlines()) > 1:
        problem = "holds a line break"
    elif image_id.startswith("#"):
        problem = "starts with '#'"
    elif not _encodes_as_utf8(image_id):
        problem = "is not encodable as UTF-8"
    else:
        return
    raise ValueError(f"image id {image_id!r} {problem}; it cannot be written to a record file")


def _encodes_as_utf8(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@contextmanager
def open_text(path):
    """Open `path` as UTF-8 text, a leading byte-order mark skipped.  A byte
    that is not UTF-8 raises ValueError naming `path` when it is read."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            yield f
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: cannot decode byte "
                         f"{e.object[e.start]:#04x} ({e.reason})") from None


def write_records(path, by_image, last_value):
    """Write one line `image_id,class_id,x_min,y_min,width,height[,last]` per
    box, images in sorted order; `last_value(item, i)` gives box i's last
    field, or None for none.

    An image id, a box or a last value that `read_records` would refuse (a
    NaN or inf, a negative width or height) raises ValueError naming the
    image.  The whole text is built and encoded before the file is opened,
    so a refused input leaves no file behind, and an existing one unchanged.
    """
    for image_id in by_image:
        _check_image_id(image_id)
    lines = []
    for image_id in sorted(by_image):
        item = by_image[image_id]
        for i in range(len(item)):
            x0, y0, x1, y1 = (float(v) for v in item.boxes[i])
            w, h, last = x1 - x0, y1 - y0, last_value(item, i)
            if not all(map(math.isfinite, (x0, y0, w, h, 0.0 if last is None else last))):
                raise ValueError(f"image {image_id!r}, box {i}: a NaN or inf "
                                 "cannot be written to a record file")
            if w < 0 or h < 0:
                raise ValueError(f"image {image_id!r}, box {i}: a negative width or height "
                                 "cannot be written to a record file")
            tail = "" if last is None else f",{last!r}"
            lines.append(f"{image_id},{int(item.class_ids[i])},{x0!r},{y0!r},{w!r},{h!r}{tail}\n")
    data = "".join(lines).encode("utf-8")
    with open(path, "wb") as f:
        f.write(data)


def write_detections(path, by_image):
    """Write line records: image_id,class_id,x_min,y_min,width,height,score."""
    write_records(path, by_image, lambda dets, i: float(dets.scores[i]))


def _record_columns(records, ignore_flag):
    """Class ids, and x_min, y_min, width, height and the last field as
    float64 rows; a flag is read as an integer, 0 when absent."""
    last = [r[6] if len(r) == 7 else 0 for r in records]
    return (np.array([r[1] for r in records], dtype=np.int32),
            np.column_stack([np.array([r[2:6] for r in records], dtype=np.float64).reshape(-1, 4),
                             np.array(last, dtype=np.int64 if ignore_flag else np.float64)]))


def read_records(path, ignore_flag=False):
    """Parse records `image_id,class_id,x_min,y_min,width,height,last`.

    `last` is a score or, with `ignore_flag`, an ignore flag: 0 or 1, and 0
    when absent.  Blank lines and '#' comments are skipped.  Returns
    {image_id: (class ids, (k, 4) float64 corner boxes, float64 last
    column)}, images in order of first appearance, rows in file order.

    A wrong field count, a field that does not parse, a NaN or inf, a
    negative width or height, or a flag other than 0 or 1 raises ValueError
    naming `path:line`.  The columns are converted and checked whole; the
    line is looked up only when that fails.
    """
    counts = (6, 7) if ignore_flag else (7,)
    with open_text(path) as f:
        lines = [(n, line.split(",")) for n, line in enumerate(map(str.strip, f), 1)
                 if line and not line.startswith("#")]
    for n, r in lines:
        if len(r) not in counts:
            raise ValueError(f"{path}:{n}: expected {' or '.join(map(str, counts))} "
                             f"fields, got {len(r)}")
    records = [r for _, r in lines]
    try:
        class_ids, values = _record_columns(records, ignore_flag)
    except (ValueError, OverflowError):
        for n, r in lines:
            try:
                _record_columns([r], ignore_flag)
            except (ValueError, OverflowError):
                raise ValueError(f"{path}:{n}: malformed numeric field") from None
        raise
    problems = {"non-finite value": ~np.isfinite(values).all(axis=1),
                "negative width or height": (values[:, 2:4] < 0).any(axis=1),
                "ignore flag is not 0 or 1": ignore_flag & (values[:, 4] != 0) & (values[:, 4] != 1)}
    for what, bad in problems.items():
        if bad.any():
            raise ValueError(f"{path}:{lines[int(np.argmax(bad))][0]}: {what}")
    rows = {}
    for i, r in enumerate(records):
        rows.setdefault(r[0], []).append(i)
    boxes = np.concatenate([values[:, :2], values[:, :2] + values[:, 2:4]], axis=1)
    return {image_id: (class_ids[idx], boxes[idx], values[idx, 4]) for image_id, idx in rows.items()}


def read_detections(path):
    """Read detection records back into {image_id: DetectionSet}."""
    return {image_id: DetectionSet(boxes, scores, class_ids)
            for image_id, (class_ids, boxes, scores) in read_records(path).items()}
