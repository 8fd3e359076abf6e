"""Output checks: the method's invariants on every request, and comparisons
against the references in refs.py.  Each check returns a list of problems;
an empty list means the outputs are correct."""

import numpy as np

import refs

FORWARD_RTOL = 2e-4  # of a tensor's RMS; float32 storage and reordered sums stay near 1e-6


def invariants(boxes, scores, class_ids, indices, max_output, conf_thresh, iou_thresh,
               input_size, n_anchors):
    """Properties every detection set must have, whatever the network computed."""
    bad = []
    k = len(scores)
    if k > max_output:
        bad.append(f"{k} detections exceed max_output {max_output}")
    s = scores.astype(np.float64)
    if k and s.min() < conf_thresh:
        bad.append(f"score {s.min()!r} below conf_thresh {conf_thresh}")
    if k > 1 and np.any(np.diff(s) > 0):
        bad.append("scores are not non-increasing")
    if k and (boxes.min() < 0 or boxes.max() > input_size
              or np.any(boxes[:, 2] < boxes[:, 0]) or np.any(boxes[:, 3] < boxes[:, 1])):
        bad.append(f"a box leaves [0, {input_size}] or is inverted")
    if k and (indices.min() < 0 or indices.max() >= n_anchors):
        bad.append(f"anchor index outside [0, {n_anchors})")
    if len(set(zip(indices.tolist(), class_ids.tolist()))) != k:
        bad.append("an (anchor, class) pair is reported twice")
    b64 = boxes.astype(np.float64)
    for c in np.unique(class_ids):
        members = np.flatnonzero(class_ids == c)
        worst = max((refs.iou_one_to_many(b64[i], b64[members[members > i]]).max(initial=0.0)
                     for i in members), default=0.0)
        if worst > iou_thresh:
            bad.append(f"class {int(c)} keeps two boxes with IoU {worst:.4f} > {iou_thresh}")
    return bad


def same_detections(prog, ref):
    """Program detections equal the reference in anchor, class and order;
    scores and boxes agree to float32 rounding."""
    bad = []
    if len(prog["indices"]) != len(ref["anchor"]):
        return [f"{len(prog['indices'])} detections, reference has {len(ref['anchor'])}"]
    if not np.array_equal(prog["indices"], ref["anchor"]):
        first = int(np.flatnonzero(prog["indices"] != ref["anchor"])[0])
        bad.append(f"anchor order differs from the reference at rank {first}")
    if not np.array_equal(prog["class_ids"], ref["class_id"]):
        bad.append("class ids differ from the reference")
    if len(ref["score"]):
        if np.max(np.abs(prog["scores"].astype(np.float64) - ref["score"])) > 1e-6:
            bad.append("scores differ from the reference")
        if np.max(np.abs(prog["boxes"].astype(np.float64) - ref["box"])) > 1e-3:
            bad.append("boxes differ from the reference")
    return bad


def forward_matches(prog, ref, label):
    """Raw predictions agree with the float64 reference within FORWARD_RTOL
    of each tensor's RMS."""
    bad = []
    for k in ("arm_obj", "arm_deltas", "odm_cls", "odm_deltas"):
        p = np.asarray(prog[k], dtype=np.float64)
        r = ref[k]
        if p.shape != r.shape:
            bad.append(f"{label} {k}: shape {p.shape}, reference {r.shape}")
            continue
        scale = float(np.sqrt(np.mean(r * r))) or 1.0
        err = float(np.max(np.abs(p - r))) / scale
        if not err <= FORWARD_RTOL:
            bad.append(f"{label} {k}: max error {err:.3g} of RMS exceeds {FORWARD_RTOL}")
    return bad


def coco_map_matches(program_map, gts, dets):
    want = refs.coco_map(gts, dets)
    if not abs(program_map - want) <= 1e-9:
        return [f"coco_map {program_map!r} differs from the by-definition value {want!r}"]
    return []
