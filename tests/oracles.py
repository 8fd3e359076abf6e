"""Naive reference implementations ("gold" versions) used by the tests.

Everything in this file favors obviousness over speed: plain Python loops
that follow the definitions directly, with no vectorization and no shared
code with the library.  The tests compare the fast implementations against
these on small random problems.
"""

import numpy as np


# ---------------------------------------------------------------------------
# dense ops


def conv2d_gold(x, w, b, stride, padding, groups=1):
    """Grouped convolution, seven nested loops."""
    n, c_in, h, wd = x.shape
    c_out, cpg, kh, kw = w.shape
    opg = c_out // groups
    xp = np.zeros((n, c_in, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(c_out):
            g = co // opg
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[ni, g * cpg + ci, oy * stride + ky, ox * stride + kx]
                                        * w[co, ci, ky, kx])
                    if b is not None:
                        acc += b[co]
                    out[ni, co, oy, ox] = acc
    return out.astype(np.float32)


def deconv2d_gold(x, w, stride, padding):
    """Transposed convolution: every input cell stamps a weighted kernel."""
    n, c_in, h, wd = x.shape
    _, c_out, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (wd - 1) * stride - 2 * padding + kw
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ci in range(c_in):
            for y in range(h):
                for xx in range(wd):
                    v = x[ni, ci, y, xx]
                    for ky in range(kh):
                        for kx in range(kw):
                            oy = y * stride + ky - padding
                            ox = xx * stride + kx - padding
                            if 0 <= oy < oh and 0 <= ox < ow:
                                for co in range(c_out):
                                    out[ni, co, oy, ox] += v * w[ci, co, ky, kx]
    return out.astype(np.float32)


def max_pool_gold(x, window, stride, padding):
    n, c, h, wd = x.shape
    oh = (h + 2 * padding - window) // stride + 1
    ow = (wd + 2 * padding - window) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=np.float32)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    for ky in range(window):
                        for kx in range(window):
                            y = oy * stride + ky - padding
                            xx = ox * stride + kx - padding
                            if 0 <= y < h and 0 <= xx < wd:
                                best = max(best, x[ni, ci, y, xx])
                    out[ni, ci, oy, ox] = best
    return out


# ---------------------------------------------------------------------------
# boxes


def iou_gold(a, b):
    ax0, ay0, ax1, ay1 = (float(v) for v in a)
    bx0, by0, bx1, by1 = (float(v) for v in b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = max(0.0, ax1 - ax0) * max(0.0, ay1 - ay0)
    area_b = max(0.0, bx1 - bx0) * max(0.0, by1 - by0)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def apply_deltas_gold(anchors, deltas, vc, vs):
    out = np.zeros_like(np.asarray(anchors, dtype=np.float64))
    for i in range(len(out)):
        cx, cy, w, h = (float(v) for v in anchors[i])
        d0, d1, d2, d3 = (float(v) for v in deltas[i])
        out[i, 0] = cx + d0 * vc * w
        out[i, 1] = cy + d1 * vc * h
        out[i, 2] = w * np.exp(d2 * vs)
        out[i, 3] = h * np.exp(d3 * vs)
    return out


def decode_gold(anchors, deltas, vc, vs, image_size=None):
    centers = apply_deltas_gold(anchors, deltas, vc, vs)
    out = np.zeros_like(centers)
    for i in range(len(out)):
        cx, cy, w, h = centers[i]
        out[i] = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    if image_size is not None:
        out = np.clip(out, 0.0, float(image_size))
    return out.astype(np.float32)


def nms_gold(boxes, scores, class_ids, iou_thresh, max_input, max_output,
             conf_thresh, cap_scope="per_class"):
    """Greedy classwise suppression by definition.

    Returns kept indices into the input arrays, in output order: the
    strongest survivors first (ties to the lower index), at most max_output.
    """
    def rank(ix):
        return sorted(ix, key=lambda i: (-float(scores[i]), i))

    pool = [i for i in range(len(scores)) if float(scores[i]) >= conf_thresh]
    if cap_scope == "per_image":
        pool = rank(pool)[:max_input]

    kept = []
    for cls in sorted({int(class_ids[i]) for i in pool}):
        members = rank([i for i in pool if int(class_ids[i]) == cls])
        if cap_scope == "per_class":
            members = members[:max_input]
        while members:
            best = members.pop(0)
            kept.append(best)
            members = [m for m in members if iou_gold(boxes[best], boxes[m]) <= iou_thresh]
    return rank(kept)[:max_output]


def softmax_gold(logits, axis=-1):
    """The three-temporary softmax formula: float64 in, float32 out."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)


def pipeline_nonzero_route(arm_obj, arm_deltas, odm_cls, odm_deltas, anchors, params, *,
                           iou_thresh, neg_thresh, cap_scope, image_size, counters=None):
    """Post-processing by the route that lists every candidate.

    The one helper here that calls the library: it scores with `softmax_gold`,
    lists every foreground probability at or above conf_thresh (a float32
    test) with `np.nonzero` as a `DetectionSet` row, suppresses that set with
    `nms_greedy` and maps its rows back to anchor ids.  The pipeline must give
    the same detections and counters from the probability matrix itself.
    """
    from refinedet_edge import postprocess as pp

    kept = pp.arm_filter(softmax_gold(arm_obj, axis=1)[:, 0], neg_thresh)
    refined = pp.apply_deltas(np.asarray(anchors)[kept], np.asarray(arm_deltas)[kept])
    boxes = pp.decode(refined, np.asarray(odm_deltas)[kept], image_size=image_size)
    probs = softmax_gold(np.asarray(odm_cls)[kept], axis=1)[:, 1:]
    rows, cols = np.nonzero(probs >= params.conf_thresh)
    listed = pp.DetectionSet(boxes[rows], probs[rows, cols], cols.astype(np.int32) + 1)
    out = pp.nms_greedy(listed, iou_thresh, params, counters, cap_scope)
    out.indices = kept[rows[out.indices]]
    return out


def nms_iou_evals_gold(boxes, scores, class_ids, iou_thresh, max_input, conf_thresh,
                       cap_scope="per_class", max_output=None):
    """The work of nms_gold's loop, counted by definition.

    Returns (IoU evaluations, {class id: members entering suppression}): each
    kept box is compared with every member still listed after it.  With
    max_output set, the loop runs only over the members up to and including
    the max_output-th kept box of the merged ranking (all members when fewer
    are kept), since nothing ranked after that box changes nms_gold's output.
    The per-class counts are always the members admitted by the cap.
    """
    def rank(ix):
        return sorted(ix, key=lambda i: (-float(scores[i]), i))

    pool = [i for i in range(len(scores)) if float(scores[i]) >= conf_thresh]
    if cap_scope == "per_image":
        pool = rank(pool)[:max_input]

    last = None
    if max_output is not None:
        out = nms_gold(boxes, scores, class_ids, iou_thresh, max_input, max_output,
                       conf_thresh, cap_scope)
        if len(out) == max_output:
            last = (-float(scores[out[-1]]), out[-1])

    evals = 0
    per_class = {}
    for cls in sorted({int(class_ids[i]) for i in pool}):
        members = rank([i for i in pool if int(class_ids[i]) == cls])
        if cap_scope == "per_class":
            members = members[:max_input]
        per_class[cls] = len(members)
        if last is not None:
            members = [m for m in members if (-float(scores[m]), m) <= last]
        while members:
            best = members.pop(0)
            evals += len(members)
            members = [m for m in members if iou_gold(boxes[best], boxes[m]) <= iou_thresh]
    return evals, per_class


def anchors_gold(input_size, strides, scales, ratios):
    """Anchor grid by definition: level -> row -> col -> ratio."""
    rows = []
    for stride, scale in zip(strides, scales):
        g = input_size // stride
        for i in range(g):          # rows (y)
            for j in range(g):      # cols (x)
                cx = (j + 0.5) * stride
                cy = (i + 0.5) * stride
                for r in ratios:
                    rows.append((cx, cy, scale * np.sqrt(r), scale / np.sqrt(r)))
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# evaluation


def class_ap_gold(detections, gts, class_id, iou_thresh):
    """AP for one class, straight from the definition.

    detections: {image_id: (boxes, scores, class_ids)} tuples of arrays
    gts: {image_id: (boxes, class_ids, ignore)} tuples of arrays
    Greedy matching in score order (ties: image id, then arrival order);
    a detection overlapping an ignore-flagged box (and no live box) at or
    above the threshold simply disappears from the tally.
    """
    records = []
    for image_id in sorted(detections):
        boxes, scores, cids = detections[image_id]
        for i in range(len(scores)):
            if int(cids[i]) == class_id:
                records.append((float(scores[i]), image_id, i))
    records.sort(key=lambda r: (-r[0], r[1], r[2]))

    live = {}
    ignored = {}
    n_gt = 0
    for image_id, (boxes, cids, ignore) in gts.items():
        lv, ig = [], []
        for j in range(len(cids)):
            if int(cids[j]) != class_id:
                continue
            (ig if ignore[j] else lv).append(np.asarray(boxes[j], dtype=np.float64))
        n_gt += len(lv)
        live[image_id] = [lv, [False] * len(lv)]
        ignored[image_id] = ig
    if n_gt == 0:
        raise ValueError("class has no countable ground truth")

    flags = []
    for score, image_id, det_i in records:
        if image_id not in gts:
            flags.append(0)
            continue
        box = detections[image_id][0][det_i]
        lv, used = live[image_id]
        best_j, best_iou = -1, -1.0
        for j in range(len(lv)):
            if used[j]:
                continue
            ov = iou_gold(box, lv[j])
            if ov > best_iou:
                best_j, best_iou = j, ov
        if best_j >= 0 and best_iou >= iou_thresh:
            used[best_j] = True
            flags.append(1)
            continue
        if any(iou_gold(box, ib) >= iou_thresh for ib in ignored[image_id]):
            continue
        flags.append(0)

    if not flags:
        return 0.0

    # precision/recall after each detection, then area under the
    # right-side precision envelope
    tp = fp = 0
    points = []
    for f in flags:
        tp += f
        fp += 1 - f
        points.append((tp / n_gt, tp / (tp + fp)))
    area = 0.0
    prev_recall = 0.0
    for k, (recall, _) in enumerate(points):
        if recall > prev_recall:
            best_prec = max(p for r, p in points[k:])
            area += (recall - prev_recall) * best_prec
            prev_recall = recall
    return area


# ---------------------------------------------------------------------------
# hashing


def fnv1a64_gold(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
