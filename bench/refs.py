"""Independent references for the benchmark's output checks.

Each is written from the method's definition, not from the package's code:

* `anchors` and `postprocess`: the anchor grid, a float64 softmax, the ARM
  background filter, two-step delta decoding and brute-force classwise greedy
  suppression under the (max_input, max_output, conf_thresh) triple.
* `forward`: a float64 forward pass of the vgg16 and mobilenetv1 detectors,
  read from the named tensors of a weight bundle.
* `coco_map`: all-point interpolated AP, averaged over classes and over the
  ten IoU thresholds 0.50:0.05:0.95.

Scores and boxes of a detection are stored as float32, so the postprocess
reference rounds them to float32 before it thresholds and ranks: that is the
precision at which the method's ordering is defined.
"""

import numpy as np

VARIANCES = (0.1, 0.2)

# ---------------------------------------------------------------------------
# anchors and post-processing


def anchors(input_size, strides=(8, 16, 32, 64), ratios=(0.5, 1.0, 2.0)):
    """Center-form priors, ordered level -> row -> col -> ratio; the scale of
    a level is 4 x stride and a ratio r gives (s*sqrt(r), s/sqrt(r))."""
    rows = []
    for stride in strides:
        s = 4.0 * stride
        g = input_size // stride
        for r in range(g):
            for c in range(g):
                for ratio in ratios:
                    q = float(np.sqrt(ratio))
                    rows.append(((c + 0.5) * stride, (r + 0.5) * stride, s * q, s / q))
    return np.array(rows, dtype=np.float32)


def softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _shift(priors, deltas):
    vc, vs = VARIANCES
    p = np.asarray(priors, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    return np.stack([p[:, 0] + d[:, 0] * vc * p[:, 2],
                     p[:, 1] + d[:, 1] * vc * p[:, 3],
                     p[:, 2] * np.exp(d[:, 2] * vs),
                     p[:, 3] * np.exp(d[:, 3] * vs)], axis=1)


def iou_one_to_many(box, boxes):
    """IoU of one corner box with each row of `boxes`, in float64."""
    ix = np.minimum(box[2], boxes[:, 2]) - np.maximum(box[0], boxes[:, 0])
    iy = np.minimum(box[3], boxes[:, 3]) - np.maximum(box[1], boxes[:, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area = lambda b: np.maximum(b[..., 2] - b[..., 0], 0.0) * np.maximum(b[..., 3] - b[..., 1], 0.0)
    union = area(box) + area(boxes) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def postprocess(arm_obj, arm_deltas, odm_cls, odm_deltas, priors, max_input, max_output,
                conf_thresh, iou_thresh=0.45, neg_thresh=0.99, cap_scope="per_class",
                image_size=320):
    """Detections of one image from its raw per-anchor predictions.

    Returns a dict of columns in output order (`anchor`, `class_id`, `score`,
    `box`) and `max_prob`, the highest foreground class probability among
    the anchors that pass the ARM filter.
    """
    bg = softmax(arm_obj)[:, 0].astype(np.float32).astype(np.float64)
    kept = np.flatnonzero(bg <= neg_thresh)
    refined = _shift(priors[kept], arm_deltas[kept])
    final = _shift(refined, odm_deltas[kept])
    corners = np.concatenate([final[:, :2] - final[:, 2:] / 2, final[:, :2] + final[:, 2:] / 2], axis=1)
    boxes = np.clip(corners, 0.0, float(image_size)).astype(np.float32)
    probs = softmax(odm_cls[kept])[:, 1:].astype(np.float32).astype(np.float64)
    max_prob = float(probs.max()) if probs.size else 0.0

    # Candidates in (kept anchor, class) order; that position breaks score ties.
    rows, cols = np.nonzero(probs >= conf_thresh)
    scores = probs[rows, cols]
    position = np.arange(len(rows))
    if cap_scope == "per_image":
        top = np.lexsort((position, -scores))[:max_input]
        rows, cols, scores, position = rows[top], cols[top], scores[top], position[top]
    winners = []
    for c in np.unique(cols):
        members = np.flatnonzero(cols == c)
        members = members[np.lexsort((position[members], -scores[members]))]
        if cap_scope == "per_class":
            members = members[:max_input]
        # a candidate is kept when no box already kept for its class overlaps it by more than iou_thresh
        cand = boxes[rows[members]].astype(np.float64)
        kept_boxes = np.empty_like(cand)
        n_kept = 0
        for i in range(len(members)):
            if not np.any(iou_one_to_many(cand[i], kept_boxes[:n_kept]) > iou_thresh):
                winners.append(members[i])
                kept_boxes[n_kept] = cand[i]
                n_kept += 1
    winners = np.asarray(winners, dtype=np.int64)
    winners = winners[np.lexsort((position[winners], -scores[winners]))][:max_output]
    return {
        "anchor": kept[rows[winners]],
        "class_id": (cols[winners] + 1).astype(np.int32),
        "score": scores[winners].astype(np.float32),
        "box": boxes[rows[winners]].reshape(-1, 4),
        "max_prob": max_prob,
    }


# ---------------------------------------------------------------------------
# forward pass


def _conv(x, w, b=None, stride=1, pad=None, groups=1):
    """out[o, y, x] = b[o] + sum_{c, i, j} w[o, c, i, j] * xpad[g(o)*cg + c, s*y + i, s*x + j]."""
    w = np.asarray(w, dtype=np.float64)
    c_out, cg, kh, kw = w.shape
    if pad is None:
        pad = kh // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    if groups == 1:
        out = np.einsum("chwij,ocij->ohw", win, w, optimize=True)
    elif groups == x.shape[0] == c_out and cg == 1:
        out = np.einsum("chwij,cij->chw", win, w[:, 0])
    else:
        raise ValueError(f"reference covers dense and depthwise convolutions, got groups={groups}")
    if b is not None:
        out = out + np.asarray(b, dtype=np.float64)[:, None, None]
    return out


def _deconv2x2(x, w):
    """Stride-2, 2x2 transposed convolution: out[o, 2y+i, 2x+j] = sum_c x[c, y, x] w[c, o, i, j]."""
    w = np.asarray(w, dtype=np.float64)
    c, h, wd = x.shape
    out = np.einsum("cyx,coij->oyixj", x, w)
    return out.reshape(w.shape[1], 2 * h, 2 * wd)


def _relu(x):
    return np.maximum(x, 0.0)


def _bn(x, t, name):
    g, b = t[f"{name}/bn_gamma"], t[f"{name}/bn_beta"]
    m, v = t[f"{name}/bn_mean"], t[f"{name}/bn_var"]
    col = lambda a: np.asarray(a, dtype=np.float64)[:, None, None]
    return col(g) * (x - col(m)) / np.sqrt(col(v) + 1e-5) + col(b)


def _conv_bias(x, t, name, stride=1):
    return _conv(x, t[f"{name}/w"], t[f"{name}/b"], stride)


def _conv_bn_relu(x, t, name, stride=1, groups=1):
    return _relu(_bn(_conv(x, t[f"{name}/w"], None, stride, groups=groups), t, name))


def _dw_separable(x, t, name, stride=1):
    y = _conv_bn_relu(x, t, f"{name}/dw", stride, groups=x.shape[0])
    return _conv_bn_relu(y, t, f"{name}/pw")


def _maxpool2(x):
    c, h, w = x.shape
    return x[:, : h // 2 * 2, : w // 2 * 2].reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def _vgg16_pyramid(x, t):
    feats = {}
    for stage, n, pool in (("conv1", 2, False), ("conv2", 2, True), ("conv3", 3, True),
                           ("conv4", 3, True), ("conv5", 3, True)):
        if pool:
            x = _maxpool2(x)
        for i in range(1, n + 1):
            x = _relu(_conv_bias(x, t, f"backbone/{stage}_{i}"))
        feats[stage] = x
    x = _relu(_conv_bias(x, t, "backbone/conv_fc6", stride=2))
    x = _relu(_conv_bias(x, t, "backbone/conv_fc7"))
    fc7 = x
    x = _relu(_conv_bias(x, t, "backbone/conv6_1"))
    x = _relu(_conv_bias(x, t, "backbone/conv6_2", stride=2))
    pyramid = [feats["conv4"], feats["conv5"], fc7, x]
    for lvl, name in ((0, "conv4_3"), (1, "conv5_3")):
        f = pyramid[lvl]
        unit = f / (np.sqrt((f * f).sum(axis=0, keepdims=True)) + 1e-10)
        pyramid[lvl] = unit * np.asarray(t[f"head/{name}_l2norm/scale"], dtype=np.float64)[:, None, None]
    return pyramid


MOBILENET_PLAN = (("conv2_1", 1), ("conv2_2", 2), ("conv3_1", 1), ("conv3_2", 2),
                  ("conv4_1", 1), ("conv4_2", 2), ("conv5_1", 1), ("conv5_2", 1),
                  ("conv5_3", 1), ("conv5_4", 1), ("conv5_5", 1), ("conv5_6", 2),
                  ("conv6", 1), ("conv7", 2))


def _mobilenetv1_pyramid(x, t):
    x = _conv_bn_relu(x, t, "backbone/conv1", stride=2)
    outs = {}
    for name, stride in MOBILENET_PLAN:
        x = _dw_separable(x, t, f"backbone/{name}", stride)
        outs[name] = x
    return [outs["conv4_1"], outs["conv5_5"], outs["conv6"], outs["conv7"]]


def _flatten(y, k):
    """(A*k, h, w) with channel a*k + j -> (h*w*A, k) rows ordered row, col, anchor."""
    ch, h, w = y.shape
    return y.reshape(ch // k, k, h, w).transpose(2, 3, 0, 1).reshape(-1, k)


def forward(backbone, tensors, image, num_classes):
    """Raw predictions (arm_obj, arm_deltas, odm_cls, odm_deltas) of one
    (1, 3, h, w) image, all float64 with one row per anchor."""
    t = tensors
    x = np.asarray(image, dtype=np.float64)[0]
    if backbone == "vgg16":
        pyramid = _vgg16_pyramid(x, t)
        interm = lambda i, f: _relu(_conv_bias(f, t, f"head/interm{i}"))
    elif backbone == "mobilenetv1":
        pyramid = _mobilenetv1_pyramid(x, t)
        interm = lambda i, f: _dw_separable(f, t, f"head/interm{i}")
    else:
        raise ValueError(f"no reference graph for backbone {backbone!r}")
    arm_obj = np.concatenate([_flatten(_conv_bias(f, t, f"head/arm_cls{i}"), 2) for i, f in enumerate(pyramid)])
    arm_deltas = np.concatenate([_flatten(_conv_bias(f, t, f"head/arm_reg{i}"), 4) for i, f in enumerate(pyramid)])
    fused = [None] * 4
    for i in (3, 2, 1, 0):
        y = _conv_bias(interm(i, pyramid[i]), t, f"head/tcb{i}/lateral")
        if i < 3:
            y = y + _deconv2x2(fused[i + 1], t[f"head/tcb{i}/up/w"])
        fused[i] = _relu(_conv_bias(_relu(y), t, f"head/tcb{i}/smooth"))
    odm_cls = np.concatenate([_flatten(_conv_bias(f, t, f"head/odm_cls{i}"), num_classes + 1)
                              for i, f in enumerate(fused)])
    odm_deltas = np.concatenate([_flatten(_conv_bias(f, t, f"head/odm_reg{i}"), 4) for i, f in enumerate(fused)])
    return {"arm_obj": arm_obj, "arm_deltas": arm_deltas, "odm_cls": odm_cls, "odm_deltas": odm_deltas}


# ---------------------------------------------------------------------------
# COCO-style mAP


COCO_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))


def _iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def average_precision(gts, dets, cls, thresh):
    """AP of one class at one IoU threshold.

    Detections are taken in (score desc, image id, file order); each claims
    the unmatched, non-ignored ground truth of its class with the highest IoU
    (the first on ties) if that IoU reaches the threshold; failing that, one
    that reaches an ignored box is not counted; any other is a false
    positive.  AP sums, over true positives in rank order, the best precision
    at that rank or later, divided by the number of non-ignored boxes.
    """
    ranked = sorted(((float(s), img, k) for img, (boxes, scores, cids) in dets.items()
                     for k, (s, c) in enumerate(zip(scores, cids)) if c == cls),
                    key=lambda r: (-r[0], r[1], r[2]))
    n_gt = sum(int(((g[1] == cls) & ~g[2]).sum()) for g in gts.values())
    used = {img: set() for img in gts}
    outcomes = []
    for _, img, k in ranked:
        box = [float(v) for v in dets[img][0][k]]
        if img not in gts:
            outcomes.append(0)
            continue
        g_boxes, g_cls, g_ign = gts[img]
        best, best_iou = None, -1.0
        for j in range(len(g_cls)):
            if g_cls[j] == cls and not g_ign[j] and j not in used[img]:
                v = _iou(box, [float(u) for u in g_boxes[j]])
                if v > best_iou:
                    best, best_iou = j, v
        if best is not None and best_iou >= thresh:
            used[img].add(best)
            outcomes.append(1)
        elif any(g_cls[j] == cls and g_ign[j] and _iou(box, [float(u) for u in g_boxes[j]]) >= thresh
                 for j in range(len(g_cls))):
            continue
        else:
            outcomes.append(0)
    precision = []
    tp = 0
    for rank, hit in enumerate(outcomes, 1):
        tp += hit
        precision.append(tp / rank)
    envelope = list(precision)
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    return sum(envelope[i] for i, hit in enumerate(outcomes) if hit) / n_gt


def coco_map(gts, dets):
    """Mean over the ten thresholds of the mean AP over classes that own at
    least one non-ignored ground-truth box.

    gts[image] = (boxes (m, 4), class_ids, ignore); dets[image] = (boxes, scores, class_ids).
    """
    classes = sorted({int(c) for g in gts.values() for c, ign in zip(g[1], g[2]) if not ign})
    per_thresh = [sum(average_precision(gts, dets, c, t) for c in classes) / len(classes)
                  for t in COCO_THRESHOLDS]
    return sum(per_thresh) / len(per_thresh)
