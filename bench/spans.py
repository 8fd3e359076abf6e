"""Spans recorded from outside the program, and the per-layer metrics.

`Tracer` wraps public module functions of the package (replacing the module
attribute, so every caller that looks the name up at call time goes through
the wrapper) and serves as the `timer=` argument of `infer`.  Spans live in
memory until `dump` writes them out.  A function that the package no longer
has is skipped and listed in `missing`; the metrics that depend on it are then
left out of the report instead of failing the run.
"""

from contextlib import contextmanager
import json
import statistics
import time

CONV = ("tensor_ops.conv2d_ms", "tensor_ops.conv2d_calls", "tensor_ops.conv_dw_ms",
        "tensor_ops.conv_1x1_ms", "tensor_ops.conv_kxk_ms", "tensor_ops.conv_gmac",
        "tensor_ops.conv_gmac_per_s")
SUPPRESS = ("postprocess.nms_suppress_ms", "postprocess.nms_score_ms", "postprocess.candidates",
            "postprocess.detections", "postprocess.detections_per_suppress_in")

# (module, attribute, span name, mode, the metrics it feeds); "agg" keeps
# per-request totals instead of one span per call, for functions called
# thousands of times.  A metric is absent when any function feeding it is gone.
WRAPPED = (
    ("config", "parse_file", "config.parse_file", "span", ("config.parse_ms",)),
    ("head", "assemble_model", "head.assemble_model", "span", ("head.assemble_ms",)),
    ("head", "DetectionModel.bind", "head.bind", "span", ("head.bind_ms",)),
    ("weights", "load_wts", "weights.load_wts", "span", ("weights.load_s",)),
    ("weights", "fnv1a64", "weights.fnv1a64", "span", ("weights.digest_s",)),
    ("tensor_ops", "conv2d", "tensor_ops.conv2d", "span", CONV),
    ("tensor_ops", "deconv2d", "tensor_ops.deconv2d", "span", ("tensor_ops.deconv2d_ms",)),
    ("tensor_ops", "batch_norm_inference", "tensor_ops.batch_norm", "span", ("tensor_ops.batch_norm_ms",)),
    ("tensor_ops", "max_pool", "tensor_ops.pool", "span", ("tensor_ops.pool_ms",)),
    ("tensor_ops", "global_avg_pool", "tensor_ops.pool", "span", ("tensor_ops.pool_ms",)),
    ("tensor_ops", "relu", "tensor_ops.elementwise", "span", ("tensor_ops.elementwise_ms",)),
    ("tensor_ops", "sigmoid", "tensor_ops.elementwise", "span", ("tensor_ops.elementwise_ms",)),
    ("tensor_ops", "elementwise_add", "tensor_ops.elementwise", "span", ("tensor_ops.elementwise_ms",)),
    ("tensor_ops", "scale_channels", "tensor_ops.elementwise", "span", ("tensor_ops.elementwise_ms",)),
    ("postprocess", "arm_filter", "postprocess.arm_filter", "span",
     ("postprocess.arm_kept", "postprocess.arm_kept_per_anchor")),
    ("postprocess", "nms_greedy", "postprocess.nms_greedy", "span", SUPPRESS),
    ("postprocess", "iou_matrix", "postprocess.iou_matrix", "agg", ("postprocess.iou_matrix_calls",)),
    ("postprocess", "read_detections", "evaluate.read", "span", ("evaluate.read_s",)),
    ("evaluate", "read_ground_truth", "evaluate.read", "span", ("evaluate.read_s",)),
    ("evaluate", "average_precision", "evaluate.average_precision", "agg",
     ("evaluate.average_precision_calls",)),
    ("evaluate", "iou_matrix", "evaluate.iou_matrix", "agg",
     ("evaluate.iou_matrix_calls", "evaluate.iou_matrix_ms")),
)

PROGRAM_STAGES = ("backbone", "arm_head", "tcb", "odm_head", "arm_filter", "decode", "nms")


def _conv_attrs(args, kwargs, result):
    x, w = args[0], args[1]
    params = args[3] if len(args) > 3 else kwargs["params"]
    n, c_in = x.shape[:2]
    c_out, cg, kh, kw = w.shape
    oh, ow = result.shape[2:]
    if params.groups > 1 and params.groups == c_in == c_out:
        kind = "dw"
    elif (kh, kw) == (1, 1) and params.groups == 1:
        kind = "1x1"
    else:
        kind = "kxk"
    return {"kind": kind, "macs": int(n) * c_out * oh * ow * cg * kh * kw}


def _len_attrs(args, kwargs, result):
    return {"out": int(len(result))}


def _nms_attrs(args, kwargs, result):
    return {"in": int(len(args[0])), "out": int(len(result))}


ATTRS = {
    "tensor_ops.conv2d": _conv_attrs,
    "postprocess.arm_filter": _len_attrs,
    "postprocess.nms_greedy": _nms_attrs,
}


class Tracer:
    """In-memory spans: (request, span id, parent id, name, t0 ns, t1 ns, attrs)."""

    def __init__(self, modules):
        self.modules = modules      # short name -> imported module
        self.spans = []
        self.aggregates = {}        # (request, name) -> [calls, total ns]
        self.request = None
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name, attrs=None):
        """A span; also the program's `timer=` interface."""
        sid = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, t0, time.perf_counter_ns(), attrs)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, t0, t1, attrs):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.request, sid, parent, name, t0, t1, attrs))

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name, mode):
        attrs_of = ATTRS.get(name)
        aggregates = self.aggregates

        if mode == "agg":
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot = aggregates.setdefault((self.request, name), [0, 0])
                    slot[0] += 1
                    slot[1] += time.perf_counter_ns() - t0
            return wrapped

        def wrapped(*args, **kwargs):
            sid = self._open()
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                attrs = attrs_of(args, kwargs, result) if attrs_of and result is not None else None
                self._close(sid, name, t0, t1, attrs)
        return wrapped

    def install(self):
        """Wrap every function in WRAPPED that the package still has."""
        self.missing = []
        for mod_name, attr, name, mode, _ in WRAPPED:
            owner = self.modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrapper(fn, name, mode))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved = []

    # -- output -----------------------------------------------------------

    def totals(self, request, spans):
        """{span name: [calls, total ns]} of one request (None: set-up) from
        its spans, plus the aggregated functions."""
        out = {}
        for _, _, _, name, t0, t1, _ in spans:
            slot = out.setdefault(name, [0, 0])
            slot[0] += 1
            slot[1] += t1 - t0
        for (req, name), (calls, ns) in self.aggregates.items():
            if req == request:
                out[name] = [calls, ns]
        return out

    def dump(self, path, extra):
        payload = dict(extra)
        payload["span_fields"] = ["request", "id", "parent", "name", "t0_ns", "t1_ns", "attrs"]
        payload["spans"] = self.spans
        payload["aggregates"] = [[r, n, c, ns] for (r, n), (c, ns) in self.aggregates.items()]
        payload["missing"] = self.missing
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _infer_row(spans, tot, wall, counts):
    ms = lambda name: tot.get(name, [0, 0])[1] / 1e6
    row = {}
    for stage, metric in (("backbone", "blocks.backbone_ms"), ("arm_head", "head.arm_head_ms"),
                          ("tcb", "head.tcb_ms"), ("odm_head", "head.odm_head_ms"),
                          ("arm_filter", "postprocess.arm_filter_ms"),
                          ("decode", "postprocess.decode_ms"), ("nms", "postprocess.nms_ms")):
        row[metric] = ms(stage)
    row["trace.unspanned_ms"] = wall - sum(ms(s) for s in PROGRAM_STAGES)

    convs = [s for s in spans if s[3] == "tensor_ops.conv2d" and s[6]]
    conv_ms = sum(s[5] - s[4] for s in convs) / 1e6
    row["tensor_ops.conv2d_ms"] = conv_ms
    row["tensor_ops.conv2d_calls"] = len(convs)
    for kind in ("dw", "1x1", "kxk"):
        row[f"tensor_ops.conv_{kind}_ms"] = sum(s[5] - s[4] for s in convs if s[6]["kind"] == kind) / 1e6
    gmac = sum(s[6]["macs"] for s in convs) / 1e9
    row["tensor_ops.conv_gmac"] = gmac
    row["tensor_ops.conv_gmac_per_s"] = gmac / (conv_ms / 1e3) if conv_ms > 0 else 0.0
    row["tensor_ops.deconv2d_ms"] = ms("tensor_ops.deconv2d")
    row["tensor_ops.batch_norm_ms"] = ms("tensor_ops.batch_norm")
    row["tensor_ops.pool_ms"] = ms("tensor_ops.pool")
    row["tensor_ops.elementwise_ms"] = ms("tensor_ops.elementwise")

    nms = [s for s in spans if s[3] == "postprocess.nms_greedy" and s[6]]
    arm = [s for s in spans if s[3] == "postprocess.arm_filter" and s[6]]
    row["postprocess.nms_suppress_ms"] = sum(s[5] - s[4] for s in nms) / 1e6
    row["postprocess.nms_score_ms"] = row["postprocess.nms_ms"] - row["postprocess.nms_suppress_ms"]
    row["postprocess.anchors"] = counts["anchors"]
    row["postprocess.arm_kept"] = sum(s[6]["out"] for s in arm)
    row["postprocess.arm_kept_per_anchor"] = row["postprocess.arm_kept"] / counts["anchors"]
    row["postprocess.candidates"] = sum(s[6]["in"] for s in nms)
    row["postprocess.suppress_in"] = counts["suppress_in"]
    row["postprocess.iou_evals"] = counts["iou_evals"]
    row["postprocess.iou_matrix_calls"] = tot.get("postprocess.iou_matrix", [0, 0])[0]
    row["postprocess.detections"] = sum(s[6]["out"] for s in nms)
    row["postprocess.detections_per_suppress_in"] = (
        row["postprocess.detections"] / counts["suppress_in"] if counts["suppress_in"] else 0.0)
    return row


def _eval_row(tot, wall):
    return {
        "evaluate.coco_map_ms": wall,
        "evaluate.average_precision_calls": tot.get("evaluate.average_precision", [0, 0])[0],
        "evaluate.iou_matrix_calls": tot.get("evaluate.iou_matrix", [0, 0])[0],
        "evaluate.iou_matrix_ms": tot.get("evaluate.iou_matrix", [0, 0])[1] / 1e6,
    }


def per_layer_metrics(tracer, requests, walls_ms, counts, untraced_p50_ms, traced_p50_ms, kind):
    """Per-layer metrics: medians over the traced requests, plus set-up figures.

    `walls_ms[i]` is the benchmark's own wall time of traced request
    `requests[i]`, and `counts[i]` the NmsCounters figures it read for it.
    Metrics whose wrapped function the package no longer has are left out.
    """
    by_request = {}
    for s in tracer.spans:
        by_request.setdefault(s[0], []).append(s)
    rows = []
    for i, req in enumerate(requests):
        tot = tracer.totals(req, by_request.get(req, []))
        if kind == "infer":
            rows.append(_infer_row(by_request.get(req, []), tot, walls_ms[i], counts[i]))
        else:
            rows.append(_eval_row(tot, walls_ms[i]))
    metrics = {name: _median([r[name] for r in rows]) for name in (rows[0] if rows else ())}

    setup = tracer.totals(None, by_request.get(None, []))
    sec = lambda name: setup.get(name, [0, 0])[1] / 1e9
    if kind == "infer":
        metrics["config.parse_ms"] = sec("config.parse_file") * 1e3
        metrics["head.assemble_ms"] = sec("head.assemble_model") * 1e3
        metrics["head.bind_ms"] = sec("head.bind") * 1e3
        metrics["weights.load_s"] = sec("weights.load_wts")
        metrics["weights.digest_s"] = sec("weights.fnv1a64")
    else:
        metrics["evaluate.read_s"] = sec("evaluate.read")
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0)

    drop = {m for mod, attr, _, _, fed in WRAPPED if f"{mod}.{attr}" in tracer.missing for m in fed}
    return {k: v for k, v in metrics.items() if k not in drop}
