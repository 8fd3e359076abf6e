"""Each reference agrees with the program, and catches a fault planted in it.

    python3 -m pytest -q bench/test_refs.py

Faults are planted by replacing a package function for the duration of one
test (pytest's monkeypatch), never by editing the package.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from refinedet_edge import (  # noqa: E402
    ModelSpec, NmsParams, WeightBundle, build_model, evaluate, postprocess, tensor_ops,
)
from refinedet_edge.head import assemble_model  # noqa: E402

import checks  # noqa: E402
import refs  # noqa: E402
import workloads as wl  # noqa: E402

RAW_KEYS = ("arm_obj", "arm_deltas", "odm_cls", "odm_deltas")


def thin_spec(backbone, **kw):
    name = "RefineDet320" if backbone == "vgg16" else "rRefineDet320"
    depth = 256 if backbone == "vgg16" else 128
    return ModelSpec(name=name, backbone=backbone, head_depth=depth, width_multiplier=0.0625,
                     num_classes=4, seed=3, **kw)


# ---------------------------------------------------------------------------
# post-processing


def postprocess_problems(model, image):
    """Invariants and reference equality of one infer() call."""
    raw = model.forward(image)
    raw = {k: getattr(raw, k)[0] for k in RAW_KEYS}
    spec, nms = model.spec, model.spec.nms
    out = model.infer(image)
    det = {"boxes": out.boxes, "scores": out.scores, "class_ids": out.class_ids, "indices": out.indices}
    ref = refs.postprocess(raw["arm_obj"], raw["arm_deltas"], raw["odm_cls"], raw["odm_deltas"],
                           refs.anchors(spec.input_size), nms.max_input, nms.max_output,
                           nms.conf_thresh, spec.nms_iou_thresh, spec.arm_neg_thresh,
                           spec.nms_cap_scope, spec.input_size)
    bad = checks.invariants(out.boxes, out.scores, out.class_ids, out.indices, nms.max_output,
                            nms.conf_thresh, spec.nms_iou_thresh, spec.input_size, len(model.anchors))
    return bad + checks.same_detections(det, ref), len(ref["anchor"])


@pytest.fixture(scope="module")
def busy_model():
    # 4 classes put every class probability near 0.2, so (50, 30, 0.2) has
    # candidates to threshold, a per-class cap that binds and a truncation.
    return build_model(thin_spec("vgg16", nms=NmsParams(50, 30, 0.2)))


def test_anchor_reference_equals_program_grid(busy_model):
    assert np.array_equal(refs.anchors(320), busy_model.anchors.boxes)


@pytest.mark.parametrize("scope", ["per_class", "per_image"])
def test_postprocess_reference_equals_program(scope):
    model = build_model(thin_spec("vgg16", nms=NmsParams(50, 30, 0.2), nms_cap_scope=scope))
    problems, n = postprocess_problems(model, wl.make_image(7, 0))
    assert problems == []
    assert 0 < n <= 30  # per_class: truncation binds; per_image: the cap of 50 leaves fewer


@pytest.mark.parametrize("fault", ["iou_thresh", "cap", "truncation", "order"])
def test_postprocess_reference_catches_planted_fault(busy_model, monkeypatch, fault):
    original = postprocess.nms_greedy

    def faulty(dets, iou_thresh=0.45, params=NmsParams(), counters=None, cap_scope="per_class"):
        if fault == "iou_thresh":
            iou_thresh = iou_thresh + 0.1
        elif fault == "cap":
            params = NmsParams(params.max_input + 1, params.max_output, params.conf_thresh)
        elif fault == "truncation":
            params = NmsParams(params.max_input, params.max_output - 1, params.conf_thresh)
        out = original(dets, iou_thresh, params, counters, cap_scope)
        if fault == "order":
            order = np.arange(len(out))
            order[[3, 4]] = order[[4, 3]]
            out = out.take(order)
        return out

    monkeypatch.setattr(postprocess, "nms_greedy", faulty)
    problems, _ = postprocess_problems(busy_model, wl.make_image(7, 0))
    assert problems


def test_invariants_catch_overlap_and_order():
    boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11]], np.float32)
    bad = checks.invariants(boxes, np.array([0.5, 0.6], np.float32), np.array([1, 1], np.int32),
                            np.array([0, 1]), 200, 0.1, 0.45, 320, 10)
    assert any("non-increasing" in b for b in bad)
    assert any("IoU" in b for b in bad)


# ---------------------------------------------------------------------------
# forward pass


def forward_problems(spec, tensors, program_tensors=None):
    """Program forward under `program_tensors` (default: `tensors`) against
    the reference under `tensors`."""
    model = assemble_model(spec).bind(WeightBundle(program_tensors or tensors))
    image = wl.make_image(5, 1)
    raw = model.forward(image)
    raw = {k: getattr(raw, k)[0] for k in RAW_KEYS}
    return checks.forward_matches(raw, refs.forward(spec.backbone, dict(tensors), image,
                                                    spec.num_classes), "test")


def check_tensors(spec):
    return wl.check_bundle(assemble_model(spec).weight_manifest(), 11)


@pytest.mark.parametrize("backbone", ["vgg16", "mobilenetv1"])
def test_forward_reference_equals_program(backbone):
    spec = thin_spec(backbone)
    assert forward_problems(spec, check_tensors(spec)) == []
    default = list(build_model(spec).weights.items())
    assert forward_problems(spec, default) == []


def test_forward_tolerance_admits_batch_norm_folding():
    spec = thin_spec("mobilenetv1")
    tensors = dict(check_tensors(spec))
    folded = dict(tensors)
    for name in [n[: -len("/bn_gamma")] for n in tensors if n.endswith("/bn_gamma")]:
        t = {k: tensors[f"{name}/{k}"].astype(np.float64) for k in ("w", "bn_gamma", "bn_beta", "bn_mean", "bn_var")}
        scale = t["bn_gamma"] / np.sqrt(t["bn_var"] + 1e-5)
        folded[f"{name}/w"] = (t["w"] * scale[:, None, None, None]).astype(np.float32)
        folded[f"{name}/bn_gamma"] = np.ones_like(tensors[f"{name}/bn_gamma"])
        folded[f"{name}/bn_beta"] = (t["bn_beta"] - t["bn_mean"] * scale).astype(np.float32)
        folded[f"{name}/bn_mean"] = np.zeros_like(tensors[f"{name}/bn_mean"])
        folded[f"{name}/bn_var"] = np.full_like(tensors[f"{name}/bn_var"], 1.0 - 1e-5)
    assert forward_problems(spec, list(tensors.items()), list(folded.items())) == []


@pytest.mark.parametrize("backbone,a,b", [
    ("vgg16", "backbone/conv5_1/w", "backbone/conv5_2/w"),
    ("mobilenetv1", "backbone/conv5_3/pw/w", "backbone/conv5_4/pw/w"),
])
def test_forward_reference_catches_swapped_layer(backbone, a, b):
    spec = thin_spec(backbone)
    tensors = dict(check_tensors(spec))
    swapped = dict(tensors)
    swapped[a], swapped[b] = tensors[b], tensors[a]
    assert forward_problems(spec, list(tensors.items()), list(swapped.items()))


@pytest.mark.parametrize("backbone", ["vgg16", "mobilenetv1"])
def test_forward_reference_catches_wrong_kernel(backbone, monkeypatch):
    original = tensor_ops.conv2d

    def flipped(x, weights, bias, params):  # convolution instead of correlation
        return original(x, np.ascontiguousarray(weights[:, :, ::-1, ::-1]), bias, params)

    monkeypatch.setattr(tensor_ops, "conv2d", flipped)
    spec = thin_spec(backbone)
    assert forward_problems(spec, check_tensors(spec))


# ---------------------------------------------------------------------------
# COCO-style mAP


@pytest.fixture(scope="module")
def eval_set(tmp_path_factory):
    gts, dets = wl.make_eval_set(4)
    d = tmp_path_factory.mktemp("eval")
    wl.write_eval_csvs(gts, dets, d / "d.csv", d / "g.csv")
    loaded = (postprocess.read_detections(d / "d.csv"), evaluate.read_ground_truth(d / "g.csv"))
    return gts, dets, loaded


def test_ap_reference_equals_program(eval_set):
    gts, dets, (prog_dets, prog_gts) = eval_set
    value = evaluate.coco_map(prog_dets, prog_gts).mean
    assert 0.0 < value < 1.0
    assert checks.coco_map_matches(value, gts, dets) == []


def eleven_point_ap(tp, n_gt):
    """The VOC2007 11-point interpolation in place of the all-point one."""
    if len(tp) == 0:
        return 0.0
    ctp = np.cumsum(tp)
    recall, precision = ctp / n_gt, ctp / np.arange(1, len(tp) + 1)
    return float(np.mean([precision[recall >= r].max() if np.any(recall >= r) else 0.0
                          for r in np.linspace(0, 1, 11)]))


@pytest.mark.parametrize("fault", ["plus_one_iou", "ignore_dropped", "eleven_point"])
def test_ap_reference_catches_planted_fault(eval_set, monkeypatch, fault):
    gts, dets, (prog_dets, prog_gts) = eval_set
    if fault == "plus_one_iou":  # the legacy "+1 pixel" box size
        monkeypatch.setattr(evaluate, "iou_matrix",
                            lambda a, b: postprocess.iou_matrix(np.asarray(a) + [0, 0, 1, 1],
                                                                np.asarray(b) + [0, 0, 1, 1]))
    elif fault == "ignore_dropped":
        prog_gts = {k: evaluate.GroundTruth(g.boxes, g.class_ids) for k, g in prog_gts.items()}
    else:
        monkeypatch.setattr(evaluate, "_ap_from_matches", eleven_point_ap)
    assert checks.coco_map_matches(evaluate.coco_map(prog_dets, prog_gts).mean, gts, dets)
