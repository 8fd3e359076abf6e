"""The benchmark's tracer wraps package functions by name (bench/spans.py
WRAPPED).  A wrapped function that leaves the package drops its metrics from
the traced run, so every name it lists must keep resolving."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from refinedet_edge import postprocess, tensor_ops
from refinedet_edge.config import ModelSpec
from refinedet_edge.head import build_model
from oracles import softmax_gold

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_spans().WRAPPED


@pytest.mark.parametrize("mod_name, attr", [(w[0], w[1]) for w in WRAPPED],
                         ids=[f"{w[0]}.{w[1]}" for w in WRAPPED])
def test_wrapped_function_resolves(mod_name, attr):
    owner = importlib.import_module(f"refinedet_edge.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"refinedet_edge.{mod_name}.{attr} is gone"
    assert callable(owner)


def test_nms_greedy_signature():
    # bench/test_refs.py wraps nms_greedy and calls it positionally; a new
    # parameter (a tile size, say) would shift its arguments
    params = inspect.signature(postprocess.nms_greedy).parameters
    assert list(params) == ["dets", "iou_thresh", "params", "counters", "cap_scope"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())


@pytest.mark.parametrize("triple, want", [((400, 200, 0.1), 0), ((1000, 500, 0.01), None)],
                         ids=["edge", "server"])
def test_nms_greedy_input_has_a_length(monkeypatch, triple, want):
    # bench/spans.py reads len(args[0]) of every nms_greedy call for
    # postprocess.candidates: the foreground probabilities at or above
    # conf_thresh (none at the edge budget under the default init)
    model = build_model(ModelSpec(backbone="vgg16", head_depth=256, width_multiplier=0.0625,
                                  num_classes=80))
    lengths = []
    nms_greedy = postprocess.nms_greedy
    monkeypatch.setattr(postprocess, "nms_greedy", lambda dets, *args, **kwargs:
                        lengths.append(len(dets)) or nms_greedy(dets, *args, **kwargs))
    image = np.random.default_rng(0).random((1, 3, 320, 320), dtype=np.float32)
    params = postprocess.NmsParams(*triple)
    model.infer(image, nms_params=params)
    if want is None:
        raw = model.forward(image)
        kept = postprocess.arm_filter(softmax_gold(raw.arm_obj[0], axis=1)[:, 0])
        probs = softmax_gold(raw.odm_cls[0][kept], axis=1)[:, 1:].astype(np.float64)
        want = int(np.count_nonzero(probs >= params.conf_thresh))
        assert want > 0
    assert lengths == [want]


@pytest.mark.parametrize("kind", ["resnext50", "se_resnext50", "xception", "mobilenetv2",
                                  "inception_senet"])
def test_layers_look_kernels_up_at_call_time(kind, monkeypatch):
    # the tracer replaces tensor_ops attributes after the model is built; a
    # layer holding its own reference to a kernel (an imported name, or a
    # function stored at construction) would bypass it and zero the conv
    # metrics.  Batch-norm is folded into each conv2d call, so the
    # standalone kernel runs no more.  Each level's cls and reg prediction
    # convs run as one call over concatenated weights (4 levels x 2 heads),
    # so the recorded output channels, not the calls, match the declarations
    # one to one: a declared conv that never ran would show in their sum.
    model = build_model(ModelSpec(backbone=kind, input_size=64, width_multiplier=0.0625,
                                  num_classes=4))
    calls = {"conv2d": 0, "batch_norm_inference": 0}
    c_outs = []
    for name in calls:
        def counted(*args, _real=getattr(tensor_ops, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "conv2d":
                c_outs.append(args[1].shape[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(tensor_ops, name, counted)
    model.forward(np.random.default_rng(0).random((1, 3, 64, 64), dtype=np.float32))
    decls = model.weight_manifest()
    convs = [d for d in decls
             if d.name.endswith("/w") and len(d.shape) == 4 and "/up/" not in d.name]
    assert any(d.name.endswith("/bn_gamma") for d in decls)
    assert calls == {"conv2d": len(convs) - 8, "batch_norm_inference": 0}
    assert sum(c_outs) == sum(d.shape[0] for d in convs)
