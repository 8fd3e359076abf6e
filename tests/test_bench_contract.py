"""The benchmark's tracer wraps package functions by name (bench/spans.py
WRAPPED).  A wrapped function that leaves the package drops its metrics from
the traced run, so every name it lists must keep resolving."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from refinedet_edge import postprocess

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
