"""Model configuration: the flat text format, validation, and the canned
experiment table.

Configs are `key = value` lines with `#` comments; the first key must be
format_version.  parse -> serialize -> parse is the identity, and serialize
emits a canonical key order with exact float round-trips.
"""

from dataclasses import dataclass, field
import logging
import math
import os
import re

from .blocks import BACKBONE_NAMES
from .postprocess import CAP_SCOPES, NmsParams

log = logging.getLogger(__name__)

CONFIG_FORMAT_VERSION = 1
LEGAL_HEAD_DEPTHS = (128, 256)
FIXTURE_WIDTH_MULTIPLIER = 0.0625


class ConfigError(ValueError):
    """Malformed or invalid configuration text."""


@dataclass(frozen=True)
class ModelSpec:
    """Complete description of one detector variant."""

    name: str = "RefineDet320"
    backbone: str = "vgg16"
    input_size: int = 320
    head_depth: int = 256
    num_classes: int = 80
    width_multiplier: float = 1.0
    anchor_strides: tuple = (8, 16, 32, 64)
    anchor_scales: tuple = ()
    anchor_ratios: tuple = (0.5, 1.0, 2.0)
    nms: NmsParams = NmsParams(400, 200, 0.1)
    nms_iou_thresh: float = 0.45
    nms_cap_scope: str = "per_class"
    arm_neg_thresh: float = 0.99
    weight_init_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        set_ = lambda k, v: object.__setattr__(self, k, v)
        if not isinstance(self.nms, NmsParams):
            set_("nms", NmsParams(*self.nms))
        set_("anchor_strides", tuple(int(s) for s in self.anchor_strides))
        set_("anchor_ratios", tuple(float(r) for r in self.anchor_ratios))
        scales = tuple(float(s) for s in self.anchor_scales)
        if not scales:
            scales = tuple(4.0 * s for s in self.anchor_strides)
        set_("anchor_scales", scales)
        for key in ("width_multiplier", "anchor_scales", "anchor_ratios", "weight_init_sigma"):
            val = getattr(self, key)
            if not all(math.isfinite(v) for v in (val if isinstance(val, tuple) else (val,))):
                raise ValueError(f"{key} must be finite, got {val}")

        if not self.name or self.name != self.name.strip() or "\n" in self.name or "#" in self.name:
            raise ValueError(f"name must be a clean single-line string, got {self.name!r}")
        if self.backbone not in BACKBONE_NAMES:
            raise ValueError(
                f"unknown backbone {self.backbone!r}; legal backbones: {', '.join(BACKBONE_NAMES)}"
            )
        if self.head_depth not in LEGAL_HEAD_DEPTHS:
            raise ValueError(f"head_depth must be one of {LEGAL_HEAD_DEPTHS}, got {self.head_depth}")
        if self.input_size < 1:
            raise ValueError(f"input_size must be >= 1, got {self.input_size}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if not self.width_multiplier > 0:
            raise ValueError(f"width_multiplier must be > 0, got {self.width_multiplier}")
        if len(self.anchor_strides) != 4:
            raise ValueError(f"anchor_strides needs exactly 4 levels, got {len(self.anchor_strides)}")
        for a, b in zip(self.anchor_strides, self.anchor_strides[1:]):
            if b != 2 * a:
                raise ValueError(f"anchor_strides must double per level, got {self.anchor_strides}")
        for s in self.anchor_strides:
            if s < 1:
                raise ValueError(f"anchor_strides must be positive, got {self.anchor_strides}")
            if self.input_size % s != 0:
                raise ValueError(f"input_size {self.input_size} is not divisible by stride {s}")
        if len(self.anchor_scales) != len(self.anchor_strides):
            raise ValueError(
                f"got {len(self.anchor_scales)} anchor_scales for {len(self.anchor_strides)} strides"
            )
        if any(s <= 0 for s in self.anchor_scales):
            raise ValueError(f"anchor_scales must be positive, got {self.anchor_scales}")
        if not self.anchor_ratios or any(r <= 0 for r in self.anchor_ratios):
            raise ValueError(f"anchor_ratios must be positive and non-empty, got {self.anchor_ratios}")
        if not (0.0 <= self.nms_iou_thresh < 1.0):
            raise ValueError(f"nms_iou_thresh must be in [0, 1), got {self.nms_iou_thresh}")
        if self.nms_cap_scope not in CAP_SCOPES:
            raise ValueError(f"nms_cap_scope must be one of {CAP_SCOPES}, got {self.nms_cap_scope!r}")
        if not (0.0 < self.arm_neg_thresh < 1.0):
            raise ValueError(f"arm_neg_thresh must be in (0, 1), got {self.arm_neg_thresh}")
        if not self.weight_init_sigma > 0:
            raise ValueError(f"weight_init_sigma must be > 0, got {self.weight_init_sigma}")


# ---------------------------------------------------------------------------
# text format


def _parse_int(key, val, source, n):
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"{source}:{n}: {key} expects an integer, got {val!r}") from None


def _parse_float(key, val, source, n):
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"{source}:{n}: {key} expects a number, got {val!r}") from None


def _parse_str(key, val, source, n):
    if not val:
        raise ConfigError(f"{source}:{n}: {key} must not be empty")
    return val


def _parse_int_tuple(key, val, source, n):
    try:
        return tuple(int(v.strip()) for v in val.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{source}:{n}: {key} expects comma-separated integers, got {val!r}") from None


def _parse_float_tuple(key, val, source, n):
    try:
        return tuple(float(v.strip()) for v in val.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{source}:{n}: {key} expects comma-separated numbers, got {val!r}") from None


_PARSERS = {
    "name": _parse_str,
    "backbone": _parse_str,
    "input_size": _parse_int,
    "head_depth": _parse_int,
    "num_classes": _parse_int,
    "width_multiplier": _parse_float,
    "anchor_strides": _parse_int_tuple,
    "anchor_scales": _parse_float_tuple,
    "anchor_ratios": _parse_float_tuple,
    "nms_max_input": _parse_int,
    "nms_max_output": _parse_int,
    "nms_conf_thresh": _parse_float,
    "nms_iou_thresh": _parse_float,
    "nms_cap_scope": _parse_str,
    "arm_neg_thresh": _parse_float,
    "weight_init_sigma": _parse_float,
    "seed": _parse_int,
}

_NMS_KEYS = ("nms_max_input", "nms_max_output", "nms_conf_thresh")


def parse(text, strict=True, source="<config>"):
    """Parse config text into a ModelSpec.

    Unknown keys are an error in strict mode and a logged warning otherwise.
    Every error names the source line.
    """
    values = {}
    seen = {}
    first_key = None
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{n}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"{source}:{n}: missing key before '='")
        if key in seen:
            raise ConfigError(f"{source}:{n}: duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = n
        if first_key is None:
            first_key = key
            if key != "format_version":
                raise ConfigError(f"{source}:{n}: first key must be format_version, got {key!r}")
        if key == "format_version":
            v = _parse_int(key, val, source, n)
            if v != CONFIG_FORMAT_VERSION:
                raise ConfigError(
                    f"{source}:{n}: unsupported format_version {v} (this build reads {CONFIG_FORMAT_VERSION})"
                )
            continue
        if key not in _PARSERS:
            msg = f"{source}:{n}: unknown key {key!r}"
            if strict:
                raise ConfigError(msg)
            log.warning("%s (ignored)", msg)
            continue
        values[key] = _PARSERS[key](key, val, source, n)

    if first_key is None:
        raise ConfigError(f"{source}: empty config (format_version line is required)")

    nms_kwargs = {}
    for key, arg in zip(_NMS_KEYS, ("max_input", "max_output", "conf_thresh")):
        if key in values:
            nms_kwargs[arg] = values.pop(key)
    try:
        if nms_kwargs:
            values["nms"] = NmsParams(
                nms_kwargs.get("max_input", NmsParams.max_input),
                nms_kwargs.get("max_output", NmsParams.max_output),
                nms_kwargs.get("conf_thresh", NmsParams.conf_thresh),
            )
        return ModelSpec(**values)
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from None


def parse_file(path, strict=True):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return parse(text, strict=strict, source=os.fspath(path))


def serialize(spec):
    """Canonical text form; parse(serialize(s)) == s exactly."""
    rows = [
        ("format_version", CONFIG_FORMAT_VERSION),
        ("name", spec.name),
        ("backbone", spec.backbone),
        ("input_size", spec.input_size),
        ("head_depth", spec.head_depth),
        ("num_classes", spec.num_classes),
        ("width_multiplier", repr(spec.width_multiplier)),
        ("anchor_strides", ",".join(str(s) for s in spec.anchor_strides)),
        ("anchor_scales", ",".join(repr(s) for s in spec.anchor_scales)),
        ("anchor_ratios", ",".join(repr(r) for r in spec.anchor_ratios)),
        ("nms_max_input", spec.nms.max_input),
        ("nms_max_output", spec.nms.max_output),
        ("nms_conf_thresh", repr(spec.nms.conf_thresh)),
        ("nms_iou_thresh", repr(spec.nms_iou_thresh)),
        ("nms_cap_scope", spec.nms_cap_scope),
        ("arm_neg_thresh", repr(spec.arm_neg_thresh)),
        ("weight_init_sigma", repr(spec.weight_init_sigma)),
        ("seed", spec.seed),
    ]
    return "\n".join(f"{k} = {v}" for k, v in rows) + "\n"


def write_config(path, spec):
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize(spec))


# ---------------------------------------------------------------------------
# the 50-experiment sweep table


@dataclass(frozen=True)
class ExperimentRow:
    exp: int
    model: str
    backbone: str
    nms: NmsParams


_TRIPLE_EDGE = NmsParams(400, 200, 0.1)
_TRIPLE_FULL = NmsParams(1000, 500, 0.01)

# (backbone, model variants in row order); each variant appears with the
# edge-tuned triple first, then the full triple.
_TABLE_BLOCKS = (
    ("vgg16", ("rRefineDet320", "RefineDet320", "rRefineDet512", "RefineDet512")),
    ("resnet18", ("rRefineDet320", "RefineDet320", "rRefineDet512", "RefineDet512")),
    ("mobilenetv1", ("rRefineDet320", "RefineDet320")),
    ("mobilenetv2", ("rRefineDet320", "RefineDet320")),
    ("inception_senet", ("rRefineDet320", "RefineDet320", "rRefineDet512")),
    ("se_resnext50", ("rRefineDet320",)),
    ("resnext26", ("rRefineDet320", "RefineDet320", "rRefineDet512", "RefineDet512")),
    ("xception", ("rRefineDet320", "RefineDet320")),
    ("resnext50", ("rRefineDet320", "RefineDet320", "rRefineDet512")),
)


def table_experiments():
    """All 50 sweep rows: (exp number, model variant, backbone, NMS triple)."""
    rows = []
    exp = 0
    for backbone, models in _TABLE_BLOCKS:
        for model in models:
            for triple in (_TRIPLE_EDGE, _TRIPLE_FULL):
                exp += 1
                rows.append(ExperimentRow(exp, model, backbone, triple))
    assert len(rows) == 50
    return tuple(rows)


def _model_variant(model):
    m = re.fullmatch(r"(r?)RefineDet(\d+)", model)
    if not m:
        raise ValueError(f"unrecognized model variant {model!r}")
    return (128 if m.group(1) == "r" else 256), int(m.group(2))


def fixture_spec(row, width_multiplier=FIXTURE_WIDTH_MULTIPLIER):
    """Desk-size ModelSpec for one sweep row (exact topology, thin channels)."""
    head_depth, input_size = _model_variant(row.model)
    return ModelSpec(
        name=f"{row.model}-{row.backbone}-exp{row.exp:02d}",
        backbone=row.backbone,
        input_size=input_size,
        head_depth=head_depth,
        width_multiplier=width_multiplier,
        nms=row.nms,
        seed=row.exp,
    )


def fixture_specs(width_multiplier=FIXTURE_WIDTH_MULTIPLIER):
    return [fixture_spec(r, width_multiplier) for r in table_experiments()]


def write_fixtures(out_dir, width_multiplier=FIXTURE_WIDTH_MULTIPLIER):
    """Write exp01.cfg .. exp50.cfg; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for row in table_experiments():
        spec = fixture_spec(row, width_multiplier)
        path = os.path.join(out_dir, f"exp{row.exp:02d}.cfg")
        write_config(path, spec)
        paths.append(path)
    return paths
