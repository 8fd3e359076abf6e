"""Model configuration: the flat text format, validation, and the canned
experiment table.

Configs are `key = value` lines with `#` comments; the first key must be
format_version.  The other keys are ModelSpec's field names, in field order,
with the NMS triple written as nms_max_input, nms_max_output and
nms_conf_thresh; every value is one string, integer or number.  The anchor
grid is not configured: it follows the backbone's pyramid strides.
parse -> serialize -> parse is the identity, and serialize emits that
canonical key order with exact float round-trips.
"""

from dataclasses import dataclass, fields
import logging
import math
import os
import re

from .blocks import BACKBONE_NAMES, PYRAMID_STRIDES
from .postprocess import CAP_SCOPES, DEFAULT_IOU_THRESH, DEFAULT_NEG_THRESH, NmsParams

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
    nms: NmsParams = NmsParams()
    nms_iou_thresh: float = DEFAULT_IOU_THRESH
    nms_cap_scope: str = "per_class"
    arm_neg_thresh: float = DEFAULT_NEG_THRESH
    weight_init_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.nms, NmsParams):
            object.__setattr__(self, "nms", NmsParams(*self.nms))
        for key in ("width_multiplier", "weight_init_sigma"):
            val = getattr(self, key)
            if not math.isfinite(val):
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
        if self.input_size % PYRAMID_STRIDES[-1] != 0:
            raise ValueError(f"input_size {self.input_size} is not divisible by stride {PYRAMID_STRIDES[-1]}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if not self.width_multiplier > 0:
            raise ValueError(f"width_multiplier must be > 0, got {self.width_multiplier}")
        if not (0.0 <= self.nms_iou_thresh < 1.0):
            raise ValueError(f"nms_iou_thresh must be in [0, 1), got {self.nms_iou_thresh}")
        if self.nms_cap_scope not in CAP_SCOPES:
            raise ValueError(f"nms_cap_scope must be one of {CAP_SCOPES}, got {self.nms_cap_scope!r}")
        if not (0.0 < self.arm_neg_thresh < 1.0):
            raise ValueError(f"arm_neg_thresh must be in (0, 1), got {self.arm_neg_thresh}")
        if not self.weight_init_sigma > 0:
            raise ValueError(f"weight_init_sigma must be > 0, got {self.weight_init_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# text format


def _key_table():
    """{config key: (ModelSpec field, NmsParams field or None, value type)}
    in canonical order; the nms field expands to one nms_* key per field."""
    table = {}
    for f in fields(ModelSpec):
        if f.type is NmsParams:
            table.update((f"{f.name}_{g.name}", (f.name, g.name, g.type)) for g in fields(NmsParams))
        else:
            table[f.name] = (f.name, None, f.type)
    return table


_KEYS = _key_table()
_NOUNS = {int: "an integer", float: "a number"}


def _convert(key, typ, val, where):
    """One str, int or float value from its text."""
    if typ is str:
        if not val:
            raise ConfigError(f"{where}: {key} must not be empty")
        return val
    try:
        return typ(val)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects {_NOUNS[typ]}, got {val!r}") from None


def parse(text, strict=True, source="<config>"):
    """Parse config text into a ModelSpec.

    Unknown keys are an error in strict mode and a logged warning otherwise.
    Every error names the source line.
    """
    kwargs = {}
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
            v = _convert(key, int, val, f"{source}:{n}")
            if v != CONFIG_FORMAT_VERSION:
                raise ConfigError(
                    f"{source}:{n}: unsupported format_version {v} (this build reads {CONFIG_FORMAT_VERSION})"
                )
            continue
        if key not in _KEYS:
            msg = f"{source}:{n}: unknown key {key!r}"
            if strict:
                raise ConfigError(msg)
            log.warning("%s (ignored)", msg)
            continue
        name, sub, typ = _KEYS[key]
        value = _convert(key, typ, val, f"{source}:{n}")
        if sub is None:
            kwargs[name] = value
        else:
            kwargs.setdefault(name, {})[sub] = value

    if first_key is None:
        raise ConfigError(f"{source}: empty config (format_version line is required)")
    try:
        if "nms" in kwargs:
            kwargs["nms"] = NmsParams(**kwargs["nms"])
        return ModelSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from None


def parse_file(path, strict=True):
    with open(path, encoding="utf-8-sig") as f:
        text = f.read()
    return parse(text, strict=strict, source=os.fspath(path))


def serialize(spec):
    """Canonical text form; parse(serialize(s)) == s exactly."""
    lines = [f"format_version = {CONFIG_FORMAT_VERSION}"]
    for key, (name, sub, _) in _KEYS.items():
        val = getattr(spec, name)
        val = val if sub is None else getattr(val, sub)
        # str of a float is its shortest round-trip form, also for numpy scalars
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


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


def fixture_spec(row):
    """Desk-size ModelSpec for one sweep row (exact topology, thin channels)."""
    head_depth, input_size = _model_variant(row.model)
    return ModelSpec(
        name=f"{row.model}-{row.backbone}-exp{row.exp:02d}",
        backbone=row.backbone,
        input_size=input_size,
        head_depth=head_depth,
        width_multiplier=FIXTURE_WIDTH_MULTIPLIER,
        nms=row.nms,
        seed=row.exp,
    )


def fixture_specs():
    return [fixture_spec(r) for r in table_experiments()]


def write_fixtures(out_dir):
    """Write exp01.cfg .. exp50.cfg; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for row in table_experiments():
        spec = fixture_spec(row)
        path = os.path.join(out_dir, f"exp{row.exp:02d}.cfg")
        write_config(path, spec)
        paths.append(path)
    return paths
