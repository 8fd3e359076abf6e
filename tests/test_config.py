import hashlib
import logging

import numpy as np
import pytest

from refinedet_edge import config as C
from refinedet_edge.postprocess import NmsParams


BASIC = """\
format_version = 1
name = RefineDet320
backbone = vgg16
input_size = 320
head_depth = 256
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal():
    spec = C.parse(BASIC)
    assert spec.name == "RefineDet320"
    assert spec.backbone == "vgg16"
    assert spec.input_size == 320
    assert spec.head_depth == 256
    # defaults fill the rest
    assert spec.num_classes == 80
    assert spec.nms == NmsParams(400, 200, 0.1)
    assert spec.nms_iou_thresh == 0.45
    assert spec.arm_neg_thresh == 0.99
    assert spec.weight_init_sigma == 0.01


def test_parse_comments_and_blank_lines():
    text = "# full config\nformat_version = 1\n\nname = X  # inline comment\nbackbone = resnet18\n"
    spec = C.parse(text)
    assert spec.name == "X"
    assert spec.backbone == "resnet18"


def test_format_version_must_come_first():
    with pytest.raises(C.ConfigError, match="format_version"):
        C.parse("name = X\nformat_version = 1\n")
    with pytest.raises(C.ConfigError, match="format_version"):
        C.parse("name = X\n")
    with pytest.raises(C.ConfigError, match="unsupported format_version"):
        C.parse("format_version = 2\nname = X\n")


def test_duplicate_keys_rejected_with_line_number():
    text = "format_version = 1\nname = A\nname = B\n"
    with pytest.raises(C.ConfigError, match=r":3.*duplicate"):
        C.parse(text, source="cfg")


def test_bad_value_reports_line():
    text = "format_version = 1\ninput_size = large\n"
    with pytest.raises(C.ConfigError, match=r"cfg:2"):
        C.parse(text, source="cfg")


def test_missing_equals_reports_line():
    with pytest.raises(C.ConfigError, match=r":2"):
        C.parse("format_version = 1\nnonsense line\n")


def test_unknown_key_strict_vs_lenient(caplog):
    text = BASIC + "frobnication_level = 9\n"
    with pytest.raises(C.ConfigError, match="unknown key 'frobnication_level'"):
        C.parse(text, strict=True)
    with caplog.at_level(logging.WARNING, logger="refinedet_edge.config"):
        spec = C.parse(text, strict=False)
    assert spec.name == "RefineDet320"
    assert any("frobnication_level" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("line", [
    "anchor_strides = 8,16,32,64",
    "anchor_scales = 32,64,128,256",
    "anchor_ratios = 0.5,1.0,2.0",
])
def test_retired_anchor_keys(line, caplog):
    # the anchor grid follows the backbone pyramid; configs written when it
    # was configurable are refused when strict and read without the line otherwise
    key = line.split()[0]
    text = f"{BASIC}{line}\nseed = 7\n"
    with pytest.raises(C.ConfigError, match=f"^cfg:6: unknown key '{key}'$"):
        C.parse(text, source="cfg")
    with caplog.at_level(logging.WARNING, logger="refinedet_edge.config"):
        spec = C.parse(text, strict=False, source="cfg")
    assert spec == C.parse(f"{BASIC}seed = 7\n")
    assert [rec.getMessage() for rec in caplog.records] == [f"cfg:6: unknown key '{key}' (ignored)"]


def test_nms_triple_keys():
    text = ("format_version = 1\nnms_max_input = 1000\n"
            "nms_max_output = 500\nnms_conf_thresh = 0.01\n")
    spec = C.parse(text)
    assert spec.nms == NmsParams(1000, 500, 0.01)


def test_validation_errors_from_values():
    with pytest.raises(C.ConfigError, match="legal backbones"):
        C.parse("format_version = 1\nbackbone = alexnet\n")
    with pytest.raises(C.ConfigError, match="head_depth"):
        C.parse("format_version = 1\nhead_depth = 192\n")
    with pytest.raises(C.ConfigError, match="divisible"):
        C.parse("format_version = 1\ninput_size = 300\n")
    # a multiple of 32 but not of the top pyramid stride
    with pytest.raises(C.ConfigError, match="input_size 96 is not divisible by stride 64"):
        C.parse("format_version = 1\ninput_size = 96\n")


@pytest.mark.parametrize("line", [
    "width_multiplier = inf",
    "width_multiplier = nan",
    "weight_init_sigma = inf",
    "weight_init_sigma = nan",
])
def test_non_finite_values_rejected(line):
    # inf and nan pass the sign checks; unchecked, they overflow channel
    # counts or give NaN weights and empty detection lists without an error
    with pytest.raises(C.ConfigError, match=f"{line.split()[0]} must be finite"):
        C.parse(f"format_version = 1\n{line}\n")


# ---------------------------------------------------------------------------
# serialize round trip


def test_serialize_parse_identity_on_defaults():
    spec = C.ModelSpec()
    assert C.parse(C.serialize(spec)) == spec


def test_serialize_parse_identity_on_odd_floats():
    spec = C.ModelSpec(width_multiplier=0.3, weight_init_sigma=1 / 3,
                       nms=NmsParams(123, 45, 0.037))
    back = C.parse(C.serialize(spec))
    assert back == spec  # exact: floats serialized via repr


# SHA-256 over serialize(ModelSpec()) and serialize of all 50 fixture specs:
# configs written earlier stay byte-identical.  When the anchor_* keys were
# retired this was re-pinned to the hash of the earlier outputs with every
# anchor_ line removed, so each surviving line is unchanged.
SERIALIZE_SHA256 = "a35148bbeeeb286136c16704581b342218885a313ad2d76c045363a3f87bef48"


def test_serialize_bytes_are_pinned():
    specs = [C.ModelSpec()] + C.fixture_specs()
    h = hashlib.sha256()
    for spec in specs:
        h.update(C.serialize(spec).encode())
        assert C.parse(C.serialize(spec)) == spec
    assert h.hexdigest() == SERIALIZE_SHA256


def test_serialize_writes_numpy_scalars_as_numbers():
    spec = C.ModelSpec(input_size=np.int64(320), width_multiplier=np.float64(0.3),
                       nms=NmsParams(np.int64(123), 45, np.float64(0.037)))
    plain = C.ModelSpec(input_size=320, width_multiplier=0.3, nms=NmsParams(123, 45, 0.037))
    assert C.serialize(spec) == C.serialize(plain)
    assert C.parse(C.serialize(spec)) == spec


def test_parse_file(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text(BASIC)
    assert C.parse_file(path).name == "RefineDet320"


def test_parse_file_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + BASIC.encode())
    assert C.parse_file(path) == C.parse(BASIC)


def test_write_config_round_trip(tmp_path):
    spec = C.ModelSpec(name="rRefineDet512", backbone="xception",
                       input_size=512, head_depth=128, width_multiplier=0.5)
    path = tmp_path / "m.cfg"
    C.write_config(path, spec)
    assert C.parse_file(path) == spec


# ---------------------------------------------------------------------------
# spec validation and advisory checks


def test_model_spec_validations():
    with pytest.raises(ValueError, match="input_size"):
        C.ModelSpec(input_size=0)
    with pytest.raises(ValueError, match="num_classes"):
        C.ModelSpec(num_classes=0)
    with pytest.raises(ValueError, match="width_multiplier"):
        C.ModelSpec(width_multiplier=-1.0)
    with pytest.raises(ValueError, match="name"):
        C.ModelSpec(name="two\nlines")
    with pytest.raises(ValueError, match="cap_scope"):
        C.ModelSpec(nms_cap_scope="global")
    with pytest.raises(ValueError, match="neg_thresh"):
        C.ModelSpec(arm_neg_thresh=1.0)
    with pytest.raises(ValueError, match="sigma"):
        C.ModelSpec(weight_init_sigma=0.0)


def test_negative_seed_rejected():
    # numpy's generator refuses it too, but only at build time and naming
    # neither the key nor the config
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        C.ModelSpec(seed=-3)
    with pytest.raises(C.ConfigError, match="^cfg: seed must be >= 0, got -3$"):
        C.parse("format_version = 1\nseed = -3\n", source="cfg")
    assert C.ModelSpec(seed=0).seed == 0


# ---------------------------------------------------------------------------
# the experiment table


def test_table_has_50_rows_with_alternating_triples():
    rows = C.table_experiments()
    assert len(rows) == 50
    assert [r.exp for r in rows] == list(range(1, 51))
    for r in rows:
        want = NmsParams(400, 200, 0.1) if r.exp % 2 == 1 else NmsParams(1000, 500, 0.01)
        assert r.nms == want, r
    # model variant repeats across the edge/full pair
    for a, b in zip(rows[0::2], rows[1::2]):
        assert (a.model, a.backbone) == (b.model, b.backbone)


def test_table_backbone_census():
    rows = C.table_experiments()
    census = {}
    for r in rows:
        census[r.backbone] = census.get(r.backbone, 0) + 1
    assert census == {
        "vgg16": 8, "resnet18": 8, "mobilenetv1": 4, "mobilenetv2": 4,
        "inception_senet": 6, "se_resnext50": 2, "resnext26": 8,
        "xception": 4, "resnext50": 6,
    }


def test_fixture_spec_derives_geometry_from_model_name():
    rows = C.table_experiments()
    by_exp = {r.exp: r for r in rows}
    s9 = C.fixture_spec(by_exp[9])
    assert s9.name == "rRefineDet320-resnet18-exp09"
    assert s9.head_depth == 128
    assert s9.input_size == 320
    assert s9.width_multiplier == C.FIXTURE_WIDTH_MULTIPLIER
    assert s9.seed == 9
    s16 = C.fixture_spec(by_exp[16])
    assert s16.head_depth == 256 and s16.input_size == 512


def test_write_fixtures_round_trip(tmp_path):
    paths = C.write_fixtures(tmp_path)
    assert len(paths) == 50
    specs = C.fixture_specs()
    for path, want in zip(paths, specs):
        assert C.parse_file(path) == want
