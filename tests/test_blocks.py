import numpy as np
import pytest

from refinedet_edge import blocks as B
from refinedet_edge import tensor_ops as T
from refinedet_edge import weights as W
from oracles import conv2d_gold
from test_tensor_ops import ATOL, RTOL


def fill_bundle(decl_list, rng=None, overrides=None):
    """Materialize declarations: constants as declared, the rest zeros or
    (when an rng is given) standard-normal draws."""
    tensors = []
    for d in decl_list:
        if overrides and d.name in overrides:
            v = np.asarray(overrides[d.name], np.float32).reshape(d.shape)
        elif d.const is not None:
            v = np.full(d.shape, d.const, np.float32)
        elif rng is None:
            v = np.zeros(d.shape, np.float32)
        else:
            v = rng.standard_normal(d.shape).astype(np.float32)
        tensors.append((d.name, v))
    return W.WeightBundle(tensors)


def rand_map(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


# ---------------------------------------------------------------------------
# sizing helpers


def test_scaled():
    assert B.scaled(256, 0.0625) == 16
    assert B.scaled(96, 1.0) == 96
    assert B.scaled(1, 0.1) == 1  # floor of 1, never vanishes
    assert B.scaled(24, 0.5) == 12


def test_effective_cardinality():
    assert B.effective_cardinality(128, 32) == 32
    assert B.effective_cardinality(16, 32) == 16
    assert B.effective_cardinality(24, 32) == 24
    assert B.effective_cardinality(10, 4) == 2
    assert B.effective_cardinality(7, 32) == 7
    assert B.effective_cardinality(1, 32) == 1
    with pytest.raises(ValueError):
        B.effective_cardinality(8, 0)


# ---------------------------------------------------------------------------
# primitive units


def conv_bn_relu_gold(x, bundle, unit):
    """The unfolded unit in float64: conv oracle (with the bias of a unit
    without batch-norm), batch-norm formula, relu."""
    n = unit.name
    p = unit.params
    b = None if unit.bn else bundle[f"{n}/b"]
    y = conv2d_gold(x, bundle[f"{n}/w"], b, p.stride, p.padding, groups=p.groups).astype(np.float64)
    if unit.bn:
        stat = {k: bundle[f"{n}/bn_{k}"].astype(np.float64)[None, :, None, None]
                for k in ("gamma", "beta", "mean", "var")}
        y = stat["gamma"] * (y - stat["mean"]) / np.sqrt(stat["var"] + T.BN_EPS) + stat["beta"]
    return np.maximum(y, 0.0) if unit.act == "relu" else y


def bn_unit_bundle(unit, seed):
    """Random weights (scaled to keep the oracle's float32 conv rounding far
    below ATOL) and non-trivial running statistics."""
    rng = np.random.default_rng(seed)
    w_shape = (unit.c_out, unit.c_in // unit.params.groups, *unit.params.kernel)
    over = {f"{unit.name}/w": 0.2 * rng.standard_normal(w_shape),
            f"{unit.name}/bn_mean": 0.3 * rng.standard_normal(unit.c_out),
            f"{unit.name}/bn_var": rng.uniform(0.5, 1.5, unit.c_out)}
    return fill_bundle(unit.decls(), rng, over)


CONV_UNITS = {
    "depthwise": dict(c_in=6, c_out=6, kernel=3, stride=2, groups=6),
    "dense": dict(c_in=3, c_out=5, kernel=3, stride=2),
    "grouped": dict(c_in=8, c_out=4, kernel=3, stride=1, groups=2),
}


@pytest.mark.parametrize("act", ["relu", "none"])
@pytest.mark.parametrize("bn", [True, False], ids=["no_bias", "bias"])
@pytest.mark.parametrize("kind", sorted(CONV_UNITS))
def test_conv_unit_is_conv_bn_relu(kind, bn, act):
    # the unit's two forms: folded batch-norm and no bias, or a bias and no batch-norm
    unit = B.ConvUnit("u", **CONV_UNITS[kind], bn=bn, act=act)
    bundle = bn_unit_bundle(unit, 0)
    x = rand_map((2, unit.c_in, 9, 9), 1)
    got = unit.forward(x, bundle)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, conv_bn_relu_gold(x, bundle, unit), rtol=RTOL, atol=ATOL)
    if act == "relu":
        assert got.min() == 0


def test_conv_unit_forward_repeats_and_leaves_weights_alone():
    unit = B.ConvUnit("u", 3, 5, 3)
    bundle = bn_unit_bundle(unit, 4)
    before = bundle.digest()
    x = rand_map((1, 3, 8, 8), 5)
    first = unit.forward(x, bundle)
    second = unit.forward(x, bundle)
    np.testing.assert_array_equal(first, second)
    assert bundle.digest() == before


def test_conv_unit_rejects_negative_variance():
    unit = B.ConvUnit("stage/u", 3, 4, 3)
    var = np.ones(4)
    var[2] = -0.5
    bundle = fill_bundle(unit.decls(), np.random.default_rng(6), {"stage/u/bn_var": var})
    with pytest.raises(ValueError, match=r"stage/u/bn_var .*-0\.5 at channel 2"):
        unit.forward(rand_map((1, 3, 6, 6), 7), bundle)


def test_conv_unit_takes_one_int_kernel():
    with pytest.raises(ValueError, match=r"^stage/u: kernel must be one int, got \(1, 3\)$"):
        B.ConvUnit("stage/u", 4, 4, (1, 3))


def test_conv_unit_declared_parameter_count():
    def trainable(unit):
        return sum(d.size for d in unit.decls() if d.trainable)

    # plain 3x3, 16 -> 32, bias: 32*16*9 + 32
    assert trainable(B.ConvUnit("u", 16, 32, 3, bn=False)) == 32 * 16 * 9 + 32
    # depthwise 3x3 over 64 channels with bn: 64*1*9 + 2*64 (running stats are not counted)
    assert trainable(B.ConvUnit("u", 64, 64, 3, groups=64)) == 64 * 9 + 128
    # grouped: 32 groups, 128 -> 256: 256*(128/32)*9 weights
    assert B.ConvUnit("u", 128, 256, 3, groups=32).decls()[0].size == 256 * 4 * 9
    with pytest.raises(ValueError, match=r"^stage/u: groups=4 does not divide channels 10 -> 4$"):
        B.ConvUnit("stage/u", 10, 4, 1, groups=4)
    with pytest.raises(ValueError, match="groups=4 does not divide channels 8 -> 6"):
        B.ConvUnit("u", 8, 6, 1, groups=4)


def test_conv_unit_bias_no_bn():
    rng = np.random.default_rng(2)
    unit = B.ConvUnit("u", 4, 2, 1, bn=False, act="none")
    bundle = fill_bundle(unit.decls(), rng)
    x = rand_map((1, 4, 3, 3), 3)
    got = unit.forward(x, bundle)
    want = T.conv2d(x, bundle["u/w"], bundle["u/b"], T.ConvParams(1))
    np.testing.assert_array_equal(got, want)
    names = [d.name for d in unit.decls()]
    assert names == ["u/w", "u/b"]


def test_conv_unit_bn_decl_set():
    unit = B.ConvUnit("u", 4, 8, 3)
    by_name = {d.name: d for d in unit.decls()}
    assert by_name["u/w"].shape == (8, 4, 3, 3)
    assert by_name["u/bn_mean"].const == 0.0 and not by_name["u/bn_mean"].trainable
    assert by_name["u/bn_var"].const == 1.0 and not by_name["u/bn_var"].trainable
    assert by_name["u/bn_gamma"].trainable and by_name["u/bn_beta"].trainable
    assert "u/b" not in by_name


def test_deconv_unit_doubles():
    rng = np.random.default_rng(4)
    unit = B.DeconvUnit("d", 3, 2)
    bundle = fill_bundle(unit.decls(), rng)
    out = unit.forward(rand_map((1, 3, 5, 7), 5), bundle)
    assert out.shape == (1, 2, 10, 14)


def test_l2norm_unit_normalizes_then_scales():
    unit = B.L2NormUnit("n", 4)
    bundle = fill_bundle(unit.decls())  # scale = 10 everywhere (declared constant)
    x = rand_map((2, 4, 3, 3), 6)
    out = unit.forward(x, bundle)
    norms = np.sqrt((out.astype(np.float64) ** 2).sum(axis=1))
    np.testing.assert_allclose(norms, 10.0, rtol=1e-5)


def test_se_unit_matches_manual_math():
    rng = np.random.default_rng(7)
    unit = B.SEUnit("se", 32)
    bundle = fill_bundle(unit.decls(), rng)
    x = rand_map((2, 32, 4, 4), 8)
    got = unit.forward(x, bundle)
    pooled = x.astype(np.float64).mean(axis=(2, 3))
    z = np.maximum(pooled @ bundle["se/reduce"].astype(np.float64).T, 0.0)
    gates = 1.0 / (1.0 + np.exp(-(z @ bundle["se/expand"].astype(np.float64).T)))
    want = x.astype(np.float64) * gates[:, :, None, None]
    np.testing.assert_allclose(got, want.astype(np.float32), rtol=1e-5, atol=1e-6)
    assert unit.reduced == 32 // B.SE_REDUCTION == 2


def test_se_unit_gates_bound_output():
    # sigmoid gates are in (0, 1): |out| <= |x| elementwise
    rng = np.random.default_rng(9)
    unit = B.SEUnit("se", 6)
    bundle = fill_bundle(unit.decls(), rng)
    x = rand_map((1, 6, 5, 5), 10)
    out = unit.forward(x, bundle)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-6)


# ---------------------------------------------------------------------------
# composite blocks


def test_basic_res_block_identity_with_zero_weights():
    blk = B.BasicResBlock("r", 4, 4)
    bundle = fill_bundle(blk.decls())  # all conv weights and affines zero
    x = rand_map((1, 4, 6, 6), 11)
    np.testing.assert_array_equal(blk.forward(x, bundle), T.relu(x))


def decl_names(layer):
    return [d.name for d in layer.decls()]


def test_basic_res_block_projects_on_stride_or_width_change():
    same = B.BasicResBlock("r", 4, 4)
    assert same.skip == "identity" and "r/proj/w" not in decl_names(same)
    assert "r/proj/w" in decl_names(B.BasicResBlock("r", 4, 8))
    assert "r/proj/w" in decl_names(B.BasicResBlock("r", 4, 4, stride=2))
    blk = B.BasicResBlock("r", 4, 8, stride=2)
    rng = np.random.default_rng(12)
    out = blk.forward(rand_map((1, 4, 8, 8), 13), fill_bundle(blk.decls(), rng))
    assert out.shape == (1, 8, 4, 4)
    assert np.all(out >= 0)  # final relu


def test_resnext_block_groups_and_fallback():
    blk = B.ResNeXtBlock("x", 16, 64)
    assert blk.cardinality == 32  # width 32, 32 | 32
    blk_thin = B.ResNeXtBlock("x", 4, 14)  # width 7 -> largest divisor <= 32 is 7
    assert blk_thin.cardinality == 7
    by_name = {d.name: d for d in blk.decls()}
    # grouped 3x3 stores only c_in/groups input channels per filter
    assert by_name["x/conv2/w"].shape == (32, 1, 3, 3)
    rng = np.random.default_rng(14)
    out = blk.forward(rand_map((1, 16, 6, 6), 15), fill_bundle(blk.decls(), rng))
    assert out.shape == (1, 64, 6, 6)


def test_resnext_block_se_variant_adds_gate_decls():
    plain = {d.name for d in B.ResNeXtBlock("x", 8, 16).decls()}
    gated = {d.name for d in B.ResNeXtBlock("x", 8, 16, se=True).decls()}
    assert gated - plain == {"x/se/reduce", "x/se/expand"}


def test_depthwise_separable_is_dw_then_pw():
    rng = np.random.default_rng(16)
    blk = B.DepthwiseSeparable("m", 6, 10, stride=2)
    bundle = fill_bundle(blk.decls(), rng)
    x = rand_map((1, 6, 8, 8), 17)
    dw, pw = blk.layers
    assert (dw.name, pw.name, blk.skip) == ("m/dw", "m/pw", None)
    got = blk.forward(x, bundle)
    y = dw.forward(x, bundle)
    want = pw.forward(y, bundle)
    np.testing.assert_array_equal(got, want)
    assert got.shape == (1, 10, 4, 4)
    assert dw.params.groups == 6


def test_inverted_residual_skip_rules():
    # residual only when stride is 1 and channels repeat
    assert B.InvertedResidual("i", 8, 8).residual
    assert not B.InvertedResidual("i", 8, 9).residual
    assert not B.InvertedResidual("i", 8, 8, stride=2).residual
    blk = B.InvertedResidual("i", 8, 8)
    x = rand_map((1, 8, 5, 5), 18)
    # zero weights: transform contributes nothing, skip passes x through
    np.testing.assert_array_equal(blk.forward(x, fill_bundle(blk.decls())), x)
    blk2 = B.InvertedResidual("i", 8, 8, stride=2)
    np.testing.assert_array_equal(
        blk2.forward(x, fill_bundle(blk2.decls())), np.zeros((1, 8, 3, 3), np.float32))


def test_inverted_residual_expansion_one_has_no_expand_conv():
    blk = B.InvertedResidual("i", 8, 4, expansion=1)
    names = decl_names(blk)
    assert not any("expand" in n for n in names)
    dw = blk.layers[0]
    assert dw.name == "i/dw"
    assert dw.params.groups == 8  # depthwise over unexpanded input


def test_xception_block_shapes_and_skip():
    rng = np.random.default_rng(19)
    blk = B.XceptionBlock("x", 6, 12, stride=2)
    out = blk.forward(rand_map((1, 6, 8, 8), 20), fill_bundle(blk.decls(), rng))
    assert out.shape == (1, 12, 4, 4)
    same = B.XceptionBlock("x", 6, 6)
    assert same.skip == "identity" and "x/proj/w" not in decl_names(same)
    assert "x/proj/w" in decl_names(B.XceptionBlock("x", 6, 6, stride=2))


def test_inception_se_block_branch_widths():
    blk = B.InceptionSEBlock("g", 16, 32)
    b1, b3, b5, bp = blk.widths
    assert (b1, b3, b5) == (8, 16, 4)
    assert b1 + b3 + b5 + bp == 32
    with pytest.raises(ValueError, match="c_out >= 8"):
        B.InceptionSEBlock("g", 16, 7)


def test_inception_se_block_forward_shapes():
    rng = np.random.default_rng(21)
    for stride in (1, 2):
        blk = B.InceptionSEBlock("g", 8, 16, stride=stride)
        out = blk.forward(rand_map((1, 8, 8, 8), 22), fill_bundle(blk.decls(), rng))
        side = 8 // stride
        assert out.shape == (1, 16, side, side)


# ---------------------------------------------------------------------------
# backbones


@pytest.mark.parametrize("kind", B.BACKBONE_NAMES)
def test_backbone_pyramid_strides(kind):
    # the anchor grid is laid at these strides, so every build must emit them
    for head_depth in (128, 256):
        for wm in (1.0, 0.0625):
            bb = B.build_backbone(kind, head_depth=head_depth, width_multiplier=wm)
            pyramid = bb.pyramid()
            assert tuple(stride for _, _, stride in pyramid) == B.PYRAMID_STRIDES
            assert all(c >= 1 for _, c, _ in pyramid)
            assert set(pyramid) <= set(bb.stage_table())  # rows of the stage table


@pytest.mark.parametrize("kind", B.BACKBONE_NAMES)
def test_backbone_forward_shapes_thin(kind):
    bb = B.build_backbone(kind, head_depth=128, width_multiplier=0.0625)
    bundle = W.init_from_decls(bb.decls(), seed=0)
    x = np.random.default_rng(25).random((1, 3, 64, 64), dtype=np.float32)
    feats = bb.forward(x, bundle)
    chans = [c for _, c, _ in bb.pyramid()]
    for lvl, (f, c, stride) in enumerate(zip(feats, chans, (8, 16, 32, 64))):
        side = 64 // stride
        assert f.shape == (1, c, side, side), f"{kind} level {lvl}"
        assert f.dtype == np.float32


def test_backbone_decl_names_unique():
    for kind in B.BACKBONE_NAMES:
        bb = B.build_backbone(kind, 256, 0.0625)
        names = [d.name for d in bb.decls()]
        assert len(names) == len(set(names)), kind


def test_backbone_stage_table_strides_monotone():
    for kind in B.BACKBONE_NAMES:
        rows = B.build_backbone(kind, 256, 1.0).stage_table()
        strides = [r[2] for r in rows]
        assert all(b >= a for a, b in zip(strides, strides[1:])), kind
        assert strides[-1] == 64, kind


def test_vgg16_l2norm_levels():
    assert B.build_backbone("vgg16").l2norm_levels == (0, 1)
    assert B.build_backbone("resnet18").l2norm_levels == ()


def test_width_multiplier_thins_every_stage():
    full = B.build_backbone("mobilenetv1", 256, 1.0)
    thin = B.build_backbone("mobilenetv1", 256, 0.25)
    for (n1, c1, s1), (n2, c2, s2) in zip(full.stage_table(), thin.stage_table()):
        assert n1 == n2 and s1 == s2
        assert c2 == max(1, round(c1 * 0.25))


def test_build_backbone_rejects_unknown():
    with pytest.raises(ValueError, match="unknown backbone"):
        B.build_backbone("resnet34")


def test_intermediate_block_family_dispatch():
    cases = {
        "vgg16": B.ConvUnit,
        "resnet18": B.BasicResBlock,
        "resnext26": B.ResNeXtBlock,
        "resnext50": B.ResNeXtBlock,
        "se_resnext50": B.ResNeXtBlock,
        "inception_senet": B.InceptionSEBlock,
        "mobilenetv1": B.DepthwiseSeparable,
        "mobilenetv2": B.InvertedResidual,
        "xception": B.XceptionBlock,
    }
    for kind, cls in cases.items():
        blk = B.intermediate_block(kind, "mid", 16, 16)
        assert isinstance(blk, cls), kind
    assert "mid/se/reduce" in decl_names(B.intermediate_block("se_resnext50", "mid", 16, 16))
    assert "mid/se/reduce" not in decl_names(B.intermediate_block("resnext50", "mid", 16, 16))
