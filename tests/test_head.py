import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from refinedet_edge import head as H
from refinedet_edge import tensor_ops as T
from refinedet_edge import weights as W
from refinedet_edge.blocks import BACKBONE_NAMES
from refinedet_edge.config import ModelSpec
from oracles import anchors_gold


# ---------------------------------------------------------------------------
# anchors


def test_anchor_grid_320_matches_gold():
    grid = H.generate_anchors(320)
    gold = anchors_gold(320, (8, 16, 32, 64), (32, 64, 128, 256), (0.5, 1.0, 2.0))
    assert len(grid) == len(gold) == 6375
    np.testing.assert_allclose(grid.boxes, gold.astype(np.float32), rtol=1e-6)


def test_anchor_grid_512_count_follows_grid_arithmetic():
    grid = H.generate_anchors(512)
    per_level = [(512 // s) ** 2 * 3 for s in (8, 16, 32, 64)]
    assert [h * w * len(grid.ratios) for h, w in grid.level_shapes] == per_level
    assert len(grid) == sum(per_level) == 16320
    gold = anchors_gold(512, (8, 16, 32, 64), (32, 64, 128, 256), (0.5, 1.0, 2.0))
    np.testing.assert_allclose(grid.boxes, gold.astype(np.float32), rtol=1e-6)


def test_anchor_grid_small_case_by_hand():
    # 16px input, single stride-8 level, one ratio: 2x2 cells
    grid = H.generate_anchors(16, strides=(8,), scales=(4.0,), ratios=(1.0,))
    want = np.array([
        [4.0, 4.0, 4.0, 4.0],
        [12.0, 4.0, 4.0, 4.0],
        [4.0, 12.0, 4.0, 4.0],
        [12.0, 12.0, 4.0, 4.0],
    ], np.float32)
    np.testing.assert_array_equal(grid.boxes, want)


def test_anchor_ratios_shape_areas():
    grid = H.generate_anchors(64, strides=(8,), scales=(32.0,), ratios=(0.5, 1.0, 2.0))
    w = grid.boxes[:3, 2].astype(np.float64)
    h = grid.boxes[:3, 3].astype(np.float64)
    np.testing.assert_allclose(w * h, 32.0 * 32.0, rtol=1e-5)  # area preserved
    np.testing.assert_allclose(w / h, [0.5, 1.0, 2.0], rtol=1e-5)


def test_anchor_default_scale_is_4x_stride():
    grid = H.generate_anchors(320)
    assert grid.scales == (32.0, 64.0, 128.0, 256.0)


def test_anchor_regeneration_is_bit_identical():
    a = H.generate_anchors(320)
    b = H.generate_anchors(320)
    assert np.array_equal(a.boxes, b.boxes)


def test_anchor_validation():
    with pytest.raises(ValueError, match="not divisible"):
        H.generate_anchors(300)  # 300 % 64 != 0
    with pytest.raises(ValueError, match="ratios must be positive"):
        H.generate_anchors(320, ratios=(1.0, -2.0))
    with pytest.raises(ValueError, match="4 strides|scales"):
        H.generate_anchors(320, scales=(32.0,))


# ---------------------------------------------------------------------------
# fusion level


def fill(decl_list, rng):
    return W.WeightBundle(
        [(d.name, (np.full(d.shape, d.const, np.float32) if d.const is not None
                   else rng.standard_normal(d.shape).astype(np.float32))) for d in decl_list]
    )


def test_tcb_level_without_top_down():
    rng = np.random.default_rng(0)
    lvl = H.TCBLevel("t", 8, 4, has_top_down=False)
    bundle = fill(lvl.decls(), rng)
    x = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
    got = lvl.fuse(x, None, bundle)
    lat = T.relu(lvl.lateral.forward(x, bundle))
    want = T.relu(lvl.smooth.forward(lat, bundle))
    np.testing.assert_array_equal(got, want)


def test_tcb_level_fuses_upsampled_top_down():
    rng = np.random.default_rng(1)
    lvl = H.TCBLevel("t", 8, 4, has_top_down=True)
    bundle = fill(lvl.decls(), rng)
    x = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
    top = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
    got = lvl.fuse(x, top, bundle)
    lat = lvl.lateral.forward(x, bundle)
    up = lvl.up.forward(top, bundle)
    want = T.relu(lvl.smooth.forward(T.relu(T.elementwise_add(lat, up)), bundle))
    np.testing.assert_array_equal(got, want)
    assert got.shape == (1, 4, 6, 6)


def test_tcb_level_top_down_contract():
    rng = np.random.default_rng(2)
    with_td = H.TCBLevel("t", 8, 4, has_top_down=True)
    without = H.TCBLevel("t", 8, 4, has_top_down=False)
    x = rng.standard_normal((1, 8, 6, 6)).astype(np.float32)
    top = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
    with pytest.raises(ValueError, match="expects a top-down"):
        with_td.fuse(x, None, fill(with_td.decls(), rng))
    with pytest.raises(ValueError, match="without a top-down"):
        without.fuse(x, top, fill(without.decls(), rng))


# ---------------------------------------------------------------------------
# prediction flattening


def test_flatten_predictions_ordering():
    # encode (anchor a, component j, row y, col x) into the value, then check
    # every flattened row lands where the anchor layout says it should
    n, A, k, h, w = 1, 3, 4, 2, 3
    x = np.zeros((n, A * k, h, w), np.float32)
    for a in range(A):
        for j in range(k):
            for y in range(h):
                for xx in range(w):
                    x[0, a * k + j, y, xx] = a * 1000 + j * 100 + y * 10 + xx
    flat = H.flatten_predictions(x, A, k)
    assert flat.shape == (1, h * w * A, k)
    for y in range(h):
        for xx in range(w):
            for a in range(A):
                row = (y * w + xx) * A + a
                for j in range(k):
                    assert flat[0, row, j] == a * 1000 + j * 100 + y * 10 + xx


def test_flatten_predictions_rejects_channel_mismatch():
    with pytest.raises(ValueError, match="expected 12 channels"):
        H.flatten_predictions(np.zeros((1, 10, 2, 2), np.float32), 3, 4)


# ---------------------------------------------------------------------------
# assembled model


def thin_spec(**kw):
    args = dict(name="rRefineDet320", backbone="resnet18", input_size=320,
                head_depth=128, width_multiplier=0.0625, num_classes=4)
    args.update(kw)
    return ModelSpec(**args)


def test_model_anchor_rows_match_head_rows():
    model = H.build_model(thin_spec())
    x = np.random.default_rng(3).random((1, 3, 320, 320), dtype=np.float32)
    raw = model.forward(x)
    assert raw.arm_obj.shape == (1, 6375, 2)
    assert raw.arm_deltas.shape == (1, 6375, 4)
    assert raw.odm_cls.shape == (1, 6375, 5)  # num_classes + background
    assert raw.odm_deltas.shape == (1, 6375, 4)


def test_model_weight_manifest_unique_and_grouped():
    model = H.assemble_model(thin_spec())
    names = [d.name for d in model.weight_manifest()]
    assert len(names) == len(set(names))
    # backbone first, then head tensors
    first_head = next(i for i, n in enumerate(names) if n.startswith("head/"))
    assert all(n.startswith("backbone/") for n in names[:first_head])
    assert all(n.startswith("head/") for n in names[first_head:])


# blake2b of (name, shape, const, trainable) over the whole manifest, in
# order, at width 0.0625 with default config values.  init_from_decls draws in
# manifest order and check_shapes demands the exact name order, so any change
# here re-seeds every weight and rejects every .wts file written before it.
MANIFEST_DIGESTS = {
    ("vgg16", 128): "b99a8f29b587697b",
    ("vgg16", 256): "c631f25ca432c70c",
    ("resnet18", 128): "87704b4d602382f0",
    ("resnet18", 256): "27be9184aae9d7e5",
    ("resnext26", 128): "e63cba4ba5014744",
    ("resnext26", 256): "61722a387670d91b",
    ("resnext50", 128): "8e06c9554a73c6c0",
    ("resnext50", 256): "166eb28ec522a34b",
    ("se_resnext50", 128): "c67217408ecad65a",
    ("se_resnext50", 256): "465af37e7581cd8e",
    ("inception_senet", 128): "40646a3050b00a4a",
    ("inception_senet", 256): "f33e35887898ff5b",
    ("mobilenetv1", 128): "85346a3d4db145f5",
    ("mobilenetv1", 256): "4767d5db2e751012",
    ("mobilenetv2", 128): "b3e07c8372cf7906",
    ("mobilenetv2", 256): "613e448c861c98dc",
    ("xception", 128): "8d78263afa45062d",
    ("xception", 256): "6abf378343d136ee",
}


@pytest.mark.parametrize("kind, head_depth", sorted(MANIFEST_DIGESTS))
def test_model_weight_manifest_is_pinned(kind, head_depth):
    spec = ModelSpec(backbone=kind, head_depth=head_depth, width_multiplier=0.0625)
    h = hashlib.blake2b(digest_size=8)
    for d in H.assemble_model(spec).weight_manifest():
        h.update(repr((d.name, tuple(int(s) for s in d.shape), d.const, d.trainable)).encode())
    assert h.hexdigest() == MANIFEST_DIGESTS[kind, head_depth]


# blake2b of every model's notes (stage table, pyramid, realized head widths,
# cardinality fallbacks), which pin the stage names and the intermediate
# depth that the manifest digests above do not see.
NOTES_DIGEST = "0c9e56fbc7b28bb1"


def test_model_notes_are_pinned():
    h = hashlib.blake2b(digest_size=8)
    for kind in BACKBONE_NAMES:
        for head_depth in (128, 256):
            for width in (0.0625, 1.0):
                spec = ModelSpec(backbone=kind, head_depth=head_depth, width_multiplier=width)
                h.update("\n".join(H.assemble_model(spec).notes).encode())
    assert h.hexdigest() == NOTES_DIGEST


def _signal_bundle(model, seed):
    # He-scaled convolutions and non-trivial batch-norm statistics: under the
    # default N(0, 0.01) init the outputs of these models barely depend on
    # the image or the backbone, and a kernel change could go unseen
    rng = np.random.default_rng(seed)
    tensors = []
    for d in model.weight_manifest():
        shape = tuple(d.shape)
        if d.name.endswith("/w"):
            fan_in = shape[0] if "/up/" in d.name else int(np.prod(shape[1:]))
            arr = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif d.name.endswith(("/bn_gamma", "/bn_var")):
            arr = rng.uniform(0.5, 1.5, size=shape)
        elif d.name.endswith("/scale"):
            arr = rng.uniform(5.0, 15.0, size=shape)
        else:
            arr = rng.normal(0.0, 0.1, size=shape)
        tensors.append((d.name, arr.astype(np.float32)))
    return W.WeightBundle(tensors)


# blake2b of the four forward outputs' float32 bytes on one fixed image.
# Every kernel is deterministic, and the depthwise kernel repeats the float64
# arithmetic of a whole-map loop step for step, so a faster kernel must leave
# these bytes alone.  The batch-norm models carry the bytes of batch-norm
# folded into each convolution's float64 weights and bias; they moved from
# the unfolded pass by about 3e-7 of RMS.  vgg16 has no batch-norm, and its
# bytes did not move.
FORWARD_DIGESTS = {
    ("vgg16", 256, 0.0625): "590d69409986cf6c",
    ("mobilenetv1", 128, 1.0): "7743500e46fa5ee7",
    # the residual add and the squeeze-excitation gate
    ("resnet18", 256, 0.0625): "b5192b9dec009384",
    ("se_resnext50", 128, 0.0625): "7f68f68a714fc943",
}


@pytest.mark.parametrize("kind, head_depth, width", sorted(FORWARD_DIGESTS))
def test_model_forward_bytes_are_pinned(kind, head_depth, width):
    spec = ModelSpec(backbone=kind, head_depth=head_depth, width_multiplier=width, num_classes=80)
    model = H.assemble_model(spec)
    model.bind(_signal_bundle(model, 3))
    image = np.random.default_rng(7).random((1, 3, 320, 320), dtype=np.float32)
    out = model.forward(image)
    h = hashlib.blake2b(digest_size=8)
    for arr in (out.arm_obj, out.arm_deltas, out.odm_cls, out.odm_deltas):
        h.update(arr.tobytes())
    assert h.hexdigest() == FORWARD_DIGESTS[kind, head_depth, width]


def _workload_models():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(c["backbone"], c["head_depth"], c["width_multiplier"])
            for c in (w.config for w in module.WORKLOADS.values()) if c}


@pytest.mark.parametrize("kind, head_depth, width", sorted(set(FORWARD_DIGESTS) | _workload_models()))
def test_im2col_chunks_fit_the_cache_at_every_dense_shape(kind, head_depth, width, monkeypatch):
    # every dense conv2d of a pinned or benchmarked model: each chunk's
    # columns and GEMM result stay under the cap; the GEMM gets at least
    # min(IM2COL_MIN_COLUMNS, oh*ow) columns, or as many whole output rows as
    # the cap admits (20 columns for full mobilenetv1's 3x3 heads on 1024
    # channels); and a chunk over the budget is the fewest whole rows that
    # reach the floor
    spec = ModelSpec(backbone=kind, head_depth=head_depth, width_multiplier=width, num_classes=80)
    model = H.assemble_model(spec)
    model.bind(W.WeightBundle([(d.name, np.zeros(d.shape, np.float32)) for d in model.weight_manifest()]))
    convs = []  # (weights shape, groups, output shape, GEMM columns of each chunk)
    conv2d, matmul = T.conv2d, np.matmul

    def recording_conv2d(x, weights, bias, params):
        convs.append([weights.shape, params.groups, None, []])
        out = conv2d(x, weights, bias, params)
        convs[-1][2] = out.shape
        return out

    def recording_matmul(a, b, out):
        convs[-1][3].append(b.shape[-1])
        return matmul(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(T, "conv2d", recording_conv2d)
        patch.setattr(np, "matmul", recording_matmul)
        model.forward(np.zeros((1, 3, 320, 320), np.float32))
    dense = 0
    for (c_out, cg, kh, kw), g, (n, _, oh, ow), columns in convs:
        if g == c_out == cg * g:  # depthwise: no GEMM
            assert not columns
            continue
        dense += 1
        width, row = max(g * cg * kh * kw, c_out), n * ow
        floor = min(T.IM2COL_MIN_COLUMNS, n * oh * ow, row * (T.IM2COL_BLOCK // (width * row)))
        first = columns[0]
        assert sum(columns) == n * oh * ow and set(columns[:-1]) <= {first} and columns[-1] <= first
        assert width * first <= T.IM2COL_BLOCK
        assert first >= floor
        assert width * first <= T.IM2COL_BUDGET or first - row < T.IM2COL_MIN_COLUMNS
    assert dense


def test_model_param_count_is_trainable_sum():
    model = H.assemble_model(thin_spec())
    decls = model.weight_manifest()
    want = sum(int(np.prod(d.shape)) for d in decls if d.trainable)
    assert model.param_count() == want
    assert any(not d.trainable for d in decls)  # running stats exist and are excluded


def test_model_rejects_unbound_forward():
    model = H.assemble_model(thin_spec())
    with pytest.raises(ValueError, match="no weights bound"):
        model.forward(np.zeros((1, 3, 320, 320), np.float32))


def test_model_rejects_wrong_input_size():
    model = H.build_model(thin_spec())
    with pytest.raises(ValueError, match="input size mismatch"):
        model.forward(np.zeros((1, 3, 64, 64), np.float32))
    with pytest.raises(ValueError, match="one image at a time"):
        model.infer(np.zeros((2, 3, 320, 320), np.float32))


@pytest.mark.parametrize("triple", [(400, 200, 0.1), (1000, 500, 0.01)])
def test_infer_rejects_non_finite_images(triple):
    from refinedet_edge.postprocess import NmsParams

    model = H.build_model(thin_spec(backbone="vgg16", num_classes=80))
    params = NmsParams(*triple)
    all_nan = np.full((1, 3, 320, 320), np.nan, np.float32)
    with pytest.raises(ValueError, match="307200 non-finite"):
        model.infer(all_nan, nms_params=params)
    one_inf = np.random.default_rng(7).random((1, 3, 320, 320), dtype=np.float32)
    one_inf[0, 1, 5, 9] = np.inf
    with pytest.raises(ValueError, match=r"\b1 non-finite"):
        model.infer(one_inf, nms_params=params)


def test_infer_rejects_non_finite_predictions(tmp_path):
    # One NaN weight makes every objectness logit NaN.  arm_filter then drops
    # every anchor, so unchecked the image would come back with no boxes.
    from refinedet_edge.postprocess import NmsParams

    spec = thin_spec(backbone="vgg16", head_depth=256, num_classes=80)
    model = H.assemble_model(spec)
    tensors = dict(W.init_from_decls(model.weight_manifest(), seed=1).items())
    tensors["backbone/conv1_1/w"] = tensors["backbone/conv1_1/w"].copy()
    tensors["backbone/conv1_1/w"][0, 0, 0, 0] = np.nan
    path = tmp_path / "nan.wts"
    W.save_wts(path, W.WeightBundle(tensors.items()), spec.name)
    bundle, _ = W.load_wts(path)
    model.bind(bundle)
    image = np.random.default_rng(7).random((1, 3, 320, 320), dtype=np.float32)
    for triple in [(400, 200, 0.1), (1000, 500, 0.01)]:
        with pytest.raises(ValueError, match="objectness logits have 12750 non-finite values"):
            model.infer(image, nms_params=NmsParams(*triple))


def test_model_infer_accepts_unbatched_image():
    model = H.build_model(thin_spec())
    img = np.random.default_rng(4).random((3, 320, 320), dtype=np.float32)
    dets = model.infer(img)
    assert dets.boxes.shape[1] == 4


def test_infer_names_the_shape_of_a_wrong_rank_image():
    model = H.build_model(thin_spec())
    for shape in [(320, 320), (1, 1, 3, 320, 320)]:
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, "):
            model.infer(np.zeros(shape, np.float32))


def test_model_bind_checks_shapes():
    model = H.assemble_model(thin_spec())
    decls = model.weight_manifest()
    bundle = W.init_from_decls(decls, seed=0)
    tensors = [(n, bundle[n]) for n in bundle.names()]
    tensors[0] = (tensors[0][0], np.zeros((1, 1, 1, 1), np.float32))
    with pytest.raises(ValueError):
        model.bind(W.WeightBundle(tensors))


def test_model_l2norm_only_on_vgg():
    vgg = H.assemble_model(thin_spec(backbone="vgg16"))
    assert sorted(vgg.l2norms) == [0, 1]
    res = H.assemble_model(thin_spec())
    assert res.l2norms == {}


def test_mobilenetv2_intermediate_depth_is_96_based():
    m = H.assemble_model(thin_spec(backbone="mobilenetv2", width_multiplier=1.0))
    assert m.interm_depth_realized == 96
    assert m.tcb_depth_realized == 128
    other = H.assemble_model(thin_spec(width_multiplier=1.0))
    assert other.interm_depth_realized == 128


def test_model_forward_deterministic():
    model = H.build_model(thin_spec())
    x = np.random.default_rng(5).random((1, 3, 320, 320), dtype=np.float32)
    a = model.forward(x)
    b = model.forward(x)
    assert np.array_equal(a.odm_cls, b.odm_cls)
    assert np.array_equal(a.arm_deltas, b.arm_deltas)


def test_model_rejects_non_spec():
    with pytest.raises(TypeError, match="ModelSpec"):
        H.DetectionModel({"backbone": "vgg16"})


def test_infer_respects_nms_params_override():
    from refinedet_edge.postprocess import NmsParams

    model = H.build_model(thin_spec(num_classes=4, seed=1))
    img = np.random.default_rng(6).random((1, 3, 320, 320), dtype=np.float32)
    # random thin weights give near-uniform class probabilities (~1/5 each);
    # a permissive floor admits them, the default 0.1... also admits: compare counts
    open_params = NmsParams(5000, 4000, 0.0)
    tight = NmsParams(5000, 4000, 0.9)
    many = model.infer(img, nms_params=open_params)
    none = model.infer(img, nms_params=tight)
    assert len(many) > 0
    assert len(none) == 0
