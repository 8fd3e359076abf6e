import hashlib

import numpy as np
import pytest

from refinedet_edge import head as H
from refinedet_edge import tensor_ops as T
from refinedet_edge import weights as W
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
    assert grid.level_counts() == tuple(per_level)
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


def test_anchor_level_slices_partition():
    grid = H.generate_anchors(320)
    slices = grid.level_slices()
    assert slices[0] == slice(0, 4800)
    assert slices[-1].stop == len(grid)
    covered = sum(s.stop - s.start for s in slices)
    assert covered == len(grid)


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


def test_model_infer_accepts_unbatched_image():
    model = H.build_model(thin_spec())
    img = np.random.default_rng(4).random((3, 320, 320), dtype=np.float32)
    dets = model.infer(img)
    assert dets.boxes.shape[1] == 4


def test_model_stride_mismatch_detected():
    with pytest.raises(ValueError, match="anchor strides"):
        H.assemble_model(thin_spec(anchor_strides=(4, 8, 16, 32)))


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
