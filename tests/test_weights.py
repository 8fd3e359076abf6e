import numpy as np
import pytest

from refinedet_edge import weights as W
from oracles import fnv1a64_gold


def decls():
    return [
        W.TensorDecl("a/w", (4, 3, 3, 3)),
        W.TensorDecl("a/bn_gamma", (4,)),
        W.TensorDecl("a/bn_mean", (4,), const=0.0, trainable=False),
        W.TensorDecl("a/bn_var", (4,), const=1.0, trainable=False),
        W.TensorDecl("b/w", (2, 4, 1, 1)),
    ]


# ---------------------------------------------------------------------------
# hashing


def test_fnv1a64_known_vectors():
    # published reference values for the 64-bit FNV-1a test suite
    assert W.fnv1a64(b"") == 0xCBF29CE484222325
    assert W.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert W.fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_matches_gold_on_random_blobs():
    rng = np.random.default_rng(0)
    for n in (1, 7, 64, 1000):
        blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        assert W.fnv1a64(blob) == fnv1a64_gold(blob)


# ---------------------------------------------------------------------------
# declarations and bundles


def test_tensor_decl_size():
    assert W.TensorDecl("x", (4, 3, 3, 3)).size == 108
    assert W.TensorDecl("x", (7,)).size == 7


def test_init_from_decls_is_deterministic_and_ordered():
    a = W.init_from_decls(decls(), seed=5)
    b = W.init_from_decls(decls(), seed=5)
    assert a.digest() == b.digest()
    for d in decls():
        np.testing.assert_array_equal(a[d.name], b[d.name])
    c = W.init_from_decls(decls(), seed=6)
    assert a.digest() != c.digest()


def test_init_constants_and_gaussians():
    bundle = W.init_from_decls(decls(), seed=1)
    np.testing.assert_array_equal(bundle["a/bn_mean"], np.zeros(4, np.float32))
    np.testing.assert_array_equal(bundle["a/bn_var"], np.ones(4, np.float32))
    draws = W.gaussian_values(bundle, decls())
    # only the three Gaussian tensors contribute
    assert draws.size == 108 + 4 + 8
    assert abs(float(draws.std())) < 0.05  # sigma = 0.01, loose sanity bound
    assert bundle["a/w"].dtype == np.float32


def test_gaussian_draw_order_is_declaration_order():
    # permuting declarations must change which values land in which tensor
    d = decls()
    a = W.init_from_decls(d, seed=3)
    swapped = [d[4], d[1], d[2], d[3], d[0]]
    b = W.init_from_decls(swapped, seed=3)
    assert not np.array_equal(a["a/w"].ravel()[:8], b["a/w"].ravel()[:8])


def test_bundle_digest_depends_on_order_and_values():
    d = decls()
    a = W.init_from_decls(d, seed=2)
    items = [(n, a[n]) for n in a.names()]
    flipped = W.WeightBundle(list(reversed(items)))
    assert a.digest() != flipped.digest()
    bumped = [(n, v.copy()) for n, v in items]
    bumped[4][1][0, 0, 0, 0] += 1e-3
    assert a.digest() != W.WeightBundle(bumped).digest()


def test_check_shapes_reports_name():
    bundle = W.init_from_decls(decls(), seed=0)
    bad = decls()
    bad[4] = W.TensorDecl("b/w", (2, 5, 1, 1))
    with pytest.raises(ValueError, match="b/w"):
        W.check_shapes(bundle, bad)
    with pytest.raises(ValueError, match="missing"):
        W.check_shapes(bundle, decls() + [W.TensorDecl("c/w", (1,))])


# ---------------------------------------------------------------------------
# .wts round trip


def test_wts_round_trip(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "model.wts"
    W.save_wts(path, bundle, "toy")
    loaded, name = W.load_wts(path)
    assert name == "toy"
    assert loaded.digest() == bundle.digest()
    assert loaded.names() == bundle.names()
    for n in bundle.names():
        np.testing.assert_array_equal(loaded[n], bundle[n])


def test_wts_header_is_text_then_blob(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "model.wts"
    W.save_wts(path, bundle, "toy")
    raw = path.read_bytes()
    head = raw.split(b"\n")[0]
    assert head.startswith(b"refinedet-edge-weights")
    text = raw[: raw.index(b"data ")].decode()
    assert "tensor a/w 4 3 3 3" in text
    assert f"digest = {bundle.digest():#018x}" in text


def test_wts_detects_corruption(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "model.wts"
    W.save_wts(path, bundle, "toy")
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x40  # flip a bit inside the float payload
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="digest"):
        W.load_wts(path)


def test_wts_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.wts"
    path.write_bytes(b"GIF89a not weights\n")
    with pytest.raises(ValueError, match="magic|not a weights"):
        W.load_wts(path)


def test_build_model_weights_from_spec_smoke():
    from refinedet_edge.config import ModelSpec
    from refinedet_edge.head import build_model

    spec = ModelSpec(name="rRefineDet320", backbone="mobilenetv1",
                     head_depth=128, width_multiplier=0.0625)
    bundle = build_model(spec).weights
    assert len(bundle.names()) > 50
    again = build_model(spec).weights
    assert bundle.digest() == again.digest()
