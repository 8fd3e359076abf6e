import hashlib
import re
import tracemalloc

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


def test_sha256_64_known_vectors():
    # the leading 8 bytes of the FIPS 180-2 SHA-256 test vectors
    assert W.sha256_64(b"") == 0xE3B0C44298FC1C14
    assert W.sha256_64(b"abc") == 0xBA7816BF8F01CFEA


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
    draws = np.concatenate([bundle[d.name].ravel() for d in decls() if d.const is None])
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


@pytest.mark.parametrize("model_name, tensor_name, problem", [
    ("a\nb", "t", "model name 'a\\nb' has a line break"),
    (" toy", "t", "model name ' toy' has a line break or surrounding whitespace"),
    ("toy", "", "tensor name '' is empty"),
    ("toy", "conv 1/w", "tensor name 'conv 1/w' is empty or holds whitespace"),
], ids=["model-newline", "model-space", "empty-tensor", "tensor-space"])
def test_save_wts_refuses_a_header_it_cannot_write(tmp_path, model_name, tensor_name, problem):
    path = tmp_path / "model.wts"
    bundle = W.WeightBundle([(tensor_name, np.zeros(3, np.float32))])
    with pytest.raises(ValueError, match=re.escape(problem)):
        W.save_wts(path, bundle, model_name)
    assert not path.exists()


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


# ---------------------------------------------------------------------------
# .wts versions: files written here without save_wts


def write_wts_by_hand(path, bundle, version, digest, model="toy", tail=b""):
    """The documented layout, written independently of save_wts."""
    blob = bundle.to_bytes()
    lines = ["refinedet-edge-weights", f"format_version = {version}", f"model = {model}",
             f"tensor_count = {len(bundle)}", f"digest = {digest:#018x}"]
    lines += [f"tensor {n} " + " ".join(str(d) for d in a.shape) for n, a in bundle.items()]
    lines.append(f"data {len(blob)}")
    path.write_bytes(("\n".join(lines) + "\n").encode() + blob + tail)
    return blob


def test_save_wts_writes_v2_with_sha256_digest(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    blob = bundle.to_bytes()
    want = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    write_wts_by_hand(tmp_path / "want.wts", bundle, 2, want)
    assert W.save_wts(tmp_path / "got.wts", bundle, "toy") == want
    assert (tmp_path / "got.wts").read_bytes() == (tmp_path / "want.wts").read_bytes()
    assert bundle.digest() == want


def test_v1_file_still_loads_and_is_verified(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "v1.wts"
    blob = write_wts_by_hand(path, bundle, 1, fnv1a64_gold(bundle.to_bytes()))
    loaded, name = W.load_wts(path)
    assert name == "toy"
    assert loaded.names() == bundle.names()
    for n in bundle.names():
        assert loaded[n].tobytes() == bundle[n].tobytes()
    raw = bytearray(path.read_bytes())
    raw[-len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="digest"):
        W.load_wts(path)


@pytest.mark.parametrize("version", [0, 3])
def test_unknown_format_versions_are_refused(tmp_path, version):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "odd.wts"
    write_wts_by_hand(path, bundle, version, W.sha256_64(bundle.to_bytes()))
    with pytest.raises(ValueError, match=f"unsupported format_version {version}"):
        W.load_wts(path)


def test_load_picks_the_digest_by_version(tmp_path, monkeypatch):
    # a v2 load must never reach the pure-Python FNV loop; a v1 load must,
    # through the module attribute (which is what a tracer replaces)
    calls = []
    real = W.fnv1a64
    monkeypatch.setattr(W, "fnv1a64", lambda data: calls.append(len(data)) or real(data))
    bundle = W.init_from_decls(decls(), seed=7)
    W.save_wts(tmp_path / "v2.wts", bundle, "toy")
    W.load_wts(tmp_path / "v2.wts")
    assert calls == []
    write_wts_by_hand(tmp_path / "v1.wts", bundle, 1, fnv1a64_gold(bundle.to_bytes()))
    W.load_wts(tmp_path / "v1.wts")
    assert calls == [len(bundle.to_bytes())]


def test_load_wts_holds_one_copy_of_the_file(tmp_path):
    bundle = W.WeightBundle([("big/w", np.arange(2**20, dtype=np.float32).reshape(1024, 1024)),
                             ("big/b", np.ones(7, np.float32))])
    path = tmp_path / "big.wts"
    W.save_wts(path, bundle, "big")
    data_bytes = len(bundle.to_bytes())
    tracemalloc.start()
    try:
        loaded, _ = W.load_wts(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file bytes plus the loaded tensors; slicing a second copy of the
    # data block out of the file bytes would make it 3x
    assert peak < 2.5 * data_bytes, peak / data_bytes
    assert loaded["big/w"].tobytes() == bundle["big/w"].tobytes()


# ---------------------------------------------------------------------------
# corrupt .wts files: ValueError naming the file and the bad line


def corrupt(tmp_path, old, new):
    """A saved toy bundle with one header substring replaced."""
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "bad.wts"
    W.save_wts(path, bundle, "toy")
    raw = path.read_bytes()
    head = raw.index(b"\n", raw.index(b"\ndata ") + 1) + 1
    assert old in raw[:head]
    path.write_bytes(raw[:head].replace(old, new, 1) + raw[head:])
    return path


def assert_refused(path, *fragments):
    with pytest.raises(ValueError) as info:
        W.load_wts(path)
    message = str(info.value)
    assert message.startswith(f"{path}: "), message
    for fragment in fragments:
        assert fragment in message, message


def test_wts_rejects_bytes_after_the_data_block(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "long.wts"
    W.save_wts(path, bundle, "toy")
    path.write_bytes(path.read_bytes() + b"junk")
    n = len(bundle.to_bytes())
    assert_refused(path, f"'data {n}'", f"file holds {n + 4}")


def test_wts_rejects_a_truncated_data_block(tmp_path):
    bundle = W.init_from_decls(decls(), seed=7)
    path = tmp_path / "short.wts"
    W.save_wts(path, bundle, "toy")
    path.write_bytes(path.read_bytes()[:-5])
    n = len(bundle.to_bytes())
    assert_refused(path, f"'data {n}'", f"file holds {n - 5}")


def test_wts_rejects_a_missing_digest_line(tmp_path):
    path = corrupt(tmp_path, b"digest = ", b"# digest = ")
    raw = path.read_bytes()
    start = raw.index(b"# digest")
    path.write_bytes(raw[:start] + raw[raw.index(b"\n", start) + 1:])
    assert_refused(path, "no 'digest' line")


def test_wts_rejects_negative_dims(tmp_path):
    # 4*3*3*3 = 108 = (-4)*(-27): the byte count still matches
    path = corrupt(tmp_path, b"tensor a/w 4 3 3 3", b"tensor a/w -4 -27")
    assert_refused(path, "'tensor a/w -4 -27'", "'-4' is not a non-negative integer")


@pytest.mark.parametrize("old, new, fragment", [
    (b"tensor b/w 2 4 1 1", b"tensor b/w 2 4 1 x", "'tensor b/w 2 4 1 x'"),
    (b"data 512", b"data 512.0", "'data 512.0'"),
    (b"digest = 0x", b"digest = 0xzz", "'digest = 0xzz"),
    (b"format_version = 2", b"format_version = two", "'format_version = two'"),
], ids=["dims", "data-size", "digest", "version"])
def test_wts_rejects_non_numeric_fields(tmp_path, old, new, fragment):
    assert_refused(corrupt(tmp_path, old, new), "bad header line", fragment)


# (2**62 + 1) * 4 elements wrap to 4 in int64, so a 16-byte data block used to match
@pytest.mark.parametrize("dims", ["4611686018427387905 4", str(2**64)], ids=["wraps-int64", "2**64"])
def test_wts_counts_huge_dims_without_overflow(tmp_path, dims):
    path = tmp_path / "huge.wts"
    W.save_wts(path, W.WeightBundle([("t", np.zeros(4, np.float32))]), "toy")
    path.write_bytes(path.read_bytes().replace(b"tensor t 4\n", f"tensor t {dims}\n".encode(), 1))
    assert_refused(path, "manifest declares", "has 16")


def test_wts_rejects_a_duplicate_tensor_name(tmp_path):
    # same byte count, digest and tensor_count: only the name repeats
    path = corrupt(tmp_path, b"tensor b/w", b"tensor a/w")
    assert_refused(path, "bad header line 'tensor a/w 2 4 1 1'", "duplicate tensor name")


def test_wts_rejects_a_non_utf8_header(tmp_path):
    path = corrupt(tmp_path, b"model = toy", b"model = t\xffy")
    assert_refused(path, "b'model = t\\xffy'", "not UTF-8")
