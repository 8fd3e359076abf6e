import re
import tracemalloc

import numpy as np
import pytest

from refinedet_edge import tensor_ops as T
from oracles import conv2d_gold, deconv2d_gold, max_pool_gold

RTOL = 1e-6
ATOL = 1e-6


def rand(shape, rng, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_matches_gold_basic():
    rng = np.random.default_rng(0)
    x = rand((2, 3, 8, 8), rng)
    w = rand((5, 3, 3, 3), rng)
    b = rand((5,), rng)
    got = T.conv2d(x, w, b, T.ConvParams(3, stride=1, padding=1))
    want = conv2d_gold(x, w, b, 1, 1)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def test_conv2d_matches_gold_random_geometries():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(1, 3))
        g = int(rng.choice([1, 1, 2, 4]))
        cpg_in = int(rng.integers(1, 4))
        cpg_out = int(rng.integers(1, 4))
        c_in, c_out = g * cpg_in, g * cpg_out
        k = int(rng.choice([1, 2, 3, 5]))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        h = int(rng.integers(k, k + 7))
        wd = int(rng.integers(k, k + 7))
        if (h + 2 * p - k) // s + 1 < 1 or (wd + 2 * p - k) // s + 1 < 1:
            continue
        x = rand((n, c_in, h, wd), rng)
        w = rand((c_out, cpg_in, k, k), rng)
        b = rand((c_out,), rng) if rng.random() < 0.5 else None
        got = T.conv2d(x, w, b, T.ConvParams(k, stride=s, padding=p, groups=g))
        want = conv2d_gold(x, w, b, s, p, groups=g)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL,
                                   err_msg=f"trial {trial}: n={n} g={g} c={c_in}->{c_out} k={k} s={s} p={p}")


def test_conv2d_depthwise_equals_per_channel():
    # groups == c_in: each channel is convolved independently
    rng = np.random.default_rng(2)
    c = 6
    x = rand((1, c, 9, 9), rng)
    w = rand((c, 1, 3, 3), rng)
    full = T.conv2d(x, w, None, T.ConvParams(3, padding=1, groups=c))
    for ch in range(c):
        single = T.conv2d(x[:, ch:ch + 1], w[ch:ch + 1], None, T.ConvParams(3, padding=1))
        np.testing.assert_allclose(full[:, ch:ch + 1], single, rtol=RTOL, atol=ATOL)


def test_conv2d_group_slices_match_separate_convs():
    rng = np.random.default_rng(3)
    g = 2
    x = rand((2, 8, 6, 6), rng)
    w = rand((10, 4, 3, 3), rng)
    grouped = T.conv2d(x, w, None, T.ConvParams(3, padding=1, groups=g))
    for gi in range(g):
        xi = x[:, gi * 4:(gi + 1) * 4]
        wi = w[gi * 5:(gi + 1) * 5]
        part = T.conv2d(xi, wi, None, T.ConvParams(3, padding=1))
        np.testing.assert_allclose(grouped[:, gi * 5:(gi + 1) * 5], part, rtol=RTOL, atol=ATOL)


def test_conv2d_rectangular_kernel():
    rng = np.random.default_rng(4)
    x = rand((1, 2, 7, 9), rng)
    w = rand((3, 2, 1, 3), rng)
    got = T.conv2d(x, w, None, T.ConvParams((1, 3)))
    assert got.shape == (1, 3, 7, 7)
    # row 0 of a (1,3) kernel conv == gold with square padding trick unrolled
    want = np.zeros((1, 3, 7, 7), np.float64)
    for co in range(3):
        for ci in range(2):
            for kx in range(3):
                want[0, co] += x[0, ci, :, kx:kx + 7].astype(np.float64) * w[co, ci, 0, kx]
    np.testing.assert_allclose(got, want.astype(np.float32), rtol=RTOL, atol=ATOL)


def test_conv2d_output_dtype_and_determinism():
    rng = np.random.default_rng(5)
    x = rand((1, 4, 10, 10), rng)
    w = rand((4, 4, 3, 3), rng)
    a = T.conv2d(x, w, None, T.ConvParams(3, padding=1))
    b = T.conv2d(x, w, None, T.ConvParams(3, padding=1))
    assert a.dtype == np.float32
    assert np.array_equal(a, b)


def test_conv2d_rejects_bad_shapes():
    x = np.zeros((1, 4, 5, 5), np.float32)
    with pytest.raises(ValueError, match="groups=3 does not divide input channels 4"):
        T.conv2d(x, np.zeros((3, 1, 1, 1), np.float32), None, T.ConvParams(1, groups=3))
    with pytest.raises(ValueError, match="weights expect"):
        T.conv2d(x, np.zeros((2, 3, 1, 1), np.float32), None, T.ConvParams(1))
    with pytest.raises(ValueError, match="must be float32"):
        T.conv2d(x.astype(np.float64), np.zeros((2, 4, 1, 1), np.float32), None, T.ConvParams(1))
    with pytest.raises(ValueError, match="kernel height"):
        T.conv2d(x, np.zeros((2, 4, 7, 1), np.float32), None, T.ConvParams((7, 1)))
    with pytest.raises(ValueError, match="does not match params.kernel"):
        T.conv2d(x, np.zeros((2, 4, 3, 3), np.float32), None, T.ConvParams(1))


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 1), (2,)], ids=["empty", "empty_2d", "column", "short"])
@pytest.mark.parametrize("groups", [1, 3], ids=["dense", "depthwise"])
def test_conv2d_rejects_a_bias_not_of_one_value_per_output_channel(shape, groups):
    # an empty bias is no "no bias": only None is
    x = np.zeros((1, 3, 4, 4), np.float32)
    w = np.zeros((3, 3 // groups, 1, 1), np.float32)
    with pytest.raises(ValueError, match=r"bias must have shape \(3,\), got " + re.escape(str(shape))):
        T.conv2d(x, w, np.zeros(shape, np.float32), T.ConvParams(1, groups=groups))


def _depthwise_in_order(x, w, b, s, p):
    # the per-tap loop over the whole map: +0.0, then each exact product
    # added tap by tap in row-major kernel order, then the bias
    kh, kw = w.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    oh = (xp.shape[2] - kh) // s + 1
    ow = (xp.shape[3] - kw) // s + 1
    acc = np.zeros((x.shape[0], x.shape[1], oh, ow))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
            acc += patch * w[:, 0, i, j].astype(np.float64)[None, :, None, None]
    if b is not None:
        acc = acc + b.astype(np.float64)[None, :, None, None]
    return acc.astype(np.float32)


@pytest.mark.parametrize("n, c, h, w, k, s, p", [
    (2, 131, 20, 23, 3, 1, 1),   # prime channel count: the last block is partial
    (2, 131, 21, 17, 3, 2, 1),
    (1, 67, 15, 40, 3, 2, 0),    # unpadded stride 2: the last input column is never read
    (2, 5, 9, 7, 5, 3, 2),
    (1, 3, 190, 181, 3, 1, 1),   # one plane is larger than a block
    (2, 6, 8, 11, (1, 3), 1, 0),
])
def test_conv2d_depthwise_is_the_in_order_sum(n, c, h, w, k, s, p):
    rng = np.random.default_rng(c + h)
    x = rand((n, c, h, w), rng)
    x[x < 0] = 0.0  # relu zeros: a sum of -0.0 products is still +0.0
    kh, kw = T.ConvParams(k).kernel
    wt = rand((c, 1, kh, kw), rng)
    for b in (rand((c,), rng), None):
        got = T.conv2d(x, wt, b, T.ConvParams(k, stride=s, padding=p, groups=c))
        assert got.tobytes() == _depthwise_in_order(x, wt, b, s, p).tobytes()


@pytest.mark.parametrize("n, c, h, w", [(2, 131, 20, 23), (1, 3, 190, 181), (2, 1031, 5, 3)])
def test_batch_norm_is_the_in_order_formula(n, c, h, w):
    rng = np.random.default_rng(c)
    x = rand((n, c, h, w), rng)
    mean, gamma, beta = (rng.standard_normal(c).astype(np.float32) for _ in range(3))
    var = (rng.random(c) + 0.1).astype(np.float32)
    got = T.batch_norm_inference(x, mean, var, gamma, beta)
    m, v, g, b = (a.astype(np.float64)[None, :, None, None] for a in (mean, var, gamma, beta))
    want = (g * (x.astype(np.float64) - m) / np.sqrt(v + 1e-5) + b).astype(np.float32)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, c_in, c_out, h, w, k, s, p, g", [
    (2, 6, 4, 9, 7, 3, 1, 1, 1),
    (1, 8, 6, 9, 10, 3, 2, 1, 2),    # grouped, 1 < g < c_in
    (1, 12, 6, 7, 9, 3, 1, 0, 3),
    (2, 5, 7, 9, 8, 1, 2, 0, 1),     # 1x1, stride 2
    (1, 5, 7, 5, 6, 1, 1, 1, 1),     # 1x1, padded
    (1, 5, 7, 7, 6, 1, 1, 0, 1),     # 1x1, stride 1, unpadded: the input is its own columns
])
@pytest.mark.parametrize("rows", [1, 2])
def test_conv2d_im2col_chunks_match_gold(n, c_in, c_out, h, w, k, s, p, g, rows, monkeypatch):
    # a chunk of `rows` output rows; oh is odd, so never a multiple of 2
    rng = np.random.default_rng(c_in * k + s)
    x = rand((n, c_in, h, w), rng)
    wt = rand((c_out, c_in // g, k, k), rng)
    b = rand((c_out,), rng)
    params = T.ConvParams(k, stride=s, padding=p, groups=g)
    whole = T.conv2d(x, wt, b, params)
    oh, ow = whole.shape[2:]
    assert oh % 2 == 1
    # budget and cap both at `rows` rows, and a floor of one column
    chunk = rows * n * ow * max(c_in * k * k, c_out)
    monkeypatch.setattr(T, "IM2COL_BUDGET", chunk)
    monkeypatch.setattr(T, "IM2COL_BLOCK", chunk)
    monkeypatch.setattr(T, "IM2COL_MIN_COLUMNS", 1)
    gemm_columns = []
    matmul = np.matmul

    def counting_matmul(a, b, out):
        gemm_columns.append(b.shape[-1])
        return matmul(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", counting_matmul)
        got = T.conv2d(x, wt, b, params)
    assert len(gemm_columns) == -(-oh // rows)
    assert gemm_columns[0] == rows * n * ow and sum(gemm_columns) == n * oh * ow
    np.testing.assert_allclose(got, conv2d_gold(x, wt, b, s, p, groups=g), rtol=RTOL, atol=ATOL)
    assert np.array_equal(got, whole)  # the chunk size never changes a sum


def test_conv2d_im2col_scratch_is_bounded(monkeypatch):
    # 256 -> 256, 3x3 at 40x40: unchunked columns alone would be 29 MB, 18x
    # the float32 output.  Chunked, the peak is the float64 weights (2.9x),
    # the padded input, 2 MiB of columns, the GEMM result chunk and the output
    rng = np.random.default_rng(11)
    x = rand((1, 256, 40, 40), rng)
    wt = rand((256, 256, 3, 3), rng, scale=0.02)
    params = T.ConvParams(3, padding=1)
    tracemalloc.start()
    try:
        got = T.conv2d(x, wt, None, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * got.nbytes
    monkeypatch.setattr(T, "IM2COL_BLOCK", 2**30)
    assert np.array_equal(got, T.conv2d(x, wt, None, params))


def test_conv2d_takes_float64_weights_without_a_copy():
    # 512 -> 512 1x1 at 1x1: the 2 MiB of float64 weights dwarf everything
    # else, so a cast or copy of them would show in the peak
    rng = np.random.default_rng(12)
    x = rand((1, 512, 1, 1), rng)
    w64 = rand((512, 512, 1, 1), rng).astype(np.float64)
    b64 = rand((512,), rng).astype(np.float64)
    params = T.ConvParams(1)
    tracemalloc.start()
    try:
        got = T.conv2d(x, w64, b64, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w64.nbytes // 8
    np.testing.assert_allclose(got, conv2d_gold(x, w64, b64, 1, 0), rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# deconv2d


def test_deconv2d_matches_gold():
    rng = np.random.default_rng(6)
    for trial in range(12):
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        k = int(rng.choice([2, 3, 4]))
        p = int(rng.integers(0, min(2, (k - 1) // 2 + 1)))
        h = int(rng.integers(1, 6))
        wd = int(rng.integers(1, 6))
        x = rand((1, c_in, h, wd), rng)
        w = rand((c_in, c_out, k, k), rng)
        got = T.deconv2d(x, w, T.ConvParams(k, stride=2, padding=p))
        want = deconv2d_gold(x, w, 2, p)
        assert got.shape == want.shape, f"trial {trial}"
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def test_deconv2d_doubles_spatial_size_for_tcb_shape():
    # 2x2 kernel, stride 2, no padding: h -> 2h exactly
    x = np.ones((1, 3, 5, 5), np.float32)
    w = np.ones((3, 2, 2, 2), np.float32)
    out = T.deconv2d(x, w, T.ConvParams(2, stride=2))
    assert out.shape == (1, 2, 10, 10)
    np.testing.assert_allclose(out, 3.0)  # disjoint stamps sum the channels


def test_deconv2d_rejects_other_strides():
    x = np.zeros((1, 1, 3, 3), np.float32)
    w = np.zeros((1, 1, 2, 2), np.float32)
    with pytest.raises(ValueError, match="stride 2 only"):
        T.deconv2d(x, w, T.ConvParams(2, stride=1))
    with pytest.raises(ValueError, match="groups=1 only"):
        T.deconv2d(x, w, T.ConvParams(2, stride=2, groups=2))


# ---------------------------------------------------------------------------
# pooling


def test_max_pool_matches_gold():
    rng = np.random.default_rng(7)
    for _ in range(15):
        k = int(rng.choice([2, 3]))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, k))
        h = int(rng.integers(k, k + 8))
        x = rand((2, 3, h, h), rng)
        got = T.max_pool(x, k, s, p)
        want = max_pool_gold(x, k, s, p)
        np.testing.assert_array_equal(got, want)


def test_max_pool_padding_never_wins():
    # all-negative input: zero padding would incorrectly produce 0 at borders
    x = -np.ones((1, 1, 4, 4), np.float32)
    out = T.max_pool(x, 3, 1, 1)
    np.testing.assert_array_equal(out, -np.ones((1, 1, 4, 4), np.float32))


def test_max_pool_rejects_padding_not_smaller_than_window():
    x = np.zeros((1, 1, 4, 4), np.float32)
    with pytest.raises(ValueError, match="padding 2 must be smaller"):
        T.max_pool(x, 2, 2, 2)


def test_global_avg_pool():
    rng = np.random.default_rng(8)
    x = rand((2, 5, 4, 6), rng)
    out = T.global_avg_pool(x)
    assert out.shape == (2, 5, 1, 1)
    want = x.astype(np.float64).mean(axis=(2, 3))
    np.testing.assert_allclose(out[:, :, 0, 0], want, rtol=1e-6)


# ---------------------------------------------------------------------------
# pointwise ops


def test_relu():
    x = np.array([-2.0, -0.0, 0.0, 3.5], np.float32)
    np.testing.assert_array_equal(T.relu(x), [0.0, 0.0, 0.0, 3.5])


def test_sigmoid_matches_definition_and_is_stable():
    x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0], np.float32)
    got = T.sigmoid(x)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got[2], 0.5, atol=1e-7)
    np.testing.assert_allclose(got[1], 1.0 / (1.0 + np.exp(5.0)), rtol=1e-6)
    assert got[0] == 0.0 and got[4] == 1.0  # saturates, no overflow warnings
    np.testing.assert_allclose(got + got[::-1], 1.0, atol=1e-6)  # symmetry


def test_batch_norm_inference_formula():
    rng = np.random.default_rng(9)
    x = rand((2, 3, 4, 4), rng)
    mean = rng.standard_normal(3)
    var = rng.random(3) + 0.1
    gamma = rng.standard_normal(3)
    beta = rng.standard_normal(3)
    got = T.batch_norm_inference(x, mean, var, gamma, beta)
    want = (gamma[None, :, None, None] * (x - mean[None, :, None, None])
            / np.sqrt(var[None, :, None, None] + 1e-5) + beta[None, :, None, None])
    np.testing.assert_allclose(got, want.astype(np.float32), rtol=1e-5, atol=1e-6)


def test_batch_norm_identity_statistics():
    # mean 0, var 1, gamma 1, beta 0 is (nearly) the identity
    rng = np.random.default_rng(10)
    x = rand((1, 4, 3, 3), rng)
    got = T.batch_norm_inference(x, np.zeros(4), np.ones(4), np.ones(4), np.zeros(4))
    np.testing.assert_allclose(got, x, rtol=1e-4, atol=1e-5)


def test_batch_norm_rejects_negative_variance():
    x = np.zeros((1, 3, 2, 2), np.float32)
    var = np.array([1.0, -0.5, 1.0])
    with pytest.raises(ValueError, match="channel 1"):
        T.batch_norm_inference(x, np.zeros(3), var, np.ones(3), np.zeros(3))


def test_scale_channels():
    x = np.ones((1, 3, 2, 2), np.float32)
    out = T.scale_channels(x, np.array([1.0, 2.0, -1.0]))
    np.testing.assert_array_equal(out[0, 0], 1.0)
    np.testing.assert_array_equal(out[0, 1], 2.0)
    np.testing.assert_array_equal(out[0, 2], -1.0)


def test_float32_add_and_scale_equal_the_rounded_float64_result():
    # one float32 rounding gives the same bits as rounding the float64 result
    rng = np.random.default_rng(5)
    a = (rng.standard_normal(4 * 3 * 8 * 8) * 10.0 ** rng.integers(-40, 38, 4 * 3 * 8 * 8))
    a = a.astype(np.float32).reshape(4, 3, 8, 8)
    b = rng.permutation(a.ravel()).reshape(a.shape)
    want = (a.astype(np.float64) + b.astype(np.float64)).astype(np.float32)
    np.testing.assert_array_equal(T.elementwise_add(a, b).view(np.uint32), want.view(np.uint32))
    s32 = np.array([3e-39, -7.1, 1e30], np.float32)  # subnormal, plain, overflowing
    with np.errstate(over="ignore"):
        want = (a.astype(np.float64) * s32.astype(np.float64)[None, :, None, None]).astype(np.float32)
        got = T.scale_channels(a, s32)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    # float64 operands are still added in float64: 1 + 0.4375 ulp rounds
    # down on its own but up once 0.125 ulp is added to it
    one_ulp = 2.0 ** -23
    got = T.elementwise_add(np.array([1.0 + 0.4375 * one_ulp]), np.array([0.125 * one_ulp]))
    assert got.dtype == np.float32 and got[0] == np.float32(1.0 + one_ulp)


def test_elementwise_add_rejects_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        T.elementwise_add(np.zeros((1, 2)), np.zeros((2, 1)))


def test_conv_params_validation():
    with pytest.raises(ValueError, match="kernel must be positive"):
        T.ConvParams(0)
    with pytest.raises(ValueError, match="stride"):
        T.ConvParams(3, stride=0)
    with pytest.raises(ValueError, match="padding"):
        T.ConvParams(3, padding=-1)
    assert T.ConvParams((3, 5)).kernel == (3, 5)
    assert T.ConvParams(3).kernel == (3, 3)
