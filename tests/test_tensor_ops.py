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


def test_elementwise_add_rejects_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        T.elementwise_add(np.zeros((1, 2)), np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# bookkeeping


def test_param_count_hand_cases():
    # plain 3x3, 16 -> 32, bias: 32*16*9 + 32
    assert T.param_count(16, 32, T.ConvParams(3), bias=True) == 32 * 16 * 9 + 32
    # depthwise 3x3 over 64 channels with bn: 64*1*9 + 2*64
    assert T.param_count(64, 64, T.ConvParams(3, groups=64), bn=True) == 64 * 9 + 128
    # grouped: 32 groups, 128 -> 256: 256*(128/32)*9
    assert T.param_count(128, 256, T.ConvParams(3, groups=32)) == 256 * 4 * 9
    with pytest.raises(ValueError):
        T.param_count(10, 4, T.ConvParams(1, groups=4))


def test_conv_params_validation():
    with pytest.raises(ValueError, match="kernel must be positive"):
        T.ConvParams(0)
    with pytest.raises(ValueError, match="stride"):
        T.ConvParams(3, stride=0)
    with pytest.raises(ValueError, match="padding"):
        T.ConvParams(3, padding=-1)
    assert T.ConvParams((3, 5)).kernel == (3, 5)
    assert T.ConvParams(3).kernel == (3, 3)
