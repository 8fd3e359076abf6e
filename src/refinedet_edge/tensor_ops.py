"""Dense NCHW tensor primitives for the detector.

Every operation is a pure function over float32 arrays laid out as
(batch, channels, height, width).  Kernels accumulate in float64 and store
results as float32, so scalar reference implementations agree to tight
tolerances and repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np


def _as_pair(v):
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"expected a pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


@dataclass(frozen=True)
class ConvParams:
    """Geometry of a convolution: kernel size, stride, padding, groups.

    `padding` is symmetric zero padding applied to both spatial edges.
    """

    kernel: tuple
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_pair(self.kernel))
        kh, kw = self.kernel
        if kh < 1 or kw < 1:
            raise ValueError(f"kernel must be positive, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")


def check_feature_map(x, name="input"):
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"{name} must be 4-D (n, c, h, w), got shape {x.shape}")
    if x.dtype != np.float32:
        raise ValueError(f"{name} must be float32, got {x.dtype}")
    return x


def conv2d(x, weights, bias, params):
    """Grouped 2-D convolution.

    x:       (n, c_in, h, w) float32
    weights: (c_out, c_in // groups, kh, kw) float32
    bias:    (c_out,) or None
    params:  ConvParams; params.kernel must match the weight tensor.

    Returns (n, c_out, oh, ow) float32.  Accumulates in float64.
    """
    x = check_feature_map(x)
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise ValueError(f"weights must be 4-D (c_out, c_in/groups, kh, kw), got shape {weights.shape}")
    n, c_in, h, w = x.shape
    c_out, wc_in, kh, kw = weights.shape
    g = params.groups
    if (kh, kw) != params.kernel:
        raise ValueError(f"weight kernel {(kh, kw)} does not match params.kernel {params.kernel}")
    if c_in % g != 0:
        raise ValueError(f"groups={g} does not divide input channels {c_in}")
    if c_out % g != 0:
        raise ValueError(f"groups={g} does not divide output channels {c_out}")
    if wc_in * g != c_in:
        raise ValueError(
            f"input has {c_in} channels but weights expect {wc_in * g} (c_in/groups={wc_in} x groups={g})"
        )
    if bias is not None:
        bias = np.asarray(bias)
        if bias.size and bias.shape != (c_out,):
            raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")

    s, p = params.stride, params.padding
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    if oh < 1:
        raise ValueError(f"kernel height {kh} exceeds padded input height {h + 2 * p}")
    if ow < 1:
        raise ValueError(f"kernel width {kw} exceeds padded input width {w + 2 * p}")

    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    xg = xp.reshape(n, g, c_in // g, h + 2 * p, w + 2 * p)
    wg = weights.astype(np.float64).reshape(g, c_out // g, c_in // g, kh, kw)
    acc = np.zeros((g, c_out // g, n * oh * ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            patch = xg[:, :, :, i : i + s * (oh - 1) + 1 : s, j : j + s * (ow - 1) + 1 : s]
            cols = patch.transpose(1, 2, 0, 3, 4).reshape(g, c_in // g, n * oh * ow)
            acc += np.matmul(wg[:, :, :, i, j], cols)
    out = acc.reshape(g, c_out // g, n, oh, ow).transpose(2, 0, 1, 3, 4).reshape(n, c_out, oh, ow)
    if bias is not None and bias.size:
        out = out + bias.astype(np.float64)[None, :, None, None]
    return out.astype(np.float32)


def deconv2d(x, weights, params):
    """Transposed convolution (stride-2 upsampling only).

    x:       (n, c_in, h, w) float32
    weights: (c_in, c_out, kh, kw) float32
    params:  ConvParams with stride == 2 and groups == 1.

    Each input cell scatter-adds a weighted kernel into the output;
    output size is (h-1)*stride - 2*padding + kh per axis.
    """
    x = check_feature_map(x)
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise ValueError(f"weights must be 4-D (c_in, c_out, kh, kw), got shape {weights.shape}")
    if params.stride != 2:
        raise ValueError(f"deconv2d supports stride 2 only, got stride {params.stride}")
    if params.groups != 1:
        raise ValueError(f"deconv2d supports groups=1 only, got groups {params.groups}")
    n, c_in, h, w = x.shape
    wc_in, c_out, kh, kw = weights.shape
    if (kh, kw) != params.kernel:
        raise ValueError(f"weight kernel {(kh, kw)} does not match params.kernel {params.kernel}")
    if wc_in != c_in:
        raise ValueError(f"input has {c_in} channels but weights expect {wc_in}")

    s, p = params.stride, params.padding
    oh = (h - 1) * s - 2 * p + kh
    ow = (w - 1) * s - 2 * p + kw
    if oh < 1 or ow < 1:
        raise ValueError(f"output size {(oh, ow)} is not positive (padding {p} too large)")

    x64 = x.astype(np.float64)
    w64 = weights.astype(np.float64)
    canvas = np.zeros((n, c_out, (h - 1) * s + kh, (w - 1) * s + kw), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            contrib = np.einsum("nchw,co->nohw", x64, w64[:, :, i, j])
            canvas[:, :, i : i + s * (h - 1) + 1 : s, j : j + s * (w - 1) + 1 : s] += contrib
    out = canvas[:, :, p : p + oh, p : p + ow]
    return out.astype(np.float32)


def relu(x):
    return np.maximum(np.asarray(x), np.float32(0.0))


def sigmoid(x):
    x64 = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x64)
    pos = x64 >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x64[pos]))
    ex = np.exp(x64[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(np.float32)


def elementwise_add(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in add: {a.shape} vs {b.shape}")
    return (a.astype(np.float64) + b.astype(np.float64)).astype(np.float32)


def scale_channels(x, scale):
    """Multiply each channel c of (n, c, h, w) by scale[c]."""
    x = check_feature_map(x)
    scale = np.asarray(scale)
    if scale.shape != (x.shape[1],):
        raise ValueError(f"scale must have shape ({x.shape[1]},), got {scale.shape}")
    return (x.astype(np.float64) * scale.astype(np.float64)[None, :, None, None]).astype(np.float32)


def batch_norm_inference(x, mean, var, gamma, beta, eps=1e-5):
    """Per-channel affine normalization with fixed statistics.

    y = gamma * (x - mean) / sqrt(var + eps) + beta, all per channel.
    """
    x = check_feature_map(x)
    c = x.shape[1]
    vecs = {"mean": np.asarray(mean), "var": np.asarray(var),
            "gamma": np.asarray(gamma), "beta": np.asarray(beta)}
    for name, v in vecs.items():
        if v.shape != (c,):
            raise ValueError(f"{name} must have shape ({c},), got {v.shape}")
    if np.any(vecs["var"] < 0):
        bad = int(np.argmax(vecs["var"] < 0))
        raise ValueError(f"variance must be non-negative, got {float(vecs['var'][bad])} at channel {bad}")
    m = vecs["mean"].astype(np.float64)[None, :, None, None]
    v = vecs["var"].astype(np.float64)[None, :, None, None]
    g = vecs["gamma"].astype(np.float64)[None, :, None, None]
    b = vecs["beta"].astype(np.float64)[None, :, None, None]
    y = g * (x.astype(np.float64) - m) / np.sqrt(v + eps) + b
    return y.astype(np.float32)


def max_pool(x, window, stride, padding=0):
    """Sliding-window maximum.  Padding cells never win (they are -inf)."""
    x = check_feature_map(x)
    kh, kw = _as_pair(window)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    n, c, h, w = x.shape
    ph, pw = h + 2 * padding, w + 2 * padding
    if kh > ph or kw > pw:
        raise ValueError(f"pool window {(kh, kw)} exceeds padded input {(ph, pw)}")
    if padding >= kh or padding >= kw:
        raise ValueError(f"padding {padding} must be smaller than the window {(kh, kw)}")
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=np.float32(-np.inf))
    out = np.full((n, c, oh, ow), -np.inf, dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride]
            np.maximum(out, patch, out=out)
    return out


def global_avg_pool(x):
    """Mean over the spatial axes, keeping them as size-1 dims."""
    x = check_feature_map(x)
    return x.astype(np.float64).mean(axis=(2, 3), keepdims=True).astype(np.float32)


def param_count(c_in, c_out, params, bias=False, bn=False):
    """Weight-tensor element count of one convolution layer.

    Counts c_out * (c_in/groups) * kh * kw kernel weights, plus c_out bias
    terms and 2*c_out batch-norm affine terms when enabled.  Running
    statistics are not parameters and are never counted.
    """
    g = params.groups
    if c_in % g != 0:
        raise ValueError(f"groups={g} does not divide input channels {c_in}")
    if c_out % g != 0:
        raise ValueError(f"groups={g} does not divide output channels {c_out}")
    kh, kw = params.kernel
    total = c_out * (c_in // g) * kh * kw
    if bias:
        total += c_out
    if bn:
        total += 2 * c_out
    return total
