"""Dense NCHW tensor primitives for the detector.

Every operation is a pure function over float32 arrays laid out as
(batch, channels, height, width).  Kernels accumulate in float64 and store
results as float32, so scalar reference implementations agree to tight
tolerances and repeated runs are bit-identical.  `conv2d` also takes
float64 weights and bias, and uses them without a copy: a layer passes its
batch-norm folded into them that way (blocks.ConvUnit).

`conv2d` has two paths, both with scratch memory of a fixed size:

- depthwise (groups == c_in == c_out): a broadcast multiply-accumulate over
  the kernel taps on blocks of CHANNEL_BLOCK float64 values (256 KiB), so
  the accumulator stays in cache.  It adds the same exact products in the
  same order as a per-tap loop over the whole map, so its result is
  bit-identical to that loop by construction.
- dense and grouped: im2col over chunks of output rows into one reused
  float64 buffer, then one GEMM per chunk, batched over groups, with
  K = c_in/groups*kh*kw.  A chunk's columns aim at IM2COL_BUDGET values
  (512 KiB, so they stay in L2 while the GEMM reads them), but the GEMM gets
  at least IM2COL_MIN_COLUMNS output cells, and the columns never exceed
  IM2COL_BLOCK values (2 MiB) unless one output row alone does.  BLAS fixes
  the order of the K-sum, so results agree with the oracles to rounding, do
  not depend on the chunk size, and repeat exactly.

`batch_norm_inference` is the unfolded formula over the whole map in
float64, the reference for the batch-norm that layers fold into `conv2d`.
`deconv2d` is one GEMM for all taps followed by a scatter-add per tap.
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


def check_feature_map(x):
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D (n, c, h, w), got shape {x.shape}")
    if x.dtype != np.float32:
        raise ValueError(f"input must be float32, got {x.dtype}")
    return x


def conv2d(x, weights, bias, params):
    """Grouped 2-D convolution.

    x:       (n, c_in, h, w) float32
    weights: (c_out, c_in // groups, kh, kw) float32 or float64; float64
             weights (batch-norm folded in, say) are used without a copy
    bias:    (c_out,) float32 or float64, or None
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
        if bias.shape != (c_out,):
            raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")

    s, p = params.stride, params.padding
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    if oh < 1:
        raise ValueError(f"kernel height {kh} exceeds padded input height {h + 2 * p}")
    if ow < 1:
        raise ValueError(f"kernel width {kw} exceeds padded input width {w + 2 * p}")

    b64 = None if bias is None else bias.astype(np.float64, copy=False)
    w64 = weights.astype(np.float64, copy=False)
    out = np.empty((n, c_out, oh, ow), dtype=np.float32)
    if g == c_in == c_out:
        _depthwise(x, w64, b64, s, p, out)
    else:
        _dense(x, w64, b64, s, p, g, out)
    return out


# Float64 values in one channel block of the depthwise kernel.  The
# accumulator, its one temporary (256 KiB each) and the padded input block
# (s*s times that at stride s) stay in L2 cache.  A block never splits a
# channel, so a plane larger than this is one block of its own.
CHANNEL_BLOCK = 2**15

# Chunk sizes of the dense kernel, in float64 values of its im2col buffer
# (K = c_in/g*kh*kw per output cell, summed over groups) or of its GEMM
# result (c_out per cell), whichever is wider.
# - IM2COL_BUDGET (512 KiB) is the target: the columns stay in a 2 MiB L2
#   while the GEMM reads them.  At 2 MiB the thin layers (K = 27-288) were
#   memory-bound: on one thread of an AVX-512 Xeon, (4x27)@(27x102400) ran at
#   4.5 GMAC/s, and at 18.4 GMAC/s with 2 427 columns.
# - IM2COL_MIN_COLUMNS is the floor in output cells: a wide K gets at least
#   that many GEMM columns, so the per-call cost of a GEMM stays amortized.
# - IM2COL_BLOCK (2 MiB) is the cap, even against the floor.  Unchunked
#   columns raised the peak RSS of forward passes of thin vgg16-320 from 46
#   to 76 MiB.
IM2COL_BUDGET = 2**16
IM2COL_MIN_COLUMNS = 256
IM2COL_BLOCK = 2**18


def _depthwise(x, w64, b64, s, p, out):
    """One filter per channel: a broadcast multiply-accumulate over the taps.

    A block of channels is zero-padded into float64 and split into its s*s
    stride phases, so every tap reads one contiguous run per channel of
    length oh*wq; the wq - ow columns past each output row are computed and
    dropped.  The arithmetic is that of a per-tap loop over the whole map:
    each sum starts at +0.0 and adds the exact float64 products x*w tap by
    tap (row-major over the kernel), then adds the bias.
    """
    n, c, oh, ow = out.shape
    h, w = x.shape[2:]
    kh, kw = w64.shape[2:]
    hq, wq = oh + (kh - 1) // s + 1, ow + (kw - 1) // s
    run = oh * wq
    cb = min(c, max(1, CHANNEL_BLOCK // run))
    padded = np.zeros((cb, s * hq, s * wq))
    acc = np.empty((cb, run))
    tmp = np.empty((cb, run))
    for b in range(n):
        for c0 in range(0, c, cb):
            c1 = min(c0 + cb, c)
            m = c1 - c0
            # the buffer can end before x does, but never before a column a tap reads
            inner = padded[:m, p : p + h, p : p + w]
            inner[...] = x[b, c0:c1, : inner.shape[1], : inner.shape[2]]
            phases = padded[:m].reshape(m, hq, s, wq, s).transpose(0, 2, 4, 1, 3)
            phases = np.ascontiguousarray(phases).reshape(m, s, s, hq * wq)
            a, t = acc[:m], tmp[:m]
            a.fill(0.0)
            for i in range(kh):
                for j in range(kw):
                    o = (i // s) * wq + j // s
                    np.multiply(phases[:, i % s, j % s, o : o + run], w64[c0:c1, 0, i, j, None], out=t)
                    a += t
            if b64 is not None:
                a += b64[c0:c1, None]
            out[b, c0:c1] = a.reshape(m, oh, wq)[:, :, :ow]


def _dense(x, w64, b64, s, p, g, out):
    """Grouped convolution as im2col plus one GEMM per chunk of output rows.

    The columns of a chunk are copied once, from a strided window view, into
    a reused float64 buffer ordered (group, c_in/g, kh, kw, n, rows, ow), and
    one matmul batched over groups reduces K = c_in/g*kh*kw for every output
    cell of the chunk.
    """
    n, c_out, oh, ow = out.shape
    if p:
        c, h, w = x.shape[1:]
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float32)
        xp[:, :, p : p + h, p : p + w] = x
    else:
        xp = x
    cg, kh, kw = w64.shape[1:]
    k = cg * kh * kw
    wg = w64.reshape(g, c_out // g, k)
    sn, sc, sy, sx = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, g, cg, kh, kw, oh, ow), (sn, sc * cg, sc, sy, sx, sy * s, sx * s), writeable=False)
    windows = windows.transpose(1, 2, 3, 4, 0, 5, 6)
    width, row = max(g * k, c_out), n * ow  # float64 values per GEMM column; columns per output row
    rows = max(IM2COL_BUDGET // (width * row), -(-IM2COL_MIN_COLUMNS // row))
    rows = max(1, min(oh, rows, IM2COL_BLOCK // (width * row)))
    cols = np.empty(g * k * n * rows * ow)
    res = np.empty(c_out * n * rows * ow)
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        m = n * (r1 - r0) * ow
        chunk = cols[: g * k * m].reshape(g, cg, kh, kw, n, r1 - r0, ow)
        np.copyto(chunk, windows[..., r0:r1, :])
        part = res[: c_out * m].reshape(g, c_out // g, m)
        np.matmul(wg, chunk.reshape(g, k, m), out=part)
        part = part.reshape(c_out, n, r1 - r0, ow).transpose(1, 0, 2, 3)
        if b64 is not None:
            part += b64[:, None, None]
        out[:, :, r0:r1] = part


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

    # one GEMM for every tap: rows (c_out, kh, kw), columns (n, h, w)
    x64 = x.astype(np.float64).transpose(1, 0, 2, 3).reshape(c_in, n * h * w)
    w64 = weights.astype(np.float64).reshape(c_in, c_out * kh * kw)
    taps = (w64.T @ x64).reshape(c_out, kh, kw, n, h, w)
    canvas = np.zeros((n, c_out, (h - 1) * s + kh, (w - 1) * s + kw), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            tap = taps[:, i, j].transpose(1, 0, 2, 3)
            canvas[:, :, i : i + s * (h - 1) + 1 : s, j : j + s * (w - 1) + 1 : s] += tap
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


def _exact_dtype(a, b):
    """float32 when both operands convert to it exactly, else a wider float.

    A float32 add or multiply gives the same bits as the float64 operation
    rounded to float32 (53 >= 2 * 24 + 2), so only operands wider than
    float32 need float64 arithmetic.
    """
    return np.result_type(a, b, np.float32)


def elementwise_add(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in add: {a.shape} vs {b.shape}")
    return np.add(a, b, dtype=_exact_dtype(a, b)).astype(np.float32, copy=False)


def scale_channels(x, scale):
    """Multiply each channel c of (n, c, h, w) by scale[c]."""
    x = check_feature_map(x)
    scale = np.asarray(scale)
    if scale.shape != (x.shape[1],):
        raise ValueError(f"scale must have shape ({x.shape[1]},), got {scale.shape}")
    return np.multiply(x, scale[None, :, None, None], dtype=_exact_dtype(x, scale)).astype(np.float32, copy=False)


# Added to the batch-norm variance before its square root.
BN_EPS = 1e-5


def batch_norm_inference(x, mean, var, gamma, beta):
    """Per-channel affine normalization with fixed statistics.

    y = gamma * (x - mean) / sqrt(var + BN_EPS) + beta, all per channel.
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
    m, v, g, b = (vecs[k].astype(np.float64)[None, :, None, None]
                  for k in ("mean", "var", "gamma", "beta"))
    return (g * (x - m) / np.sqrt(v + BN_EPS) + b).astype(np.float32)


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
    if padding:
        xp = np.full((n, c, ph, pw), -np.inf, dtype=np.float32)
        xp[:, :, padding : padding + h, padding : padding + w] = x
    else:
        xp = x
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

