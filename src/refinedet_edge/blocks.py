"""Building blocks and backbone constructors.

Layers here are lightweight descriptors: each declares its tensors (name,
shape, init rule) and evaluates a forward pass against a WeightBundle.  No
layer owns storage, so models can be assembled, inspected, and counted
without allocating a single weight.

Every composite block is a `Sequence` of units with an optional additive
skip (identity or a strided 1x1 projection) and final relu, plus `Concat`
for parallel branches; the block classes only construct their units.

Nine backbone families are supported, one `FAMILIES` row each; each yields
a 4-level feature pyramid at strides 8/16/32/64 relative to the input.  A
width multiplier scales every realized channel count (topology is preserved
exactly), which keeps desktop test models small.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor_ops as T
from .weights import TensorDecl

# Groups requested of a ResNeXt bottleneck's 3x3 convolution, and the
# channel reduction of every squeeze-and-excitation gate.
CARDINALITY = 32
SE_REDUCTION = 16

# The strides of the four pyramid levels every backbone emits.
PYRAMID_STRIDES = (8, 16, 32, 64)


def scaled(c, width_multiplier):
    """Realized channel count under a width multiplier (never below 1)."""
    return max(1, int(round(c * width_multiplier)))


def effective_cardinality(width, requested):
    """Largest divisor of `width` not exceeding the requested cardinality."""
    if requested < 1:
        raise ValueError(f"cardinality must be >= 1, got {requested}")
    for card in range(min(width, requested), 0, -1):
        if width % card == 0:
            return card
    return 1


# ---------------------------------------------------------------------------
# primitive layers


class ConvUnit:
    """Square convolution padded by kernel // 2, then an optional relu: batch
    norm folded into the convolution (`bn=True`), or a `/b` bias (`bn=False`)."""

    def __init__(self, name, c_in, c_out, kernel=3, stride=1, groups=1, bn=True, act="relu"):
        if act not in ("relu", "none"):
            raise ValueError(f"unknown activation {act!r}")
        if not isinstance(kernel, int):
            raise ValueError(f"{name}: kernel must be one int, got {kernel!r}")
        self.name = name
        self.c_in = c_in
        self.c_out = c_out
        self.params = T.ConvParams(kernel, stride=stride, padding=kernel // 2, groups=groups)
        self.bn = bn
        self.act = act

    @property
    def out_channels(self):
        return self.c_out

    @property
    def stride_factor(self):
        return self.params.stride

    def decls(self):
        kh, kw = self.params.kernel
        out = [TensorDecl(f"{self.name}/w", (self.c_out, self.c_in // self.params.groups, kh, kw))]
        if self.bn:
            out.append(TensorDecl(f"{self.name}/bn_gamma", (self.c_out,)))
            out.append(TensorDecl(f"{self.name}/bn_beta", (self.c_out,)))
            out.append(TensorDecl(f"{self.name}/bn_mean", (self.c_out,), const=0.0, trainable=False))
            out.append(TensorDecl(f"{self.name}/bn_var", (self.c_out,), const=1.0, trainable=False))
        else:
            out.append(TensorDecl(f"{self.name}/b", (self.c_out,)))
        return out

    def forward(self, x, w):
        if self.bn:
            weights, b = self._fold_batch_norm(w)
        else:
            weights, b = w[f"{self.name}/w"], w[f"{self.name}/b"]
        y = T.conv2d(x, weights, b, self.params)
        if self.act == "relu":
            np.maximum(y, 0, out=y)
        return y

    def _fold_batch_norm(self, w):
        """Float64 weights and bias of conv followed by inference batch-norm.

        bn(conv(x)) = conv(x) * scale + beta - mean * scale with scale =
        gamma / sqrt(var + BN_EPS) per output channel (Jacob et al. 2018,
        arXiv 1712.05877), so one convolution with weights * scale computes
        both.  The bundle's arrays are only read.
        """
        var = w[f"{self.name}/bn_var"]
        if np.any(var < 0):
            c = int(np.argmax(var < 0))
            raise ValueError(f"{self.name}/bn_var must be non-negative, got {float(var[c])} at channel {c}")
        scale = w[f"{self.name}/bn_gamma"] / np.sqrt(var.astype(np.float64) + T.BN_EPS)
        shift = w[f"{self.name}/bn_beta"] - w[f"{self.name}/bn_mean"] * scale
        return np.multiply(w[f"{self.name}/w"], scale[:, None, None, None], dtype=np.float64), shift


class DeconvUnit:
    """Stride-2 transposed convolution (2x2 kernel, exact spatial doubling)."""

    def __init__(self, name, c_in, c_out):
        self.name = name
        self.c_in = c_in
        self.c_out = c_out
        self.params = T.ConvParams((2, 2), stride=2, padding=0)

    def decls(self):
        return [TensorDecl(f"{self.name}/w", (self.c_in, self.c_out, 2, 2))]

    def forward(self, x, w):
        return T.deconv2d(x, w[f"{self.name}/w"], self.params)


class MaxPoolUnit:
    def __init__(self, window, stride, padding=0):
        self.window = window
        self.stride = stride
        self.padding = padding

    out_channels = None  # preserves channel count

    @property
    def stride_factor(self):
        return self.stride

    def decls(self):
        return []

    def forward(self, x, w):
        return T.max_pool(x, self.window, self.stride, self.padding)


class L2NormUnit:
    """Channel-wise L2 rescaling with a learnable per-channel scale."""

    SCALE_INIT = 10.0

    def __init__(self, name, channels):
        self.name = name
        self.channels = channels

    def decls(self):
        return [TensorDecl(f"{self.name}/scale", (self.channels,), const=self.SCALE_INIT)]

    def forward(self, x, w):
        x = T.check_feature_map(x)
        if x.shape[1] != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels, got {x.shape[1]}")
        x64 = x.astype(np.float64)
        norm = np.sqrt((x64 * x64).sum(axis=1, keepdims=True)) + 1e-10
        y = (x64 / norm).astype(np.float32)
        return T.scale_channels(y, w[f"{self.name}/scale"])


class SEUnit:
    """Squeeze-and-excitation: global pool -> bottleneck MLP -> channel gates."""

    def __init__(self, name, channels):
        self.name = name
        self.channels = channels
        self.reduced = max(1, channels // SE_REDUCTION)

    @property
    def out_channels(self):
        return self.channels

    stride_factor = 1

    def decls(self):
        return [
            TensorDecl(f"{self.name}/reduce", (self.reduced, self.channels)),
            TensorDecl(f"{self.name}/expand", (self.channels, self.reduced)),
        ]

    def forward(self, x, w):
        x = T.check_feature_map(x)
        c = x.shape[1]
        w_reduce = np.asarray(w[f"{self.name}/reduce"])
        w_expand = np.asarray(w[f"{self.name}/expand"])
        if w_reduce.ndim != 2 or w_reduce.shape[1] != c:
            raise ValueError(f"reduce matrix must be (r, {c}), got {w_reduce.shape}")
        if w_expand.shape != (c, w_reduce.shape[0]):
            raise ValueError(f"expand matrix must be ({c}, {w_reduce.shape[0]}), got {w_expand.shape}")
        pooled = T.global_avg_pool(x)[:, :, 0, 0]  # (n, c)
        z = T.relu((pooled.astype(np.float64) @ w_reduce.astype(np.float64).T).astype(np.float32))
        gates = T.sigmoid((z.astype(np.float64) @ w_expand.astype(np.float64).T).astype(np.float32))
        return x * gates[:, :, None, None]  # see tensor_ops._exact_dtype: float32 is exact here


# ---------------------------------------------------------------------------
# composition


class Sequence:
    """Layers applied in order, then an optional additive skip and activation.

    `skip` is None (no shortcut), "identity" (add the block's input), or a
    unit applied to the block's input (a projection) whose tensors are
    declared after the layers'.  The output is act(layers(x) [+ skip(x)]).
    """

    def __init__(self, layers, skip=None, act="none"):
        if not layers:
            raise ValueError("empty layer sequence")
        if act not in ("relu", "none"):
            raise ValueError(f"unknown activation {act!r}")
        self.layers = list(layers)
        self.skip = skip
        self.act = act

    @property
    def out_channels(self):
        for layer in reversed(self.layers):
            if layer.out_channels is not None:
                return layer.out_channels
        return None

    @property
    def stride_factor(self):
        f = 1
        for layer in self.layers:
            f *= layer.stride_factor
        return f

    def decls(self):
        out = []
        for layer in self.layers:
            out.extend(layer.decls())
        if self.skip not in (None, "identity"):
            out.extend(self.skip.decls())
        return out

    def forward(self, x, w):
        y = x
        for layer in self.layers:
            y = layer.forward(y, w)
        if self.skip is not None:
            skip = x if self.skip == "identity" else self.skip.forward(x, w)
            y = T.elementwise_add(y, skip)
        if self.act == "relu":
            y = T.relu(y)
        return y


class Concat:
    """Parallel branches over one input, concatenated along channels."""

    def __init__(self, branches):
        self.branches = list(branches)

    @property
    def out_channels(self):
        return sum(b.out_channels for b in self.branches)

    @property
    def stride_factor(self):
        return self.branches[0].stride_factor

    def decls(self):
        return [d for b in self.branches for d in b.decls()]

    def forward(self, x, w):
        return np.concatenate([b.forward(x, w) for b in self.branches], axis=1)


def _shortcut(name, c_in, c_out, stride):
    """Identity when the shape is kept, else a strided 1x1 projection."""
    if stride == 1 and c_in == c_out:
        return "identity"
    return ConvUnit(f"{name}/proj", c_in, c_out, 1, stride, act="none")


# ---------------------------------------------------------------------------
# composite blocks: each only states what it is made of


class BasicResBlock(Sequence):
    """Two 3x3 convolutions with an additive skip; projection when shapes change."""

    def __init__(self, name, c_in, c_out, stride=1):
        self.name = name
        super().__init__([
            ConvUnit(f"{name}/conv1", c_in, c_out, 3, stride),
            ConvUnit(f"{name}/conv2", c_out, c_out, 3, act="none"),
        ], skip=_shortcut(name, c_in, c_out, stride), act="relu")


class ResNeXtBlock(Sequence):
    """Bottleneck with grouped 3x3 (aggregated transforms); optional SE gate.

    Bottleneck width is c_out/2; the group count falls back to the largest
    divisor of the realized width when CARDINALITY does not divide it (toy
    widths).
    """

    def __init__(self, name, c_in, c_out, stride=1, se=False):
        self.name = name
        width = max(1, c_out // 2)
        self.cardinality = effective_cardinality(width, CARDINALITY)
        layers = [
            ConvUnit(f"{name}/conv1", c_in, width, 1),
            ConvUnit(f"{name}/conv2", width, width, 3, stride, groups=self.cardinality),
            ConvUnit(f"{name}/conv3", width, c_out, 1, act="none"),
        ]
        if se:
            layers.append(SEUnit(f"{name}/se", c_out))
        super().__init__(layers, skip=_shortcut(name, c_in, c_out, stride), act="relu")


class DepthwiseSeparable(Sequence):
    """Depthwise 3x3 followed by pointwise 1x1, both batch-normed with relu."""

    def __init__(self, name, c_in, c_out, stride=1):
        self.name = name
        super().__init__([
            ConvUnit(f"{name}/dw", c_in, c_in, 3, stride, groups=c_in),
            ConvUnit(f"{name}/pw", c_in, c_out, 1),
        ])


class InvertedResidual(Sequence):
    """Expand (1x1) -> depthwise 3x3 -> linear project (1x1), skip when shapes allow."""

    def __init__(self, name, c_in, c_out, stride=1, expansion=6):
        if expansion < 1:
            raise ValueError(f"expansion must be >= 1, got {expansion}")
        self.name = name
        self.residual = stride == 1 and c_in == c_out
        hidden = c_in * expansion
        layers = [ConvUnit(f"{name}/expand", c_in, hidden, 1)] if expansion != 1 else []
        layers += [
            ConvUnit(f"{name}/dw", hidden, hidden, 3, stride, groups=hidden),
            ConvUnit(f"{name}/project", hidden, c_out, 1, act="none"),
        ]
        super().__init__(layers, skip="identity" if self.residual else None)


class XceptionBlock(Sequence):
    """Two separable convolutions (relu between them) with an additive
    (projected) skip; the second one carries the stride."""

    def __init__(self, name, c_in, c_out, stride=1):
        self.name = name
        super().__init__([
            ConvUnit(f"{name}/sep1/dw", c_in, c_in, 3, groups=c_in, act="none"),
            ConvUnit(f"{name}/sep1/pw", c_in, c_out, 1),
            ConvUnit(f"{name}/sep2/dw", c_out, c_out, 3, stride, groups=c_out, act="none"),
            ConvUnit(f"{name}/sep2/pw", c_out, c_out, 1, act="none"),
        ], skip=_shortcut(name, c_in, c_out, stride), act="relu")


class InceptionSEBlock(Sequence):
    """Four parallel branches (1x1 / 3x3 / double 3x3 / pool-project)
    concatenated and gated by an SE module.

    Branch widths split c_out as 1/4, 1/2, 1/8, remainder.  A stride-2
    variant strides every branch so spatial sizes stay aligned.
    """

    def __init__(self, name, c_in, c_out, stride=1):
        if c_out < 8:
            raise ValueError(f"inception block needs c_out >= 8, got {c_out}")
        b1 = c_out // 4
        b3 = c_out // 2
        b5 = c_out // 8
        bp = c_out - b1 - b3 - b5
        r3 = max(1, c_out // 4)
        r5 = max(1, c_out // 8)
        self.name = name
        self.widths = (b1, b3, b5, bp)
        super().__init__([
            Concat([
                ConvUnit(f"{name}/b1", c_in, b1, 1, stride),
                Sequence([
                    ConvUnit(f"{name}/b3_reduce", c_in, r3, 1),
                    ConvUnit(f"{name}/b3", r3, b3, 3, stride),
                ]),
                Sequence([
                    ConvUnit(f"{name}/b5_reduce", c_in, r5, 1),
                    ConvUnit(f"{name}/b5_a", r5, b5, 3),
                    ConvUnit(f"{name}/b5_b", b5, b5, 3, stride),
                ]),
                Sequence([
                    MaxPoolUnit(3, stride, 1),
                    ConvUnit(f"{name}/pool_proj", c_in, bp, 1),
                ]),
            ]),
            SEUnit(f"{name}/se", c_out),
        ])


# ---------------------------------------------------------------------------
# backbones


@dataclass
class Stage:
    """One named backbone stage; `out_name` labels the emitted feature map."""

    name: str
    layer: object
    out_name: str = ""

    def __post_init__(self):
        if not self.out_name:
            self.out_name = self.name


class Backbone:
    """Ordered stages + pyramid attachment points.

    A family's stem, where it has one, is its first stage, named "stem".
    The pyramid is the outputs of the three `attach` stages plus the final
    stage (the extra top block every backbone gains), in stride order
    8/16/32/64.
    """

    def __init__(self, stages, attach, l2norm_levels=()):
        self.stages = stages
        self.attach = tuple(attach)
        self.l2norm_levels = tuple(l2norm_levels)
        if len(self.attach) != 3:
            raise ValueError(f"expected 3 attachment stages, got {self.attach}")

    @property
    def pyramid_indices(self):
        return self.attach + (len(self.stages) - 1,)

    def stage_table(self):
        """(name, out_channels, cumulative stride) per stage."""
        rows = []
        cum = 1
        for stage in self.stages:
            cum *= stage.layer.stride_factor
            rows.append((stage.out_name, stage.layer.out_channels, cum))
        return rows

    def pyramid(self):
        """The stage_table rows of the four pyramid levels, in stride order."""
        rows = self.stage_table()
        return [rows[i] for i in self.pyramid_indices]

    def decls(self):
        return [d for stage in self.stages for d in stage.layer.decls()]

    def forward(self, x, w):
        """Return the four pyramid feature maps for a batch of images."""
        wanted = set(self.pyramid_indices)
        feats = {}
        for i, stage in enumerate(self.stages):
            x = stage.layer.forward(x, w)
            if i in wanted:
                feats[i] = x
        return [feats[i] for i in self.pyramid_indices]


def _stem7(wm, *more):
    """The stem stage of the ResNet-style families: a 7x7 stride-2
    convolution and a 3x3 max pool, then the layers in `more`."""
    return Stage("stem", Sequence([
        ConvUnit("backbone/conv1", 3, scaled(64, wm), 7, stride=2),
        MaxPoolUnit(3, 2, 1),
        *more,
    ]))


def _chain(block, rows, c_prev, wm):
    """One stage per (name, c_out, stride, *extra) row: `block` fed by the stage before."""
    stages = []
    for name, c, stride, *extra in rows:
        stages.append(Stage(name, block(f"backbone/{name}", c_prev, scaled(c, wm), stride, *extra)))
        c_prev = scaled(c, wm)
    return stages


def _vgg16(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stages = []
    plan = [("conv1", 2, 64, False), ("conv2", 2, 128, True), ("conv3", 3, 256, True),
            ("conv4", 3, 512, True), ("conv5", 3, 512, True)]
    c_prev = 3
    for name, n_convs, c, pool in plan:
        layers = [MaxPoolUnit(2, 2)] if pool else []
        for i in range(1, n_convs + 1):
            layers.append(ConvUnit(f"backbone/{name}_{i}", c_prev, s(c), 3, bn=False))
            c_prev = s(c)
        stages.append(Stage(name, Sequence(layers), f"{name}_{n_convs}"))
    conv_fc = Sequence([
        ConvUnit("backbone/conv_fc6", c_prev, s(1024), 3, stride=2, bn=False),
        ConvUnit("backbone/conv_fc7", s(1024), s(1024), 1, bn=False),
    ])
    stages.append(Stage("conv_fc", conv_fc, "conv_fc7"))
    conv6 = Sequence([
        ConvUnit("backbone/conv6_1", s(1024), s(head_depth), 1, bn=False),
        ConvUnit("backbone/conv6_2", s(head_depth), s(head_depth), 3, stride=2, bn=False),
    ])
    stages.append(Stage("conv6", conv6, "conv6_2"))
    return Backbone(stages, attach=(3, 4, 5), l2norm_levels=(0, 1))


def _resnet18(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stages = [_stem7(wm)]
    c_prev = s(64)
    for name, c, stride in [("res2", 64, 1), ("res3", 128, 2), ("res4", 256, 2), ("res5", 512, 2)]:
        blocks = [
            BasicResBlock(f"backbone/{name}_1", c_prev, s(c), stride),
            BasicResBlock(f"backbone/{name}_2", s(c), s(c)),
        ]
        stages.append(Stage(name, Sequence(blocks), f"{name}_2"))
        c_prev = s(c)
    stages.append(Stage("res6", BasicResBlock("backbone/res6", c_prev, s(head_depth), 2)))
    return Backbone(stages, attach=(2, 3, 4))


def _resnext26(head_depth, wm):
    rows = [  # (name, c_out, stride)
        ("resx1", 256, 1), ("resx2", 256, 1),
        ("resx3", 512, 2), ("resx4", 512, 1),
        ("resx5", 1024, 2), ("resx6", 1024, 1),
        ("resx7", 2048, 2), ("resx8", 2048, 1),
        ("resx9", head_depth, 2),
    ]
    return Backbone([_stem7(wm)] + _chain(ResNeXtBlock, rows, scaled(64, wm), wm), attach=(4, 6, 8))


def _resnext50(head_depth, wm, se=False):
    rows = []  # (name, c_out, stride): flat resx numbering, or convG_B with SE
    for g, (n_blocks, c) in enumerate(zip([3, 4, 6, 3], [256, 512, 1024, 2048])):
        for b in range(1, n_blocks + 1):
            name = f"conv{g + 2}_{b}" if se else f"resx{len(rows) + 1}"
            rows.append((name, c, 2 if (b == 1 and g > 0) else 1))
    rows.append(("conv6" if se else "resx17", head_depth, 2))
    stages = [_stem7(wm)] + _chain(partial(ResNeXtBlock, se=se), rows, scaled(64, wm), wm)
    return Backbone(stages, attach=(7, 13, 16))


def _inception_senet(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = _stem7(
        wm,
        ConvUnit("backbone/conv2_1", s(64), s(64), 1),
        ConvUnit("backbone/conv2_2", s(64), s(192), 3),
        MaxPoolUnit(3, 2, 1),
    )
    rows = [  # ten inception blocks, then the added top block
        ("inception_3a", 256, 1), ("inception_3b", 320, 1), ("inception_3c", 576, 2),
        ("inception_4a", 576, 1), ("inception_4b", 576, 1), ("inception_4c", 608, 1),
        ("inception_4d", 608, 1), ("inception_4e", 1056, 2),
        ("inception_5a", 1056, 1), ("inception_5b", 1024, 1),
        ("inception_6", head_depth, 2),
    ]
    return Backbone([stem] + _chain(InceptionSEBlock, rows, s(192), wm), attach=(2, 7, 10))


def _mobilenetv1(head_depth, wm):
    stem = Stage("stem", ConvUnit("backbone/conv1", 3, scaled(32, wm), 3, stride=2))
    rows = [
        ("conv2_1", 64, 1), ("conv2_2", 128, 2),
        ("conv3_1", 128, 1), ("conv3_2", 256, 2),
        ("conv4_1", 256, 1), ("conv4_2", 512, 2),
        ("conv5_1", 512, 1), ("conv5_2", 512, 1), ("conv5_3", 512, 1),
        ("conv5_4", 512, 1), ("conv5_5", 512, 1), ("conv5_6", 1024, 2),
        ("conv6", 1024, 1),
        ("conv7", 512, 2),  # added top block, depthwise-separable like the rest
    ]
    return Backbone([stem] + _chain(DepthwiseSeparable, rows, scaled(32, wm), wm), attach=(5, 11, 13))


def _mobilenetv2(head_depth, wm):
    stem = Stage("stem", ConvUnit("backbone/conv1", 3, scaled(32, wm), 3, stride=2))
    rows = [  # (name, c_out, stride, expansion)
        ("conv2_1", 16, 1, 1),
        ("conv2_2", 24, 2, 6), ("conv2_3", 24, 1, 6),
        ("conv3_1", 32, 2, 6), ("conv3_2", 32, 1, 6), ("conv3_3", 32, 1, 6),
        ("conv4_1", 64, 2, 6), ("conv4_2", 64, 1, 6), ("conv4_3", 64, 1, 6), ("conv4_4", 64, 1, 6),
        ("conv4_5", 96, 1, 6), ("conv4_6", 96, 1, 6), ("conv4_7", 96, 1, 6),
        ("conv6_1", 160, 2, 6), ("conv6_2", 160, 1, 6), ("conv6_3", 160, 1, 6), ("conv6_4", 320, 1, 6),
        ("conv7", 96, 2, 6),  # added top block keeps the family's 96-deep tail
    ]
    return Backbone([stem] + _chain(InvertedResidual, rows, scaled(32, wm), wm), attach=(5, 13, 17))


def _xception(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = Stage("stem", Sequence([
        ConvUnit("backbone/conv1", 3, s(32), 3, stride=2),
        ConvUnit("backbone/conv2", s(32), s(64), 3),
    ]))
    rows = [("xception1", 128, 2), ("xception2", 256, 2), ("xception3", 728, 1)]
    rows += [(f"xception{i}", 728, 1) for i in range(4, 12)]
    rows += [("xception12", 1024, 2)]
    stages = [stem] + _chain(XceptionBlock, rows, s(64), wm)
    stages += _chain(DepthwiseSeparable, [("conv4_1", 1536, 2), ("conv4_2", 2048, 1)], s(1024), wm)
    stages += _chain(XceptionBlock, [("xception13", head_depth, 2)], s(2048), wm)
    return Backbone(stages, attach=(11, 12, 14))


@dataclass(frozen=True)
class Family:
    """One backbone family: its constructor, the block its detection branch
    reuses (so that branch keeps the backbone's character), and the
    intermediate depth where it is not the head depth."""

    build: object  # (head_depth, width_multiplier) -> Backbone
    intermediate: object  # (name, c_in, depth) -> block
    intermediate_depth: int = 0  # 0: the head depth


FAMILIES = {
    "vgg16": Family(_vgg16, partial(ConvUnit, bn=False)),
    "resnet18": Family(_resnet18, BasicResBlock),
    "resnext26": Family(_resnext26, ResNeXtBlock),
    "resnext50": Family(_resnext50, ResNeXtBlock),
    "se_resnext50": Family(partial(_resnext50, se=True), partial(ResNeXtBlock, se=True)),
    "inception_senet": Family(_inception_senet, InceptionSEBlock),
    "mobilenetv1": Family(_mobilenetv1, DepthwiseSeparable),
    "mobilenetv2": Family(_mobilenetv2, InvertedResidual, intermediate_depth=96),  # its 96-deep tail
    "xception": Family(_xception, XceptionBlock),
}
BACKBONE_NAMES = tuple(FAMILIES)


def _family(kind):
    """The FAMILIES entry for `kind`, or a ValueError naming the legal ones."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown backbone {kind!r}; expected one of {BACKBONE_NAMES}")
    return FAMILIES[kind]


def build_backbone(kind, head_depth=256, width_multiplier=1.0):
    """Construct one of the nine supported backbones.

    `head_depth` sets the channel depth of the added top stage (and, for most
    families, of the detection-side layers built on top of this backbone).
    """
    return _family(kind).build(head_depth, width_multiplier)


def intermediate_block(kind, name, c_in, depth):
    """The per-level block between a backbone feature and its fusion layer."""
    return _family(kind).intermediate(name, c_in, depth)
