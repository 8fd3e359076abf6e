"""Building blocks and backbone constructors.

Layers here are lightweight descriptors: each declares its tensors (name,
shape, init rule) and evaluates a forward pass against a WeightBundle.  No
layer owns storage, so models can be assembled, inspected, and counted
without allocating a single weight.

Every composite block is a `Sequence` of units with an optional additive
skip (identity or a strided 1x1 projection) and final relu, plus `Concat`
for parallel branches; the block classes only construct their units.

Nine backbone families are supported; each yields a 4-level feature pyramid
at strides 8/16/32/64 relative to the input.  A width multiplier scales every
realized channel count (topology is preserved exactly), which keeps desktop
test models small.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor_ops as T
from .weights import TensorDecl

BACKBONE_NAMES = (
    "vgg16",
    "resnet18",
    "resnext26",
    "resnext50",
    "se_resnext50",
    "inception_senet",
    "mobilenetv1",
    "mobilenetv2",
    "xception",
)


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
    """Convolution with optional bias, batch norm, and activation."""

    def __init__(self, name, c_in, c_out, kernel=3, stride=1, padding=None,
                 groups=1, bias=False, bn=True, act="relu"):
        if act not in ("relu", "none"):
            raise ValueError(f"unknown activation {act!r}")
        kh, kw = T._as_pair(kernel)
        if padding is None:
            padding = kh // 2
        self.name = name
        self.c_in = c_in
        self.c_out = c_out
        self.params = T.ConvParams((kh, kw), stride=stride, padding=padding, groups=groups)
        self.bias = bias
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
        if self.bias:
            out.append(TensorDecl(f"{self.name}/b", (self.c_out,)))
        if self.bn:
            out.append(TensorDecl(f"{self.name}/bn_gamma", (self.c_out,)))
            out.append(TensorDecl(f"{self.name}/bn_beta", (self.c_out,)))
            out.append(TensorDecl(f"{self.name}/bn_mean", (self.c_out,), const=0.0, trainable=False))
            out.append(TensorDecl(f"{self.name}/bn_var", (self.c_out,), const=1.0, trainable=False))
        return out

    def forward(self, x, w):
        b = w[f"{self.name}/b"] if self.bias else None
        y = T.conv2d(x, w[f"{self.name}/w"], b, self.params)
        if self.bn:
            y = T.batch_norm_inference(
                y, w[f"{self.name}/bn_mean"], w[f"{self.name}/bn_var"],
                w[f"{self.name}/bn_gamma"], w[f"{self.name}/bn_beta"])
        if self.act == "relu":
            y = T.relu(y)
        return y


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

    def __init__(self, name, channels, reduction=16):
        if reduction < 1:
            raise ValueError(f"reduction must be >= 1, got {reduction}")
        self.name = name
        self.channels = channels
        self.reduced = max(1, channels // reduction)

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
        return (x.astype(np.float64) * gates.astype(np.float64)[:, :, None, None]).astype(np.float32)


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
    divisor of the realized width when the requested cardinality does not
    divide it (toy widths).
    """

    def __init__(self, name, c_in, c_out, stride=1, cardinality=32, se=False, reduction=16):
        self.name = name
        width = max(1, c_out // 2)
        self.cardinality = effective_cardinality(width, cardinality)
        layers = [
            ConvUnit(f"{name}/conv1", c_in, width, 1),
            ConvUnit(f"{name}/conv2", width, width, 3, stride, groups=self.cardinality),
            ConvUnit(f"{name}/conv3", width, c_out, 1, act="none"),
        ]
        if se:
            layers.append(SEUnit(f"{name}/se", c_out, reduction))
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

    def __init__(self, name, c_in, c_out, stride=1, reduction=16):
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
            SEUnit(f"{name}/se", c_out, reduction),
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
    """Stem + ordered stages + pyramid attachment points.

    The pyramid is the outputs of the three `attach` stages plus the final
    stage (the extra top block every backbone gains), in stride order
    8/16/32/64.
    """

    def __init__(self, kind, stem, stages, attach, l2norm_levels=()):
        self.kind = kind
        self.stem = stem
        self.stages = stages
        self.attach = tuple(attach)
        self.l2norm_levels = tuple(l2norm_levels)
        if len(self.attach) != 3:
            raise ValueError(f"expected 3 attachment stages, got {self.attach}")

    @property
    def pyramid_indices(self):
        return self.attach + (len(self.stages) - 1,)

    def stage_table(self):
        """(name, out_channels, cumulative stride) per stage, stem first."""
        rows = []
        cum = 1
        if self.stem is not None:
            cum *= self.stem.stride_factor
            rows.append(("stem", self.stem.out_channels, cum))
        for stage in self.stages:
            cum *= stage.layer.stride_factor
            rows.append((stage.out_name, stage.layer.out_channels, cum))
        return rows

    def _pyramid_rows(self):
        stage_rows = self.stage_table()[-len(self.stages):]
        return [stage_rows[i] for i in self.pyramid_indices]

    def pyramid_names(self):
        return [name for name, _, _ in self._pyramid_rows()]

    def pyramid_channels(self):
        return [c for _, c, _ in self._pyramid_rows()]

    def pyramid_strides(self):
        return [stride for _, _, stride in self._pyramid_rows()]

    def decls(self):
        out = [] if self.stem is None else self.stem.decls()
        for stage in self.stages:
            out.extend(stage.layer.decls())
        return out

    def forward(self, x, w):
        """Return the four pyramid feature maps for a batch of images."""
        if self.stem is not None:
            x = self.stem.forward(x, w)
        wanted = set(self.pyramid_indices)
        feats = {}
        for i, stage in enumerate(self.stages):
            x = stage.layer.forward(x, w)
            if i in wanted:
                feats[i] = x
        return [feats[i] for i in self.pyramid_indices]


def _vgg16(head_depth, wm):
    s = lambda c: scaled(c, wm)
    kw = dict(bias=True, bn=False)
    stages = []
    plan = [("conv1", 2, 64, False), ("conv2", 2, 128, True), ("conv3", 3, 256, True),
            ("conv4", 3, 512, True), ("conv5", 3, 512, True)]
    c_prev = 3
    for name, n_convs, c, pool in plan:
        layers = [MaxPoolUnit(2, 2)] if pool else []
        for i in range(1, n_convs + 1):
            layers.append(ConvUnit(f"backbone/{name}_{i}", c_prev, s(c), 3, **kw))
            c_prev = s(c)
        stages.append(Stage(name, Sequence(layers), f"{name}_{n_convs}"))
    conv_fc = Sequence([
        ConvUnit("backbone/conv_fc6", c_prev, s(1024), 3, stride=2, **kw),
        ConvUnit("backbone/conv_fc7", s(1024), s(1024), 1, **kw),
    ])
    stages.append(Stage("conv_fc", conv_fc, "conv_fc7"))
    conv6 = Sequence([
        ConvUnit("backbone/conv6_1", s(1024), s(head_depth), 1, **kw),
        ConvUnit("backbone/conv6_2", s(head_depth), s(head_depth), 3, stride=2, **kw),
    ])
    stages.append(Stage("conv6", conv6, "conv6_2"))
    return Backbone("vgg16", None, stages, attach=(3, 4, 5), l2norm_levels=(0, 1))


def _resnet18(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = Sequence([
        ConvUnit("backbone/conv1", 3, s(64), 7, stride=2, padding=3),
        MaxPoolUnit(3, 2, 1),
    ])
    stages = []
    c_prev = s(64)
    for name, c, stride in [("res2", 64, 1), ("res3", 128, 2), ("res4", 256, 2), ("res5", 512, 2)]:
        blocks = [
            BasicResBlock(f"backbone/{name}_1", c_prev, s(c), stride),
            BasicResBlock(f"backbone/{name}_2", s(c), s(c)),
        ]
        stages.append(Stage(name, Sequence(blocks), f"{name}_2"))
        c_prev = s(c)
    stages.append(Stage("res6", BasicResBlock("backbone/res6", c_prev, s(head_depth), 2)))
    return Backbone("resnet18", stem, stages, attach=(1, 2, 3))


def _resnext_stem(wm):
    return Sequence([
        ConvUnit("backbone/conv1", 3, scaled(64, wm), 7, stride=2, padding=3),
        MaxPoolUnit(3, 2, 1),
    ])


def _resnext26(head_depth, wm):
    s = lambda c: scaled(c, wm)
    plan = [  # (name, c_out, stride)
        ("resx1", 256, 1), ("resx2", 256, 1),
        ("resx3", 512, 2), ("resx4", 512, 1),
        ("resx5", 1024, 2), ("resx6", 1024, 1),
        ("resx7", 2048, 2), ("resx8", 2048, 1),
        ("resx9", head_depth, 2),
    ]
    stages = []
    c_prev = s(64)
    for name, c, stride in plan:
        stages.append(Stage(name, ResNeXtBlock(f"backbone/{name}", c_prev, s(c), stride)))
        c_prev = s(c)
    return Backbone("resnext26", _resnext_stem(wm), stages, attach=(3, 5, 7))


def _resnext50(head_depth, wm, se=False):
    s = lambda c: scaled(c, wm)
    counts = [3, 4, 6, 3]
    chans = [256, 512, 1024, 2048]
    if se:
        group_names = ["conv2", "conv3", "conv4", "conv5"]
        kind = "se_resnext50"
        top_name = "conv6"
    else:
        group_names = None  # flat resx numbering
        kind = "resnext50"
        top_name = "resx17"
    stages = []
    c_prev = s(64)
    idx = 0
    for g, (n_blocks, c) in enumerate(zip(counts, chans)):
        for b in range(1, n_blocks + 1):
            idx += 1
            stride = 2 if (b == 1 and g > 0) else 1
            name = f"{group_names[g]}_{b}" if se else f"resx{idx}"
            stages.append(Stage(name, ResNeXtBlock(f"backbone/{name}", c_prev, s(c), stride, se=se)))
            c_prev = s(c)
    stages.append(Stage(top_name, ResNeXtBlock(f"backbone/{top_name}", c_prev, s(head_depth), 2, se=se)))
    return Backbone(kind, _resnext_stem(wm), stages, attach=(6, 12, 15))


def _inception_senet(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = Sequence([
        ConvUnit("backbone/conv1", 3, s(64), 7, stride=2, padding=3),
        MaxPoolUnit(3, 2, 1),
        ConvUnit("backbone/conv2_1", s(64), s(64), 1),
        ConvUnit("backbone/conv2_2", s(64), s(192), 3),
        MaxPoolUnit(3, 2, 1),
    ])
    plan = [  # ten inception blocks, then the added top block
        ("inception_3a", 256, 1), ("inception_3b", 320, 1), ("inception_3c", 576, 2),
        ("inception_4a", 576, 1), ("inception_4b", 576, 1), ("inception_4c", 608, 1),
        ("inception_4d", 608, 1), ("inception_4e", 1056, 2),
        ("inception_5a", 1056, 1), ("inception_5b", 1024, 1),
        ("inception_6", head_depth, 2),
    ]
    stages = []
    c_prev = s(192)
    for name, c, stride in plan:
        stages.append(Stage(name, InceptionSEBlock(f"backbone/{name}", c_prev, s(c), stride)))
        c_prev = s(c)
    return Backbone("inception_senet", stem, stages, attach=(1, 6, 9))


def _mobilenetv1(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = ConvUnit("backbone/conv1", 3, s(32), 3, stride=2)
    plan = [
        ("conv2_1", 64, 1), ("conv2_2", 128, 2),
        ("conv3_1", 128, 1), ("conv3_2", 256, 2),
        ("conv4_1", 256, 1), ("conv4_2", 512, 2),
        ("conv5_1", 512, 1), ("conv5_2", 512, 1), ("conv5_3", 512, 1),
        ("conv5_4", 512, 1), ("conv5_5", 512, 1), ("conv5_6", 1024, 2),
        ("conv6", 1024, 1),
        ("conv7", 512, 2),  # added top block, depthwise-separable like the rest
    ]
    stages = []
    c_prev = s(32)
    for name, c, stride in plan:
        stages.append(Stage(name, DepthwiseSeparable(f"backbone/{name}", c_prev, s(c), stride)))
        c_prev = s(c)
    return Backbone("mobilenetv1", stem, stages, attach=(4, 10, 12))


def _mobilenetv2(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = ConvUnit("backbone/conv1", 3, s(32), 3, stride=2)
    plan = [  # (name, c_out, stride, expansion)
        ("conv2_1", 16, 1, 1),
        ("conv2_2", 24, 2, 6), ("conv2_3", 24, 1, 6),
        ("conv3_1", 32, 2, 6), ("conv3_2", 32, 1, 6), ("conv3_3", 32, 1, 6),
        ("conv4_1", 64, 2, 6), ("conv4_2", 64, 1, 6), ("conv4_3", 64, 1, 6), ("conv4_4", 64, 1, 6),
        ("conv4_5", 96, 1, 6), ("conv4_6", 96, 1, 6), ("conv4_7", 96, 1, 6),
        ("conv6_1", 160, 2, 6), ("conv6_2", 160, 1, 6), ("conv6_3", 160, 1, 6), ("conv6_4", 320, 1, 6),
        ("conv7", 96, 2, 6),  # added top block keeps the family's 96-deep tail
    ]
    stages = []
    c_prev = s(32)
    for name, c, stride, t in plan:
        stages.append(Stage(name, InvertedResidual(f"backbone/{name}", c_prev, s(c), stride, t)))
        c_prev = s(c)
    return Backbone("mobilenetv2", stem, stages, attach=(4, 12, 16))


def _xception(head_depth, wm):
    s = lambda c: scaled(c, wm)
    stem = Sequence([
        ConvUnit("backbone/conv1", 3, s(32), 3, stride=2),
        ConvUnit("backbone/conv2", s(32), s(64), 3),
    ])
    stages = []
    c_prev = s(64)
    plan = [("xception1", 128, 2), ("xception2", 256, 2), ("xception3", 728, 1)]
    plan += [(f"xception{i}", 728, 1) for i in range(4, 12)]
    plan += [("xception12", 1024, 2)]
    for name, c, stride in plan:
        stages.append(Stage(name, XceptionBlock(f"backbone/{name}", c_prev, s(c), stride)))
        c_prev = s(c)
    stages.append(Stage("conv4_1", DepthwiseSeparable("backbone/conv4_1", c_prev, s(1536), 2)))
    stages.append(Stage("conv4_2", DepthwiseSeparable("backbone/conv4_2", s(1536), s(2048), 1)))
    stages.append(Stage("xception13", XceptionBlock("backbone/xception13", s(2048), s(head_depth), 2)))
    return Backbone("xception", stem, stages, attach=(10, 11, 13))


_BUILDERS = {
    "vgg16": _vgg16,
    "resnet18": _resnet18,
    "resnext26": _resnext26,
    "resnext50": lambda head, wm: _resnext50(head, wm, se=False),
    "se_resnext50": lambda head, wm: _resnext50(head, wm, se=True),
    "inception_senet": _inception_senet,
    "mobilenetv1": _mobilenetv1,
    "mobilenetv2": _mobilenetv2,
    "xception": _xception,
}


def build_backbone(kind, head_depth=256, width_multiplier=1.0):
    """Construct one of the nine supported backbones.

    `head_depth` sets the channel depth of the added top stage (and, for most
    families, of the detection-side layers built on top of this backbone).
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown backbone {kind!r}; expected one of {BACKBONE_NAMES}")
    return _BUILDERS[kind](head_depth, width_multiplier)


def intermediate_block(kind, name, c_in, depth):
    """The per-level block between a backbone feature and its fusion layer.

    Each family reuses its own building block so the detection branch keeps
    the backbone's character.
    """
    if kind == "vgg16":
        return ConvUnit(name, c_in, depth, 3, bias=True, bn=False)
    if kind == "resnet18":
        return BasicResBlock(name, c_in, depth)
    if kind in ("resnext26", "resnext50"):
        return ResNeXtBlock(name, c_in, depth)
    if kind == "se_resnext50":
        return ResNeXtBlock(name, c_in, depth, se=True)
    if kind == "inception_senet":
        return InceptionSEBlock(name, c_in, depth)
    if kind == "mobilenetv1":
        return DepthwiseSeparable(name, c_in, depth)
    if kind == "mobilenetv2":
        return InvertedResidual(name, c_in, depth)
    if kind == "xception":
        return XceptionBlock(name, c_in, depth)
    raise ValueError(f"unknown backbone {kind!r}; expected one of {BACKBONE_NAMES}")
