"""Anchor grid, refinement/detection heads, top-down fusion, model assembly.

The detector predicts twice per anchor: a class-agnostic refinement branch
(binary objectness + coarse box deltas) reads raw backbone features, and a
multi-class branch (class scores + final deltas) reads features fused through
a top-down chain.  Anchor layout, channel layout, and flattening order are
fixed here so that both branches index the same prior at every position.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor_ops as T
from .blocks import (
    CARDINALITY,
    FAMILIES,
    PYRAMID_STRIDES,
    ConvUnit,
    DeconvUnit,
    L2NormUnit,
    ResNeXtBlock,
    build_backbone,
    intermediate_block,
    scaled,
)
from . import postprocess as pp
from .config import ModelSpec
from .weights import check_shapes, init_from_decls


# ---------------------------------------------------------------------------
# anchors


@dataclass(frozen=True)
class AnchorGrid:
    """All prior boxes for one input size, ordered level -> row -> col -> ratio.

    `boxes` is (total, 4) float32 in (cx, cy, w, h); centers sit at cell
    midpoints ((i + 0.5) * stride) and each level carries one scale with
    every ratio, so a cell holds len(ratios) anchors.
    """

    input_size: int
    strides: tuple
    scales: tuple
    ratios: tuple
    level_shapes: tuple  # (grid_h, grid_w) per level
    boxes: np.ndarray = field(repr=False, compare=False)

    def __len__(self):
        return self.boxes.shape[0]


def generate_anchors(input_size, strides=PYRAMID_STRIDES, scales=None, ratios=(0.5, 1.0, 2.0)):
    """Build the anchor grid.  Default scale per level is 4 * stride.

    Regenerating with identical arguments yields a bit-identical grid.
    """
    if input_size < 1:
        raise ValueError(f"input_size must be >= 1, got {input_size}")
    strides = tuple(int(s) for s in strides)
    ratios = tuple(float(r) for r in ratios)
    if not strides:
        raise ValueError("need at least one stride")
    if not ratios:
        raise ValueError("need at least one aspect ratio")
    if scales is None:
        scales = tuple(4 * s for s in strides)
    scales = tuple(float(s) for s in scales)
    if len(scales) != len(strides):
        raise ValueError(f"got {len(scales)} scales for {len(strides)} strides")
    for s in strides:
        if s <= 0:
            raise ValueError(f"strides must be positive, got {s}")
        if input_size % s != 0:
            raise ValueError(f"input size {input_size} is not divisible by stride {s}")
    if not all(0 < v < np.inf for v in scales + ratios):
        raise ValueError(f"scales and aspect ratios must be positive and finite, got {scales} and {ratios}")

    parts = []
    shapes = []
    root = np.sqrt(np.asarray(ratios, dtype=np.float64))
    for stride, scale in zip(strides, scales):
        g = input_size // stride
        shapes.append((g, g))
        centers = (np.arange(g, dtype=np.float64) + 0.5) * stride
        cy, cx = np.meshgrid(centers, centers, indexing="ij")
        cells = np.stack([cx.ravel(), cy.ravel()], axis=1)  # row-major: row, then col
        wh = np.stack([scale * root, scale / root], axis=1)  # one row per ratio
        level = np.concatenate(
            [np.repeat(cells, len(ratios), axis=0), np.tile(wh, (g * g, 1))], axis=1
        )
        parts.append(level)
    boxes = np.concatenate(parts, axis=0).astype(np.float32)
    return AnchorGrid(input_size, strides, scales, ratios, tuple(shapes), boxes)


# ---------------------------------------------------------------------------
# top-down fusion level


class TCBLevel:
    """One fusion level: project the lateral feature, add the upsampled
    feature from the level above (if any), then smooth.

    out = relu(conv3x3( relu(conv3x3(lateral) [+ deconv(top_down)]) )), the
    inner relu in place on the sum and the outer one the smoothing unit's.
    """

    def __init__(self, name, c_in, depth, has_top_down):
        self.name = name
        self.depth = depth
        self.lateral = ConvUnit(f"{name}/lateral", c_in, depth, 3, bn=False, act="none")
        self.up = DeconvUnit(f"{name}/up", depth, depth) if has_top_down else None
        self.smooth = ConvUnit(f"{name}/smooth", depth, depth, 3, bn=False)

    def decls(self):
        out = self.lateral.decls()
        if self.up is not None:
            out += self.up.decls()
        return out + self.smooth.decls()

    def fuse(self, lateral, top_down, w):
        t = self.lateral.forward(lateral, w)
        if top_down is not None:
            if self.up is None:
                raise ValueError(f"{self.name} was built without a top-down input")
            u = self.up.forward(top_down, w)
            if u.shape != t.shape:
                raise ValueError(
                    f"{self.name}: upsampled top-down shape {u.shape} does not match lateral {t.shape}"
                )
            t = T.elementwise_add(t, u)
        elif self.up is not None:
            raise ValueError(f"{self.name} expects a top-down input")
        np.maximum(t, 0, out=t)
        return self.smooth.forward(t, w)


# ---------------------------------------------------------------------------
# prediction flattening


def flatten_predictions(xs, per_cell, k):
    """(n, per_cell*k, h, w) conv outputs, one per level -> (n, anchors, k).

    Channel c = a*k + j holds component j of anchor a, so the flattened row
    order is level -> row -> col -> anchor, matching the anchor grid layout.
    Each level is copied once, straight into its rows of the result.
    """
    for x in xs:
        if x.shape[1] != per_cell * k:
            raise ValueError(f"expected {per_cell * k} channels (= {per_cell} anchors x {k}), "
                             f"got {x.shape[1]}")
    n = xs[0].shape[0]
    out = np.empty((n, sum(x.shape[2] * x.shape[3] for x in xs) * per_cell, k), np.result_type(*xs))
    row = 0
    for x in xs:
        h, w = x.shape[2:]
        rows = out[:, row : row + h * w * per_cell].reshape(n, h, w, per_cell, k)
        rows[...] = x.reshape(n, per_cell, k, h, w).transpose(0, 3, 4, 1, 2)
        row += h * w * per_cell
    return out


@dataclass
class RawPredictions:
    """Per-anchor outputs of both branches; row i of every array is anchor i."""

    arm_obj: np.ndarray      # (n, A, 2) logits: background, object
    arm_deltas: np.ndarray   # (n, A, 4)
    odm_cls: np.ndarray      # (n, A, num_classes + 1) logits; column 0 = background
    odm_deltas: np.ndarray   # (n, A, 4)


# ---------------------------------------------------------------------------
# the assembled model


class DetectionModel:
    """Structure of one detector: backbone, heads, fusion chain, anchors.

    The model owns no weights.  `weight_manifest()` declares every tensor in
    a fixed order; `bind()` attaches a WeightBundle so `infer()` can run.
    """

    def __init__(self, spec):
        if not isinstance(spec, ModelSpec):
            raise TypeError(f"expected a ModelSpec, got {type(spec).__name__}")
        self.spec = spec
        wm = spec.width_multiplier
        self.backbone = build_backbone(spec.backbone, spec.head_depth, wm)
        pyramid = self.backbone.pyramid()
        self.anchors = generate_anchors(spec.input_size, [stride for _, _, stride in pyramid])

        depth = scaled(spec.head_depth, wm)
        interm_depth = scaled(FAMILIES[spec.backbone].intermediate_depth or spec.head_depth, wm)
        self.tcb_depth_realized = depth
        self.interm_depth_realized = interm_depth

        A = len(self.anchors.ratios)
        self.l2norms = {lvl: L2NormUnit(f"head/{pyramid[lvl][0]}_l2norm", pyramid[lvl][1])
                        for lvl in self.backbone.l2norm_levels}

        def predictors(name, c_ins, k):
            """One 3x3 prediction conv per level: k values for each of the A anchors."""
            return [ConvUnit(f"head/{name}{i}", c, k * A, 3, bn=False, act="none")
                    for i, c in enumerate(c_ins)]

        c_ins = [c for _, c, _ in pyramid]
        self.arm_cls = predictors("arm_cls", c_ins, 2)
        self.arm_reg = predictors("arm_reg", c_ins, 4)
        self.intermediates = [intermediate_block(spec.backbone, f"head/interm{i}", c, interm_depth)
                              for i, c in enumerate(c_ins)]
        self.tcb = [TCBLevel(f"head/tcb{i}", interm_depth, depth, has_top_down=i < 3)
                    for i in range(len(pyramid))]
        self.odm_cls = predictors("odm_cls", [depth] * 4, spec.num_classes + 1)
        self.odm_reg = predictors("odm_reg", [depth] * 4, 4)

        self.weights = None
        self.notes = self._build_notes()

    # -- structure ---------------------------------------------------------

    @property
    def input_size(self):
        return self.spec.input_size

    @property
    def model_id(self):
        return self.spec.name

    def _build_notes(self):
        notes = [
            f"backbone {self.spec.backbone}: stage (name, channels, stride) table below",
        ]
        for name, c, stride in self.backbone.stage_table():
            notes.append(f"  {name}: {c} ch, stride {stride}")
        notes.append(
            f"pyramid: {[(name, stride) for name, _, stride in self.backbone.pyramid()]}"
        )
        notes.append(
            f"realized head widths: tcb {self.tcb_depth_realized}, intermediate {self.interm_depth_realized}"
        )
        blocks = [(stage.name, stage.layer) for stage in self.backbone.stages]
        blocks += [(blk.name, blk) for blk in self.intermediates]
        cards = [f"{name}={blk.cardinality}" for name, blk in blocks
                 if isinstance(blk, ResNeXtBlock) and blk.cardinality != CARDINALITY]
        if cards:
            notes.append("group-conv cardinality fallback: " + ", ".join(cards))
        return notes

    def weight_manifest(self):
        units = [self.backbone, *(self.l2norms[lvl] for lvl in sorted(self.l2norms)),
                 *self.arm_cls, *self.arm_reg, *self.intermediates, *self.tcb,
                 *self.odm_cls, *self.odm_reg]
        return [d for unit in units for d in unit.decls()]

    def param_count(self):
        """Trainable tensor elements (running statistics excluded)."""
        return sum(d.size for d in self.weight_manifest() if d.trainable)

    def bind(self, bundle):
        check_shapes(bundle, self.weight_manifest())
        self.weights = bundle
        return self

    # -- execution ----------------------------------------------------------

    def forward(self, x, timer=None):
        """Run both branches over a batch; returns per-anchor predictions."""
        if self.weights is None:
            raise ValueError("model has no weights bound; call bind() first")
        x = T.check_feature_map(x)
        n, c, h, w = x.shape
        if c != 3:
            raise ValueError(f"expected 3 input channels, got {c}")
        if (h, w) != (self.spec.input_size, self.spec.input_size):
            raise ValueError(
                f"input size mismatch: model expects {self.spec.input_size}, image is {h}x{w}"
            )
        if not np.isfinite(x).all():
            bad = int(np.count_nonzero(~np.isfinite(x)))
            raise ValueError(f"input image has {bad} non-finite values (NaN or inf) of {x.size}")
        wb = self.weights
        A = len(self.anchors.ratios)

        def predict(cls_units, reg_units, maps):
            """Both prediction convs of one branch, each flattened to (n, anchors, k).

            A level's two convs read the same map, so they run as one
            `conv2d` over their weights and biases concatenated along c_out
            (one im2col, one GEMM), and each head takes its channel slice.
            The outputs equal two separate calls' byte for byte.
            """
            ys = [T.conv2d(f, np.concatenate([wb[f"{c.name}/w"], wb[f"{r.name}/w"]], dtype=np.float64),
                           np.concatenate([wb[f"{c.name}/b"], wb[f"{r.name}/b"]]), c.params)
                  for c, r, f in zip(cls_units, reg_units, maps)]
            k = cls_units[0].c_out
            return (flatten_predictions([y[:, :k] for y in ys], A, k // A),
                    flatten_predictions([y[:, k:] for y in ys], A, reg_units[0].c_out // A))

        with pp.span(timer, "backbone"):
            feats = self.backbone.forward(x, wb)
            for lvl, unit in self.l2norms.items():
                feats[lvl] = unit.forward(feats[lvl], wb)

        with pp.span(timer, "arm_head"):
            arm_obj, arm_deltas = predict(self.arm_cls, self.arm_reg, feats)

        with pp.span(timer, "tcb"):
            laterals = [blk.forward(f, wb) for blk, f in zip(self.intermediates, feats)]
            fused, top_down = [None] * 4, None
            for i in (3, 2, 1, 0):  # each level fuses the one above it
                fused[i] = top_down = self.tcb[i].fuse(laterals[i], top_down, wb)

        with pp.span(timer, "odm_head"):
            odm_cls, odm_deltas = predict(self.odm_cls, self.odm_reg, fused)

        if arm_obj.shape[1] != len(self.anchors):
            raise RuntimeError(
                f"head produced {arm_obj.shape[1]} anchor rows, grid has {len(self.anchors)}"
            )
        return RawPredictions(arm_obj, arm_deltas, odm_cls, odm_deltas)

    def infer(self, image, nms_params=None, timer=None, counters=None):
        """Full single-image pass: forward, refine, filter, decode, suppress."""
        image = np.asarray(image)
        if image.ndim not in (3, 4):
            raise ValueError(f"infer expects a (3, h, w) image or a batch of one, got shape {image.shape}")
        if image.ndim == 3:
            image = image[None]
        if image.shape[0] != 1:
            raise ValueError(f"infer processes one image at a time, got batch {image.shape[0]}")
        if nms_params is None:
            nms_params = self.spec.nms
        raw = self.forward(image, timer=timer)
        return pp.pipeline(
            raw.arm_obj[0],
            raw.arm_deltas[0],
            raw.odm_cls[0],
            raw.odm_deltas[0],
            self.anchors.boxes,
            nms_params,
            iou_thresh=self.spec.nms_iou_thresh,
            neg_thresh=self.spec.arm_neg_thresh,
            cap_scope=self.spec.nms_cap_scope,
            image_size=self.spec.input_size,
            timer=timer,
            counters=counters,
        )


def assemble_model(spec):
    """Build the model structure for a configuration (no weight allocation)."""
    return DetectionModel(spec)


def build_model(spec):
    """Assemble, initialize (seeded by spec.seed), and bind weights; ready to infer."""
    model = assemble_model(spec)
    bundle = init_from_decls(model.weight_manifest(), spec.seed, sigma=spec.weight_init_sigma)
    return model.bind(bundle)
