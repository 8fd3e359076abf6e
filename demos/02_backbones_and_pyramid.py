"""The nine interchangeable backbones and the four-level feature pyramid.

Every backbone, whatever its internal style, ends up exposing four feature
maps at strides 8/16/32/64.  The detection heads only ever see that
contract, which is what makes the families swappable.

Run from the repository root:  python3 demos/02_backbones_and_pyramid.py
"""

import numpy as np

from refinedet_edge import config as C
from refinedet_edge.blocks import BACKBONE_NAMES, build_backbone
from refinedet_edge.head import assemble_model

# ---------------------------------------------------------------------------
# 1. one stage table in full

backbone = build_backbone("mobilenetv2", head_depth=256, width_multiplier=1.0)
print("mobilenetv2 stage table (name, channels, cumulative stride):")
pyramid_names = [name for name, _, _ in backbone.pyramid()]
for name, channels, stride in backbone.stage_table():
    marker = " <- pyramid" if name in pyramid_names else ""
    print(f"  {name:<14} {channels:4d} ch   /{stride:<3d}{marker}")
print()

# ---------------------------------------------------------------------------
# 2. the shared pyramid contract across all nine families

print(f"{'backbone':<16} {'pyramid channels':<24} strides")
for kind in BACKBONE_NAMES:
    b = build_backbone(kind, head_depth=256, width_multiplier=1.0)
    chans = ",".join(f"{c}" for _, c, _ in b.pyramid())
    strides = "/".join(str(s) for _, _, s in b.pyramid())
    print(f"{kind:<16} {chans:<24} {strides}")
print()

# ---------------------------------------------------------------------------
# 3. thin models: the same structures at 1/16 width actually run
#
# A width multiplier of 0.0625 shrinks every stage, which keeps a full
# forward pass affordable on a desk machine while exercising every code path.

rng = np.random.default_rng(2)
x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)

from refinedet_edge.weights import init_from_decls  # noqa: E402

print("thin (0.0625x) forward shapes on a 64x64 input:")
for kind in BACKBONE_NAMES:
    b = build_backbone(kind, head_depth=128, width_multiplier=0.0625)
    weights = init_from_decls(b.decls(), seed=11)
    feats = b.forward(x, weights)
    shapes = " ".join(f"{f.shape[1]}x{f.shape[2]}x{f.shape[3]}" for f in feats)
    print(f"  {kind:<16} {shapes}")
print()

# ---------------------------------------------------------------------------
# 4. the slim-head variants are strictly smaller, family by family

print(f"{'backbone':<16} {'head 256':>12} {'head 128':>12}  saving")
for kind in BACKBONE_NAMES:
    totals = {}
    for depth in (128, 256):
        spec = C.ModelSpec(name=f"probe-{depth}", backbone=kind, head_depth=depth)
        totals[depth] = assemble_model(spec).param_count()
    saved = 1.0 - totals[128] / totals[256]
    print(f"{kind:<16} {totals[256]:12,d} {totals[128]:12,d}  {saved:6.1%}")
