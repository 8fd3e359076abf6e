"""Tour of the convolution building blocks and their parameter arithmetic.

Run from the repository root:  python3 demos/01_building_blocks.py
"""

import numpy as np

from refinedet_edge.blocks import (
    ConvUnit,
    DepthwiseSeparable,
    InvertedResidual,
    ResNeXtBlock,
    effective_cardinality,
    scaled,
)
from refinedet_edge.weights import init_from_decls

rng = np.random.default_rng(1)

# ---------------------------------------------------------------------------
# 1. why depthwise-separable convolutions are the cheap option
#
# A standard 3x3 conv from 16 to 32 channels holds 32*16*9 weights.  Splitting
# it into a depthwise 3x3 (one filter per channel) plus a pointwise 1x1 keeps
# the same receptive field at a fraction of the size.

def kernel_weights(c_in, c_out, kernel, groups=1):
    """Declared size of a ConvUnit's weight tensor: c_out * (c_in/groups) * k * k."""
    return ConvUnit("probe", c_in, c_out, kernel, groups=groups).decls()[0].size


standard = kernel_weights(16, 32, 3)
depthwise = kernel_weights(16, 16, 3, groups=16)
pointwise = kernel_weights(16, 32, 1)

print("parameter arithmetic, 16 -> 32 channels, 3x3 receptive field")
print(f"  standard conv:            {standard:5d} weights")
print(f"  depthwise + pointwise:    {depthwise:5d} + {pointwise} = {depthwise + pointwise}")
print(f"  ratio:                    {(depthwise + pointwise) / standard:.3f}x")
print()

# Grouped convolutions sit between the two extremes.
print("grouped 3x3, 32 -> 32 channels:")
for g in (1, 2, 4, 8, 32):
    n = kernel_weights(32, 32, 3, groups=g)
    print(f"  groups={g:<3d} -> {n:5d} weights")
print()

# ---------------------------------------------------------------------------
# 2. width multipliers and cardinality on toy channel counts
#
# Thin test models scale every channel count; group counts then have to fall
# back to whatever still divides the realized width.

print("scaled channel widths at multiplier 0.0625:")
for c in (64, 256, 512, 1024):
    print(f"  {c:4d} -> {scaled(c, 0.0625):3d}")
print()
print("cardinality fallback for a requested 32 groups:")
for width in (256, 64, 24, 7):
    print(f"  width {width:3d} -> {effective_cardinality(width, 32):2d} groups")
print()

# ---------------------------------------------------------------------------
# 3. running tensors through assembled blocks
#
# Every block declares its tensors; a seeded Gaussian fill makes it runnable.

x = rng.standard_normal((1, 16, 14, 14)).astype(np.float32)

for block in (
    ConvUnit("plain", 16, 32, 3, stride=2),
    DepthwiseSeparable("ds", 16, 32, stride=2),
    InvertedResidual("ir", 16, 16, stride=1, expansion=6),
    ResNeXtBlock("rx", 16, 32, stride=2, se=True),
):
    weights = init_from_decls(block.decls(), seed=7)
    y = block.forward(x, weights)
    n_params = sum(d.size for d in block.decls() if d.trainable)
    print(f"{type(block).__name__:<20} {x.shape} -> {y.shape}   {n_params:6d} params")

# The inverted residual at stride 1 with equal widths carries a skip
# connection, so tiny weights leave the input almost unchanged.
ir = InvertedResidual("skip", 16, 16, stride=1, expansion=6)
near_zero = init_from_decls(ir.decls(), seed=7, sigma=1e-6)
drift = float(np.abs(ir.forward(x, near_zero) - x).max())
print(f"\ninverted residual with near-zero weights: max |out - in| = {drift:.2e}")
