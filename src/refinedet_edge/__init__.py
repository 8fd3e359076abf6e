"""Two-step single-shot detector assembly, inference, profiling, and scoring.

The package builds anchor-based detectors (coarse objectness head feeding a
refined multiclass head through a top-down fusion chain) over nine CPU-only
backbone families, times every inference stage, and scores detections with a
multi-threshold average-precision evaluator.  Everything runs on numpy.  The
root re-exports only ModelSpec, NmsParams, WeightBundle and build_model; every
other name is imported from its module (refinedet_edge.postprocess, ...).
"""

from .config import ModelSpec
from .head import build_model
from .postprocess import NmsParams
from .weights import WeightBundle

__version__ = "0.1.0"
