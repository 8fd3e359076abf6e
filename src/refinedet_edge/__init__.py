"""Two-step single-shot detector assembly, inference, profiling, and scoring.

The package builds anchor-based detectors (coarse objectness head feeding a
refined multiclass head through a top-down fusion chain) over nine CPU-only
backbone families, times every inference stage, and scores detections with a
multi-threshold average-precision evaluator.  Everything runs on numpy.
"""

from .blocks import BACKBONE_NAMES, build_backbone, effective_cardinality, scaled
from .config import (
    ConfigError,
    ModelSpec,
    fixture_specs,
    parse,
    parse_file,
    serialize,
    table_experiments,
    write_config,
    write_fixtures,
)
from .evaluate import (
    COCO_THRESHOLDS,
    CocoMapResult,
    GroundTruth,
    average_precision,
    class_average_precisions,
    coco_map,
    read_ground_truth,
    write_ground_truth,
)
from .head import (
    AnchorGrid,
    DetectionModel,
    assemble_model,
    build_model,
    generate_anchors,
)
from .postprocess import (
    DetectionSet,
    NmsCounters,
    NmsParams,
    apply_deltas,
    arm_filter,
    decode,
    iou_matrix,
    nms_greedy,
    pipeline,
    read_detections,
    write_detections,
)
from .profiler import (
    ProfileReport,
    StageStat,
    StageTimer,
    benchmark,
    bottleneck,
    compare_sweep,
    normalize_fps,
    render_report,
    render_sweep,
)
from .weights import (
    TensorDecl,
    WeightBundle,
    fnv1a64,
    gaussian_values,
    init_from_decls,
    load_wts,
    save_wts,
    sha256_64,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorGrid",
    "BACKBONE_NAMES",
    "COCO_THRESHOLDS",
    "CocoMapResult",
    "ConfigError",
    "DetectionModel",
    "DetectionSet",
    "GroundTruth",
    "ModelSpec",
    "NmsCounters",
    "NmsParams",
    "ProfileReport",
    "StageStat",
    "StageTimer",
    "TensorDecl",
    "WeightBundle",
    "apply_deltas",
    "arm_filter",
    "assemble_model",
    "average_precision",
    "benchmark",
    "bottleneck",
    "build_backbone",
    "build_model",
    "class_average_precisions",
    "coco_map",
    "compare_sweep",
    "decode",
    "effective_cardinality",
    "fixture_specs",
    "fnv1a64",
    "gaussian_values",
    "generate_anchors",
    "init_from_decls",
    "iou_matrix",
    "nms_greedy",
    "normalize_fps",
    "parse",
    "parse_file",
    "pipeline",
    "read_detections",
    "read_ground_truth",
    "render_report",
    "render_sweep",
    "scaled",
    "serialize",
    "sha256_64",
    "table_experiments",
    "write_config",
    "write_detections",
    "write_fixtures",
    "write_ground_truth",
]
