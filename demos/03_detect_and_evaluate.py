"""End to end: assemble a detector, run it, store results, score them.

The model here carries seeded random weights, so its detections are noise;
the point is the plumbing.  Ground truth is synthesized by perturbing the
model's own strongest outputs, which gives the scorer something nontrivial
to match without pretending the net was trained.

Run from the repository root:  python3 demos/03_detect_and_evaluate.py
"""

import tempfile
from pathlib import Path

import numpy as np

from refinedet_edge import config as C
from refinedet_edge import evaluate as ev
from refinedet_edge import postprocess as pp
from refinedet_edge.head import build_model
from refinedet_edge.profiler import StageTimer

rng = np.random.default_rng(5)

# ---------------------------------------------------------------------------
# 1. assemble and run

spec = C.ModelSpec(name="demo-320", backbone="mobilenetv1", input_size=320,
                   head_depth=128, width_multiplier=0.0625, num_classes=4, seed=5)
model = build_model(spec)
print(f"model {spec.name}: {model.param_count():,} parameters, "
      f"{len(model.anchors)} anchors over strides {model.anchors.strides}")

image = rng.random((1, 3, 320, 320), dtype=np.float32)
timer = StageTimer()
counters = pp.NmsCounters()
dets = model.infer(image, timer=timer, counters=counters)

spent = {k: v / 1e6 for k, v in timer.take().items()}
print(f"stage spans (ms): " + ", ".join(f"{k}={v:.1f}" for k, v in spent.items()))
print(f"suppression workload: {counters.scored_rows} of {len(model.anchors)} anchors scored, "
      f"{counters.iou_evals} IoU evaluations, "
      f"{sum(counters.candidates_per_class.values())} candidates over "
      f"{len(counters.candidates_per_class)} classes")
print(f"detections kept: {len(dets)}")
for i in range(min(5, len(dets))):
    x0, y0, x1, y1 = dets.boxes[i]
    print(f"  class {dets.class_ids[i]}  score {dets.scores[i]:.3f}  "
          f"box ({x0:6.1f},{y0:6.1f})-({x1:6.1f},{y1:6.1f})  anchor row {dets.indices[i]}")
print()

# ---------------------------------------------------------------------------
# 2. detections and ground truth live in plain csv files

with tempfile.TemporaryDirectory() as tmp:
    det_path = Path(tmp) / "detections.csv"
    gt_path = Path(tmp) / "ground_truth.csv"

    pp.write_detections(det_path, {"frame-000": dets})

    # "truth": the ten strongest detections, nudged a little
    top = dets.take(np.argsort(-dets.scores)[:10])
    gt = ev.GroundTruth(
        boxes=top.boxes + rng.uniform(-2, 2, top.boxes.shape).astype(np.float32),
        class_ids=top.class_ids.astype(np.int64),
        ignore=np.zeros(len(top), bool),
    )
    ev.write_ground_truth(gt_path, {"frame-000": gt})
    print(f"wrote {det_path.name} ({det_path.stat().st_size} bytes) "
          f"and {gt_path.name} ({gt_path.stat().st_size} bytes)")

    # round-trip through disk, then score
    dets_back = pp.read_detections(det_path)
    gts_back = ev.read_ground_truth(gt_path)
    result = ev.coco_map(dets_back, gts_back)

print("\nAP by overlap threshold:")
for t, ap in sorted(result.per_threshold.items()):
    bar = "#" * int(round(ap * 40))
    print(f"  @{t:.2f}  {ap:.4f}  {bar}")
print(f"mAP over the ten thresholds: {result.mean:.4f}")
print("\n(real signal would need training; the nudged self-truth only shows")
print(" that matching, ranking, and averaging behave.)")
