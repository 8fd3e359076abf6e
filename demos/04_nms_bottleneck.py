"""How the suppression budget decides which model is "faster".

Two desk-size models with opposite cost profiles:

  A: 320-input vgg16, full 256-deep heads   heavy compute, 6 375 anchor rows
  B: 512-input mobilenetv1, slim 128 heads  light compute, 16 320 anchor rows

Under a small suppression budget (max_input 400, conf 0.1) no candidate
reaches suppression, and no anchor is scored either: each anchor's largest
and smallest class logit bound its largest class probability, and under the
default init that bound stays below 0.1, so the class softmax and the box
decode are skipped and nms costs almost nothing.  Raising the budget to
(1000, 500, 0.01) scores every anchor and floods the suppressor with
candidates, and the nms share of each model's runtime strictly rises, as
the acceptance suite checks.  Whether nms becomes the largest stage depends
on the model.  In one run on a 2-CPU Xeon VM (Python 3.11, numpy 2.4) the
nms share grew from 0.2% to 34.9% for A, whose backbone stayed the largest
stage (38% at the large budget), and from 0.1% to 41.4% for B, where nms
became the largest.  A stayed the faster model under both budgets (17.34 vs
14.80 fps, then 11.65 vs 8.09 fps).  Suppression stops once max_output
boxes are kept in the merged ranking, and scoring reads the class
probability matrix without listing candidates, so the large budget costs A
about a third of its runtime.

The ranking does not flip under the default seeded init: every class
probability sits near 1/81, so the small budget scores no anchor at all and
the large one passes every anchor up to the per-class cap, which binds both
models alike.  A flip waits on an init that makes the budget a curve
rather than a step (ROADMAP item 1).

Run from the repository root:  python3 demos/04_nms_bottleneck.py
"""

from refinedet_edge import config as C
from refinedet_edge.head import build_model
from refinedet_edge.postprocess import NmsParams
from refinedet_edge.profiler import compare_sweep, normalize_fps, render_sweep

TRIPLES = [NmsParams(400, 200, 0.1), NmsParams(1000, 500, 0.01)]

specs = {
    "A": C.ModelSpec(name="RefineDet320-vgg16-demo", backbone="vgg16",
                     input_size=320, head_depth=256,
                     width_multiplier=C.FIXTURE_WIDTH_MULTIPLIER, seed=1),
    "B": C.ModelSpec(name="rRefineDet512-mobilenetv1-demo", backbone="mobilenetv1",
                     input_size=512, head_depth=128,
                     width_multiplier=C.FIXTURE_WIDTH_MULTIPLIER, seed=2),
}

rows = {}
for tag, spec in specs.items():
    model = build_model(spec)
    print(f"benchmarking {tag}: {spec.name} "
          f"({model.param_count():,} params, {len(model.anchors)} anchors)")
    rows[tag] = compare_sweep(model, TRIPLES, runs=5, warmup=1)
    print(render_sweep(rows[tag], model=spec.name))

print("=" * 64)
for i, triple in enumerate(TRIPLES):
    fps = {tag: rows[tag][i].fps for tag in rows}
    ranked = sorted(fps, key=fps.get, reverse=True)
    rel = normalize_fps([fps[t] for t in ranked])
    print(f"triple {triple.short()}:")
    for tag, r in zip(ranked, rel):
        print(f"  {tag}  {fps[tag]:6.2f} fps  (x{r:.2f})  "
              f"bottleneck: {rows[tag][i].bottleneck_stage} "
              f"{rows[tag][i].bottleneck_share:.0%} of runtime")

order_small = sorted(rows, key=lambda t: rows[t][0].fps, reverse=True)
order_large = sorted(rows, key=lambda t: rows[t][1].fps, reverse=True)
print()
if order_small != order_large:
    print(f"ranking flipped: {'>'.join(order_small)} under {TRIPLES[0].short()} "
          f"but {'>'.join(order_large)} under {TRIPLES[1].short()}.")
else:
    print(f"ranking held ({'>'.join(order_small)}) under both budgets; the gap moved")
    print("with the suppression budget.")
for tag in rows:
    s0 = rows[tag][0].report.stage("nms").mean_ms / rows[tag][0].report.stage("total").mean_ms
    s1 = rows[tag][1].report.stage("nms").mean_ms / rows[tag][1].report.stage("total").mean_ms
    print(f"nms share of {tag}: {s0:.1%} -> {s1:.1%} as the budget grows")
