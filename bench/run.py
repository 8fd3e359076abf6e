#!/usr/bin/env python3
"""Single-image detection benchmark: one workload per invocation.

    python3 bench/run.py --workload edge-thin-vgg16 --seed 1 --seconds 20 --trace 0

Run from the repository root.  It generates the workload's inputs from the
seed under .bench_work/, starts one worker process (bench/worker.py) that
sets the program up cold and sends requests one at a time for --seconds,
checks every output against the method's invariants and the references in
bench/refs.py, and prints one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The
end-to-end times are the worker's CPU time scaled to a reference speed of the
core (see worker.py); comment lines before the JSON give the same figures
unscaled, in CPU time and on the wall clock.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, in this process and the worker.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("REFINEDET_EDGE_THREADS", None)  # the evaluator's default worker count applies

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEADLINE_S = 170.0

# Per-layer metrics of the evaluate layer run only on eval workloads, the
# tracing overhead on both kinds, and every other one on inference workloads.
# Names and units are those BENCHMARK.json declares.
BOTH_KINDS = ("trace.overhead_pct",)


def runs_on(metric, kind):
    if metric in BOTH_KINDS:
        return True
    return (kind == "eval") == metric.startswith("evaluate.")


def declared():
    """{section: {metric: unit}} for the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    return {sec: {m["name"]: m["unit"] for m in doc[sec]} for sec in ("end_to_end", "per_layer")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare(workload, seed, trace, work):
    """Write the workload's input files; return (inputs for the worker, what
    the checks need, per-layer figures measured here)."""
    import numpy as np
    from refinedet_edge import config, head, weights
    import workloads as wl

    inputs = {"workload": workload.name, "kind": workload.kind, "seed": seed, "trace": trace,
              "warmup": workload.warmup,
              "trace_path": os.path.join(WORK, f"trace-{workload.name}-s{seed}-p{os.getpid()}.json")}
    figures = {}
    if workload.kind == "infer":
        text = wl.config_text(workload, wl.WEIGHT_SEED)
        inputs["config"] = os.path.join(work, "model.cfg")
        with open(inputs["config"], "w", encoding="utf-8") as f:
            f.write(text)
        spec = config.parse(text)
        model = head.assemble_model(spec)
        decls = model.weight_manifest()
        bundle = weights.init_from_decls(decls, wl.WEIGHT_SEED, sigma=spec.weight_init_sigma)
        inputs["weights"] = os.path.join(work, "model.wts")
        t0 = time.perf_counter()
        weights.save_wts(inputs["weights"], bundle, spec.name)
        figures["weights.save_s"] = time.perf_counter() - t0
        figures["weights.file_mib"] = os.path.getsize(inputs["weights"]) / 2**20
        need = {"spec": spec, "decls": decls, "bundle": bundle}
    else:
        gts, dets = wl.make_eval_set(seed)
        inputs["detections"] = os.path.join(work, "detections.csv")
        inputs["ground_truth"] = os.path.join(work, "ground_truth.csv")
        wl.write_eval_csvs(gts, dets, inputs["detections"], inputs["ground_truth"])
        dets32 = {k: (b, np.asarray(s, np.float32), c) for k, (b, s, c) in dets.items()}
        need = {"gts": gts, "dets": dets32}
    return inputs, need, figures


def run_worker(inputs, work, started):
    """Start the worker and wait for it; returns (result dict, arrays)."""
    import numpy as np

    inputs_path = os.path.join(work, "inputs.json")
    result_path = os.path.join(work, "result.npz")
    with open(inputs_path, "w", encoding="utf-8") as f:
        json.dump(inputs, f)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env.pop("PYTHONSTARTUP", None)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), inputs_path,
                             result_path], env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        raise RuntimeError("the worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"the worker exited with code {code}")
    with np.load(result_path) as z:
        arrays = {k: z[k] for k in z.files if k != "meta"}
        result = json.loads(str(z["meta"]))
    return result, arrays


def check_infer(result, arrays, need, inputs):
    from refinedet_edge import head, weights
    import checks
    import refs
    import workloads as wl

    spec, bundle = need["spec"], need["bundle"]
    nms = spec.nms
    priors = refs.anchors(spec.input_size)
    problems = []
    for i in result["timed"]:
        det = {k: arrays[f"det{i}_{k}"] for k in ("boxes", "scores", "class_ids", "indices")}
        bad = checks.invariants(det["boxes"], det["scores"], det["class_ids"], det["indices"],
                                nms.max_output, nms.conf_thresh, spec.nms_iou_thresh,
                                spec.input_size, len(priors))
        problems += [f"request {i}: {b}" for b in bad]
    if not result["rerun_identical"]:
        problems.append("the first request, run again at the end, gave different output")

    tensors = dict(bundle.items())
    notes = []
    for n, i in enumerate(result["checked"]):
        raw = {k: arrays[f"raw{i}_{k}"] for k in ("arm_obj", "arm_deltas", "odm_cls", "odm_deltas")}
        image = wl.make_image(inputs["seed"], i)
        problems += checks.forward_matches(
            raw, refs.forward(spec.backbone, tensors, image, spec.num_classes), f"request {i}")
        ref = refs.postprocess(raw["arm_obj"], raw["arm_deltas"], raw["odm_cls"], raw["odm_deltas"],
                               priors, nms.max_input, nms.max_output, nms.conf_thresh,
                               spec.nms_iou_thresh, spec.arm_neg_thresh, spec.nms_cap_scope,
                               spec.input_size)
        det = {k: arrays[f"det{i}_{k}"] for k in ("boxes", "scores", "class_ids", "indices")}
        problems += [f"request {i}: {b}" for b in checks.same_detections(det, ref)]
        if len(ref["anchor"]) == 0 and not ref["max_prob"] < nms.conf_thresh:
            problems.append(f"request {i}: no detections although a class probability "
                            f"{ref['max_prob']} reaches {nms.conf_thresh}")
        notes.append(f"request {i}: {len(ref['anchor'])} detections equal the reference; "
                     f"highest class probability {ref['max_prob']:.5f}")
        if n == 0:
            # The same graph under signal-preserving weights, where every layer shows.
            check_tensors = wl.check_bundle(need["decls"], inputs["seed"])
            probe = head.assemble_model(spec).bind(weights.WeightBundle(check_tensors))
            raw2 = probe.forward(image)
            raw2 = {k: getattr(raw2, k)[0] for k in ("arm_obj", "arm_deltas", "odm_cls", "odm_deltas")}
            problems += checks.forward_matches(
                raw2, refs.forward(spec.backbone, dict(check_tensors), image, spec.num_classes),
                f"request {i} (check weights)")

    if result["bundle_hash"] != wl.bundle_hash(bundle.items()):
        problems.append("load_wts returned tensors that differ from the bundle that was saved")
    flipped = inputs["weights"] + ".flipped"
    with open(inputs["weights"], "rb") as f:
        raw_file = bytearray(f.read())
    raw_file[-1 - (inputs["seed"] % 4096)] ^= 0x10
    with open(flipped, "wb") as f:
        f.write(raw_file)
    try:
        weights.load_wts(flipped)
        problems.append("a weight file with one flipped data byte loaded without error")
    except ValueError:
        pass
    return problems, notes


def check_eval(result, need):
    import checks

    problems = []
    maps = set(result["map"])
    if len(maps) != 1:
        problems.append(f"coco_map gave {len(maps)} different values for the same input")
    problems += checks.coco_map_matches(result["map"][0], need["gts"], need["dets"])
    if not abs(result["self_map"] - 1.0) <= 1e-12:
        problems.append(f"ground truth scored as its own detections gives mAP {result['self_map']!r}")
    if not result["rerun_identical"]:
        problems.append("the first request, run again at the end, gave a different value")
    return problems, [f"coco_map {result['map'][0]!r} equals the by-definition value"]


def main(argv=None):
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so the worker is stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "refinedet_edge", "__init__.py")):
        print(f"error: no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import statistics

    units = declared()

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        inputs, need, figures = prepare(workload, args.seed, args.trace, work)
        inputs["seconds"] = args.seconds
        result, arrays = run_worker(inputs, work, started)
        if workload.kind == "infer":
            problems, notes = check_infer(result, arrays, need, inputs)
        else:
            problems, notes = check_eval(result, need)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in notes:
        print(f"# check: {line}")
    for line in problems:
        print(f"# FAILED CHECK: {line}")
    print(f"# environment: {json.dumps(result['environment'], sort_keys=True)}")
    if args.trace:
        values = dict(result["per_layer"])
        if workload.kind == "infer":
            values.update(figures)
        metrics = {}
        for name, unit in units["per_layer"].items():
            if not runs_on(name, workload.kind):
                metrics[name] = {"value": 0.0, "unit": unit}  # the layer does not run here
            elif name in values:  # else absent: its wrapped function is gone from the package
                metrics[name] = {"value": values[name], "unit": unit}
        if result["missing"]:
            print(f"# absent (function no longer in the package): {', '.join(result['missing'])}")
    else:
        values = {
            "setup_s": result["setup_s"],
            "latency_ms_p50": statistics.median(result["latencies_ms"]),
            "requests_per_s": result["requests_per_s"],
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units["end_to_end"].items()}
        print(f"# cpu time: setup_s {result['setup_cpu_s']:.4f}, latency_ms_p50 "
              f"{statistics.median(result['cpu_latencies_ms']):.2f}, requests_per_s "
              f"{result['cpu_requests_per_s']:.4f}, reference_ms "
              f"{statistics.median(result['reference_ms']):.3f} (not scaled to the reference speed)")
        print(f"# wall clock: setup_s {result['setup_wall_s']:.4f}, latency_ms_p50 "
              f"{statistics.median(result['wall_latencies_ms']):.2f}, requests_per_s "
              f"{result['wall_requests_per_s']:.4f} (not scaled to the reference speed)")
    print(f"# {workload.name}: {len(result['latencies_ms'])} timed requests, "
          f"{result['failed']} failed, {len(problems)} failed checks")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
