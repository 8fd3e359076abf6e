"""The workload process: one closed-loop client sending one request at a time.

Started by run.py in a fresh interpreter, so that its one set-up is cold:
`setup_s` times the set-up calls (config.parse_file, head.assemble_model,
weights.load_wts, bind; or the two CSV readers for eval), from the first of
them, after the imports, until the program is ready.  The worker receives
only the files run.py generated and the seed from which it regenerates the
same request images.

Every time is taken on the process's CPU time and on the wall clock.  The
worker is single-threaded (BLAS is pinned to one thread), so on a core of its
own the two agree; on a shared host the wall clock also counts the time the
host gives the core to someone else.  The core's own speed changes too, from
one second to the next, with what other tenants run beside it.  So a fixed
reference kernel runs just before and after the set-up and every request:
the end-to-end times are CPU times scaled to the speed at which that kernel
takes REFERENCE_MS.  run.py prints the unscaled CPU and wall-clock figures
beside them.

Usage (from run.py): worker.py <inputs.json> <result.npz>
"""

import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from refinedet_edge import config, evaluate, head, postprocess, tensor_ops, weights

import spans as tr
import workloads as wl

TRACED_MIN_REQUESTS = 3  # per half of a traced run, however long a request takes

# CPU ms of one ReferenceKernel call at the reference speed: about its median
# on a 2-CPU Xeon VM at 2.0 GHz, numpy 2.4 with OpenBLAS 0.3.31.
REFERENCE_MS = 24.0


class ReferenceKernel:
    """Fixed work of the three kinds a request is made of: interpreted
    Python, small numpy calls and one-thread float32 GEMM.  Its CPU time
    measures how fast the core runs right now; it touches none of the
    program's code, so no change to the program moves it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((128, 1152), dtype=np.float32)
        self.b = rng.random((1152, 800), dtype=np.float32)
        self.boxes = rng.random((300, 4)) * 100.0
        self.boxes[:, 2:] += self.boxes[:, :2]

    def __call__(self):
        """CPU ms of one pass."""
        c0 = time.process_time()
        s = 0
        for i in range(70000):
            s += i * i % 7
        for _ in range(2):
            self.a @ self.b
        bx = self.boxes
        for r in bx[:250]:
            w = np.clip(np.minimum(r[2], bx[:, 2]) - np.maximum(r[0], bx[:, 0]), 0.0, None)
            h = np.clip(np.minimum(r[3], bx[:, 3]) - np.maximum(r[1], bx[:, 1]), 0.0, None)
            (w * h).sum()
        return (time.process_time() - c0) * 1e3


def setup(inputs):
    if inputs["kind"] == "infer":
        spec = config.parse_file(inputs["config"])
        model = head.assemble_model(spec)
        bundle, _ = weights.load_wts(inputs["weights"])
        model.bind(bundle)
        return {"model": model, "bundle": bundle}
    dets = postprocess.read_detections(inputs["detections"])
    gts = evaluate.read_ground_truth(inputs["ground_truth"])
    return {"dets": dets, "gts": gts}


class Client:
    """Sends requests in a closed loop and keeps what the checks need."""

    def __init__(self, inputs, state, kernel):
        self.kind = inputs["kind"]
        self.seed = inputs["seed"]
        self.state = state
        self.outputs = {}      # request index -> output
        self.latencies = {}    # request index -> wall ms
        self.cpu_ms = {}       # request index -> CPU ms
        self.kernel = kernel
        self.reference = {}    # request index -> CPU ms of the reference kernel run just before it
        self.counts = {}       # request index -> NmsCounters figures (traced requests)
        self.next = 0

    def request(self, tracer=None):
        """Send the next request; keep its output and its wall and CPU time in ms."""
        i = self.next
        self.next += 1
        self.reference[i] = self.kernel()
        counters = None
        if self.kind == "infer":
            image = wl.make_image(self.seed, i)
            model = self.state["model"]
            if tracer is not None:
                counters = postprocess.NmsCounters()
            call = lambda: model.infer(image, timer=tracer, counters=counters)  # noqa: E731
        else:
            call = lambda: evaluate.coco_map(self.state["dets"], self.state["gts"])  # noqa: E731
        if tracer is not None:
            tracer.request = i
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            out = call()
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
        except Exception as e:  # a failed request is counted, and the loop goes on
            print(f"request {i} failed: {type(e).__name__}: {e}", file=sys.stderr)
            return
        finally:
            if tracer is not None:
                tracer.request = None
        self.latencies[i] = dt * 1e3
        self.cpu_ms[i] = dc * 1e3
        self.outputs[i] = out
        if counters is not None:
            self.counts[i] = {"anchors": len(model.anchors),
                              "suppress_in": sum(counters.candidates_per_class.values()),
                              "iou_evals": counters.iou_evals}

    def scaled_ms(self, i):
        """CPU ms of request i at the reference speed: the kernel runs
        before and after it give the core's speed during it."""
        during = (self.reference[i] + self.reference[i + 1]) / 2
        return self.cpu_ms[i] * REFERENCE_MS / during

    def p50(self, indices):
        return statistics.median(self.scaled_ms(i) for i in indices if i in self.cpu_ms)

    def phase(self, seconds, tracer=None, at_least=1):
        """Requests until `seconds` of wall time have passed and at least
        `at_least` were sent; returns (indices, wall s)."""
        first = self.next
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or self.next - first < at_least:
            self.request(tracer)
        wall = time.perf_counter() - t0
        self.reference[self.next] = self.kernel()  # closes the last request's bracket
        return list(range(first, self.next)), wall


def environment():
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        pass
    pins = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": pins,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def main():
    inputs_path, result_path = sys.argv[1], sys.argv[2]
    with open(inputs_path, encoding="utf-8") as f:
        inputs = json.load(f)
    traced = bool(inputs["trace"])
    seconds = float(inputs["seconds"])
    modules = {"config": config, "head": head, "weights": weights, "tensor_ops": tensor_ops,
               "postprocess": postprocess, "evaluate": evaluate}
    tracer = tr.Tracer(modules) if traced else None

    kernel = ReferenceKernel()
    kernel()  # its first pass is cold, and is not kept
    before = kernel()
    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    state = setup(inputs)
    setup_s, setup_wall_s = time.process_time() - c0, time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    speed = REFERENCE_MS / ((before + kernel()) / 2)

    client = Client(inputs, state, kernel)
    for _ in range(inputs["warmup"]):
        client.request()

    result = {"setup_s": setup_s * speed, "setup_cpu_s": setup_s, "setup_wall_s": setup_wall_s,
              "environment": environment()}
    if not traced:
        timed, wall = client.phase(seconds)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Half the time untraced, half traced: the per-layer figures come from
        # the traced half, and the two medians give the tracing overhead.
        untraced, _ = client.phase(seconds / 2, at_least=TRACED_MIN_REQUESTS)
        tracer.install()
        traced_, _ = client.phase(seconds / 2, tracer, at_least=TRACED_MIN_REQUESTS)
        tracer.uninstall()
        ok = [i for i in traced_ if i in client.latencies]
        result["per_layer"] = tr.per_layer_metrics(
            tracer, ok, [client.latencies[i] for i in ok], [client.counts.get(i) for i in ok],
            client.p50(untraced), client.p50(traced_), client.kind)
        result["missing"] = tracer.missing
        tracer.dump(inputs["trace_path"], {"workload": inputs["workload"], "seed": inputs["seed"],
                                           "environment": result["environment"]})
        timed = untraced + traced_
    done = [i for i in timed if i in client.latencies]
    result.update(attempted=len(timed), failed=len(timed) - len(done), timed=done,
                  latencies_ms=[client.scaled_ms(i) for i in done],
                  cpu_latencies_ms=[client.cpu_ms[i] for i in done],
                  wall_latencies_ms=[client.latencies[i] for i in done],
                  reference_ms=[client.reference[i] for i in timed])
    if not traced:
        # Mean-based, over the requests' own time: the image synthesis and
        # the reference kernel between requests are the benchmark's work.
        result["requests_per_s"] = len(done) / (sum(result["latencies_ms"]) / 1e3)
        result["cpu_requests_per_s"] = len(done) / (sum(result["cpu_latencies_ms"]) / 1e3)
        result["wall_requests_per_s"] = len(done) / wall

    # After the timed phase: the first request again, and the raw predictions
    # of the first timed request for the reference checks.
    arrays = {}
    first = client.outputs.get(0)
    if client.kind == "infer":
        checked = done[:1]
        result["checked"] = checked
        model = state["model"]
        result["bundle_hash"] = wl.bundle_hash(state["bundle"].items())
        again = model.infer(wl.make_image(inputs["seed"], 0))
        result["rerun_identical"] = first is not None and all(
            np.array_equal(getattr(first, k), getattr(again, k))
            for k in ("boxes", "scores", "class_ids", "indices"))
        for i in checked:
            raw = model.forward(wl.make_image(inputs["seed"], i))
            for k in ("arm_obj", "arm_deltas", "odm_cls", "odm_deltas"):
                arrays[f"raw{i}_{k}"] = getattr(raw, k)[0]
        for i in done:
            out = client.outputs[i]
            for k in ("boxes", "scores", "class_ids", "indices"):
                arrays[f"det{i}_{k}"] = getattr(out, k)
    else:
        again = evaluate.coco_map(state["dets"], state["gts"])
        result["rerun_identical"] = first is not None and (again.mean, again.per_threshold) == (
            first.mean, first.per_threshold)
        result["map"] = [client.outputs[i].mean for i in done]
        selfmap = evaluate.coco_map(
            {k: postprocess.DetectionSet(g.boxes[~g.ignore], np.linspace(1.0, 0.5, int((~g.ignore).sum())),
                                         g.class_ids[~g.ignore])
             for k, g in state["gts"].items()},
            state["gts"])
        result["self_map"] = selfmap.mean
    np.savez(result_path, meta=np.array(json.dumps(result)), **arrays)


if __name__ == "__main__":
    main()
