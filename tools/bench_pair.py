#!/usr/bin/env python3
"""Before/after benchmark pairs of two commits, written to BENCH_<tag>.json.

    python3 tools/bench_pair.py --base HEAD~1 --change HEAD --tag mychange \\
        [--pairs 10] [--first-seed 101]

Each side is extracted with `git archive` into a fresh directory (under
--work-dir, or a temporary one removed afterwards), so both run from the same
kind of tree: the checkout directory alone has moved timings by up to 25%.
For every workload of the change's BENCHMARK.json and pair k, bench/run.py
runs once in each tree for the benchmark's run_seconds, with seed
first_seed + k and --trace 0, and the side that runs first alternates from
pair to pair.  The file at the repository root records each side's commit
id with the ids of its whole tree and of its src/ tree (which stay the same
when the commit is rebased or amended), every run, and per workload and
end-to-end metric each side's median and quartiles, how many pairs the
change won, lost or tied, and a verdict: gain, regression, unresolved or
within_bound (see `verdict`).  Each run also keeps the unscaled figures of
bench/run.py's `# cpu time:` line, the worker's CPU p50 and the reference
kernel's time, and each workload each side's median and quartiles of both,
with no verdict.  Nothing under bench/ is changed or imported: the metric
names, units, directions and bounds come from the change's BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, dest):
    """Write the tree of `rev` to `dest` with git archive; returns its ids."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return {"commit": sha, "tree": git("rev-parse", f"{sha}^{{tree}}"),
            "src_tree": git("rev-parse", f"{sha}:src")}


CPU_LINE = "# cpu time: "
CPU_FIGURES = {"cpu_latency_ms_p50": "latency_ms_p50", "reference_ms": "reference_ms"}  # record key: field of the line


def cpu_figures(lines):
    """The CPU_FIGURES of bench/run.py's unscaled `# cpu time: setup_s S,
    latency_ms_p50 L, ..., reference_ms R (...)` line among `lines`."""
    for line in lines:
        if line.startswith(CPU_LINE):
            fields = dict(f.split() for f in line[len(CPU_LINE):].split(" (")[0].split(", "))
            return {key: float(fields[field]) for key, field in CPU_FIGURES.items()}
    raise ValueError(f"no {CPU_LINE.strip()!r} line in the output")


def cpu_summary(runs):
    """Per side, the median and quartiles of each CPU figure of its runs."""
    return {side: {key: summary([r["cpu"][key] for r in side_runs]) for key in CPU_FIGURES}
            for side, side_runs in runs.items()}


def run_once(tree, workload, seed, seconds):
    """One bench/run.py run in `tree`; returns its record."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: exit {proc.returncode}\n"
                           f"{proc.stdout}\n{proc.stderr}")
    out = json.loads(lines[-1])
    env = next((line[len("# environment: "):] for line in lines
                if line.startswith("# environment: ")), None)
    return {"seed": seed, "wall_s": round(time.monotonic() - t0, 3),
            "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()},
            "cpu": cpu_figures(lines), "environment": json.loads(env) if env else None}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base, change, wins, lower, bound):
    """The outcome of one metric's pairs.

    gain:         the change won at least nine tenths of the pairs, and its
                  median is better than the parent's by more than the
                  parent's own quartile spread (q3 - q1);
    regression:   the change's median is worse than the parent's by more
                  than `bound` times the parent's median;
    unresolved:   the parent's quartile spread is wider than `bound` times
                  its median, and not every run of the change reads better
                  than every run of the parent;
    within_bound: otherwise.
    """
    sign = 1 if lower else -1  # sign * value: lower is better
    base, change = [sign * v for v in base], [sign * v for v in change]
    b, c = summary(base), summary(change)
    gap = b["median"] - c["median"]  # > 0: the change is better
    spread = b["q3"] - b["q1"]
    if wins >= 0.9 * len(base) and gap > spread:
        return "gain"
    if -gap > bound * abs(b["median"]):
        return "regression"
    if spread > bound * abs(b["median"]) and not max(change) < min(base):
        return "unresolved"
    return "within_bound"


def compare(base_runs, change_runs, declared):
    """Per metric: each side's median and quartiles, the pairs won, and the verdict."""
    out = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name] for r in base_runs]
        change = [r["metrics"][name] for r in change_runs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "base": summary(base), "change": summary(change),
                     "change_wins": wins, "change_losses": len(base) - wins - ties, "ties": ties,
                     "verdict": verdict(base, change, wins, lower, m["bound"])}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit measured as the parent")
    p.add_argument("--change", required=True, help="commit measured as the change")
    p.add_argument("--tag", required=True, help="output name: BENCH_<tag>.json at the repo root")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--work-dir", help="directory for the two checkouts (default: a temporary one)")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.work_dir) as work:
        trees = {side: os.path.join(work, side) for side in ("base", "change")}
        ids = {side: extract(getattr(args, side), trees[side]) for side in trees}
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            doc = json.load(f)
        seconds = doc["run_seconds"]
        result = {"base": ids["base"], "change": ids["change"], "seconds": seconds,
                  "pairs": args.pairs, "trace": 0, "environment": None, "workloads": {}}
        for name in (w["name"] for w in doc["workloads"]):
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    record = run_once(trees[side], name, seed, seconds)
                    env = record.pop("environment")
                    result["environment"] = result["environment"] or env
                    record["first"] = side == order[0]
                    runs[side].append(record)
                    print(f"{name} pair {k} seed {seed} {side}: "
                          f"{json.dumps(record['metrics'])} correct={record['correct']} "
                          f"failed={record['failed']}", flush=True)
            result["workloads"][name] = {
                "metrics": compare(runs["base"], runs["change"], doc["end_to_end"]),
                "cpu": cpu_summary(runs),
                "runs": runs,
            }
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
