#!/usr/bin/env python3
"""Run the benchmark several times per workload, each run with its own seed,
and report per metric the median and the quartile spread (Q3 - Q1) / median.

    python3 bench/spread.py --runs 10 [--seconds S] [--first-seed 1] [--workload NAME ...]

Runs are sequential, one process at a time.  Every run's JSON line is kept
in .bench_work/spread-<time>.jsonl next to its workload, seed and wall time.
The end-to-end times are scaled to a reference speed of the core; the same
figures unscaled, in CPU time and on the wall clock, which run.py prints on
comment lines, get their spread reported too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


UNSCALED = ("cpu time", "wall clock")


def parse_unscaled(lines):
    """{"metric (clock)": value} from run.py's unscaled comment lines."""
    figures = {}
    for clock in UNSCALED:
        for line in lines:
            if line.startswith(f"# {clock}: "):
                body = line[len(clock) + 4:].split(" (")[0]
                figures.update((f"{name} ({clock})", float(value))
                               for name, value in (part.split() for part in body.split(", ")))
    return figures


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    doc = declared()
    limit = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    seconds = args.seconds or doc["run_seconds"]
    names = args.workload or [w["name"] for w in doc["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_work", f"spread-{time.strftime('%Y%m%d-%H%M%S')}.jsonl")
    mean_wall = {}
    with open(log_path, "w", encoding="utf-8") as log:
        for name in names:
            rows, walls, shares, clocks = [], [], set(), []
            for k in range(args.runs):
                seed = args.first_seed + k
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                wall = time.monotonic() - t0
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                lines = proc.stdout.strip().splitlines()
                out = json.loads(lines[-1])
                clock = parse_unscaled(lines)
                log.write(json.dumps({"workload": name, "seed": seed, "wall_s": wall, "result": out,
                                      "unscaled": clock}) + "\n")
                log.flush()
                if not out["correct"]:
                    print(f"{name} seed {seed}: incorrect output\n{proc.stdout}", file=sys.stderr)
                rows.append(out)
                clocks.append(clock)
                walls.append(wall)
                shares.add((out["failed"], out["attempted"]) if out["failed"] else 0)
            mean_wall[name] = statistics.mean(walls)
            print(f"{name}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s per run, "
                  f"failed shares {sorted(map(str, shares))}")
            for metric in rows[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in rows]
                if len(set(values)) == 1:
                    print(f"  {metric:42s} constant {values[0]!r}")
                    continue
                med, rel = spread(values)
                bound = limit.get(metric)
                flag = "" if bound is None else f"  bound {bound:.2f}  {'ok' if rel <= bound / 3 else 'WIDE'}"
                print(f"  {metric:42s} median {med:12.5g}  spread {rel:7.2%}{flag}")
            for metric in clocks[0]:
                med, rel = spread([c[metric] for c in clocks])
                print(f"  {metric:42s} median {med:12.5g}  spread {rel:7.2%}")
    per_workload = 4 / len(names) + 22  # the acceptance protocol: 4 + 22 x workloads runs
    print(f"the protocol's {4 + 22 * len(names)} runs at these walls: "
          f"{per_workload * sum(mean_wall.values()):.0f} s")
    print(f"log: {os.path.relpath(log_path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
