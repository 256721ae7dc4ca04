#!/usr/bin/env python3
"""Runs every workload over several seeds and reports each metric's spread.

    python3 perfbench/baseline.py [--runs 10] [--write]

Every workload in BENCHMARK.json runs untraced with seeds 1..runs. For each
workload and end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound in
BENCHMARK.json. Then each workload runs traced with the first
TRACED_RUNS seeds. `--write` stores the medians (and the per-layer medians
of the traced runs, plus their exact work counts and simulated outputs per
seed) as the `baseline` of `perfbench/metrics.json`.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_RUNS = 3


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {done.returncode}\n{done.stderr}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{done.stdout}")
    return res["metrics"]


def machine():
    try:
        cpuinfo = pathlib.Path("/proc/cpuinfo").read_text()
        model = next(l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                     if l.startswith("model name"))
    except (OSError, StopIteration):
        model = "unknown CPU"
    return f"{model}, {os.cpu_count()} logical CPUs, release build"


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # Work counts and simulated outputs repeat exactly per seed.
    exact = {m["name"] for m in bench["per_layer"]
             if m["unit"] == "count" or m["name"].startswith("sim.")}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)

    baseline = {}
    counts_by_seed = {}
    worst = 0.0
    for w in workloads:
        values = {}
        for s in seeds:
            metrics = run(w, s, seconds, 0)
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        base = baseline.setdefault(w, {})
        for name, vs in values.items():
            med, sp = spread(vs)
            base[name] = med
            mark = "" if sp <= bounds[name] else "  OVER BOUND"
            worst = max(worst, sp / bounds[name])
            print(f"  {name:<16} median {med:<14.6g} spread {sp:.4f}  bound {bounds[name]}{mark}"
                  f"  [{' '.join(f'{v:.5g}' for v in vs)}]")
        layer_values = {}
        for s in list(seeds)[:TRACED_RUNS]:
            metrics = run(w, s, seconds, 1)
            for name, m in metrics.items():
                layer_values.setdefault(name, []).append(m["value"])
            counts_by_seed.setdefault(w, {})[str(s)] = {
                k: m["value"] for k, m in metrics.items() if k in exact}
        for name, vs in layer_values.items():
            base[name] = statistics.median(vs)
        sys.stdout.flush()
    print(f"largest spread / bound: {worst:.3f}")

    if args.write:
        path = HERE / "metrics.json"
        doc = json.loads(path.read_text())
        doc["baseline"] = {
            "commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, check=False).stdout.strip() or "unknown",
            "machine": machine(),
            "runs": args.runs,
            "traced_runs": TRACED_RUNS,
            "run_seconds": seconds,
            "medians": baseline,
            "counts_by_seed": counts_by_seed,
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote the baseline to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
