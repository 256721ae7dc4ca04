#!/usr/bin/env python3
"""XPro benchmark: builds `xbench` and runs one workload in its own process.

    python3 perfbench/run.py --workload fleet_bulk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run (spans go to
`perfbench/out/`). `--workload all` runs every workload untraced and traced.
A table comes first; the last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Every
workload runs in a process of its own, so `peak_rss_mb` (the process's
`VmHWM`) never counts one workload's heap against another.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_bulk", "fleet_chaos", "design_sweep")
# The first build in a fresh checkout compiles the whole workspace.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "xbench" / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target / "release" / "xbench"


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(binary, workload, seed, seconds, trace, size):
    """Runs one workload process and returns its parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{workload}-seed{seed}-{size}.spans.jsonl"
        cmd += ["--spans", str(spans.relative_to(ROOT))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: xbench exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{workload}: unreadable result: {e}")


def print_table(res, commit):
    meta = res["meta"]
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    mode = "traced" if res["layers"] else "untraced"
    print(f"== {meta['workload']} {mode} (seed {meta['seed']}, {meta['size']}, "
          f"nproc {meta['nproc']}, threads {meta['threads']}, "
          f"{meta['profile']} build, commit {commit})")
    print(f"  {'failed_ratio':<28} {ratio:>16.6g} {'ratio':<6} "
          f"({res['failed']} of {res['attempted']} checked operations)")
    for name, m in res["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for key, value in meta.items():
        if key not in ("workload", "seed", "size", "nproc", "threads", "profile"):
            print(f"  meta {key}: {json.dumps(value)}")
    if res["layers"]:
        print(f"  {'layer':<24} {'calls':>8} {'items':>10} {'total_ms':>12} {'self_ms':>12}")
        for row in res["layers"]:
            print(f"  {row['layer']:<24} {row['calls']:>8} {row['items']:>10} "
                  f"{row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")
    for msg in res["failures"]:
        print(f"  FAILED: {msg}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs seconds-long inputs for the smoke tests")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file():
        fail(f"no Cargo.toml at {ROOT}: run from a full checkout of the repository")
    binary = build()
    commit = git_commit()
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in ((args.trace,) if args.trace is not None else (0, 1))]
    else:
        runs = [(args.workload, args.trace or 0)]

    results = []
    for workload, trace in runs:
        res = run_workload(binary, workload, args.seed, args.seconds, trace, args.size)
        print_table(res, commit)
        results.append(res)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {}
        summary["runs"] = [{"workload": r["meta"]["workload"], "traced": bool(r["layers"]),
                            "metrics": r["metrics"]} for r in results]
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
