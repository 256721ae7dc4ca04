#!/usr/bin/env python3
"""The benchmark's own tests, on seconds-long tiny inputs.

    python3 perfbench/test_bench.py
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
FLEETS = ["fleet_bulk", "fleet_chaos"]


def run(workload, seed=1, trace=0, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


_cache = {}


def result(workload, seed=1, trace=0):
    """The parsed last line of one tiny run, memoized per arguments."""
    key = (workload, seed, trace)
    if key not in _cache:
        done = run(workload, seed, trace)
        assert done.returncode == 0, done.stderr
        _cache[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _cache[key]


def deterministic(res):
    """The work counts and simulated outputs of a traced run."""
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    return {k: v["value"] for k, v in res["metrics"].items()
            if units[k] == "count" or k.startswith("sim.")}


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[section]}
            for w in WORKLOADS:
                res = result(w, trace=trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, f"{w} --trace {trace}")

    def test_layer_map_covers_every_metric(self):
        doc = json.loads((HERE / "metrics.json").read_text())
        names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        self.assertEqual(set(doc["metrics"]), names)

    def test_timings_are_never_zero(self):
        timed = {"s", "ms", "us", "x"}
        for w in WORKLOADS:
            for name, m in result(w)["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")
            for name, m in result(w, trace=1)["metrics"].items():
                if m["unit"] in timed:
                    self.assertGreater(m["value"], 0, f"{w} {name}")


class Smoke(unittest.TestCase):
    def test_every_workload_passes_its_output_checks(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                res = result(w, trace=trace)
                self.assertTrue(res["correct"], f"{w} --trace {trace}")
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)

    def test_fails_without_the_program_sources(self):
        lone = HERE / "out" / "lone"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, lone / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lone)
        try:
            done = run("fleet_bulk", cwd=lone, script=lone / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(lone)


class Determinism(unittest.TestCase):
    def test_counts_repeat_under_one_seed_and_move_under_another(self):
        for w in WORKLOADS:
            self.assertEqual(deterministic(result(w, 1, 1)), deterministic(run_again(w, 1)), w)
        for w in FLEETS:
            a = deterministic(result(w, 1, 1))
            b = deterministic(result(w, 2, 1))
            moved = [k for k in a if k.startswith("sim.") and a[k] != b[k]]
            self.assertTrue(moved, f"{w}: no simulated output changed with the seed")


def run_again(workload, seed):
    done = run(workload, seed, 1)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
