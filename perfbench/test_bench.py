#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_bench.py

Each workload runs twice, untraced and traced, at a small size with one
seed. Every deterministic figure (outcomes, virtual-time latencies, live-heap
growth, state sizes, count- and byte-based ratios) must repeat bit for bit,
and every timed figure must be present, finite and positive. The result lines
must carry exactly the metrics BENCHMARK.json names, and the benchmark must
refuse to run where the program's sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SMALL = ["--seed", "3", "--seconds", "10", "--scale", "0.05"]

# Live-heap growth repeats exactly when one thread allocates, as it does in
# every untraced run.
SIM_DETERMINISTIC_E2E = ["commit_ratio", "latency_mean_ms", "latency_p99_ms",
                         "rss_mb_per_ktxn"]
DETERMINISTIC_E2E = {
    "sec6b_hot": SIM_DETERMINISTIC_E2E,
    "tours_replicated": SIM_DETERMINISTIC_E2E,
    "svc_wide": ["commit_ratio", "rss_mb_per_ktxn"],
}
TIMED_E2E = {
    "sec6b_hot": ["setup_s", "txn_per_cpu_s"],
    "tours_replicated": ["setup_s", "txn_per_cpu_s"],
    "svc_wide": ["setup_s", "txn_per_cpu_s", "latency_mean_ms",
                 "latency_p99_ms"],
}

GTM_COUNTS = ["gtm.state.committed_entries", "gtm.state.finished_txns",
              "gtm.invoke.wait_ratio", "semantics.reconciliations_per_commit",
              "storage.sst.cells_per_commit", "storage.sst.retries"]
SIM_COUNTS = GTM_COUNTS + ["gtm.invoke.shared_ratio", "gtm.awake.abort_ratio",
                           "gtm.wait.vs_mean"]
WAL_COUNTS = ["storage.wal.appends_per_commit", "storage.wal.bytes_per_commit",
              "storage.wal.syncs_per_commit"]
DETERMINISTIC_LAYER = {
    "sec6b_hot": SIM_COUNTS + WAL_COUNTS,
    "tours_replicated": SIM_COUNTS + [
        "cluster.2pc.global_ratio", "cluster.2pc.no_vote_ratio",
        "cluster.coord_wal.bytes_per_global",
        "cluster.coord_wal.syncs_per_global",
        "replica.log.records_per_commit", "replica.log.bytes_per_commit",
        "replica.ship.records_per_commit", "replica.ship.resends",
        "replica.backup.committed_entries", "replica.backup.finished_txns",
        "replica.lag_records"],
    # Shared grants depend on how the client threads interleave.
    "svc_wide": GTM_COUNTS + WAL_COUNTS,
}
SIM_TIMES = ["gtm.begin.us", "gtm.invoke.us", "gtm.commit.us", "gtm.sleep.us",
             "gtm.awake.us", "gtm.commit.us_growth", "gtm.events.us",
             "workload.self_ms_per_ktxn"]
TIMED_LAYER = {
    "sec6b_hot": SIM_TIMES + ["storage.wal.append_us"],
    "tours_replicated": SIM_TIMES + [
        "gtm.sweep.us", "cluster.router.invoke.us", "cluster.router.commit.us",
        "cluster.2pc.prepare.us", "cluster.2pc.commit_prepared.us"],
    "svc_wide": ["gtm.service.begin.us_p50", "gtm.service.invoke.us_p50",
                 "gtm.service.commit.us_p50", "gtm.service.invoke.us_p99",
                 "gtm.service.commit.us_p99", "gtm.service.scaling",
                 "storage.wal.append_us"],
}


def run_binary(binary, workload, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--trace", str(trace)] + SMALL,
        stdout=subprocess.PIPE, text=True, timeout=300)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    return proc.returncode, json.loads(last)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {}
        for workload in bench.WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = [
                    run_binary(cls.binary, workload, trace) for _ in range(2)]

    def metrics(self, workload, trace):
        runs = self.results[workload, trace]
        for code, result in runs:
            self.assertEqual(code, 0, (workload, trace, result))
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(result["failed"], 0, (workload, trace))
            self.assertGreaterEqual(result["attempted"], 1)
        return [result["metrics"] for _, result in runs]

    def test_result_names_and_units_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in bench.WORKLOADS:
                for metrics in self.metrics(workload, trace):
                    got = {name: m["unit"] for name, m in metrics.items()}
                    self.assertEqual(got, expected, (workload, key))

    def test_deterministic_metrics_repeat_exactly(self):
        for workload in bench.WORKLOADS:
            for trace, names in ((0, DETERMINISTIC_E2E[workload]),
                                 (1, DETERMINISTIC_LAYER[workload])):
                first, second = self.metrics(workload, trace)
                for name in names:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], (workload, name))

    def test_timed_metrics_are_finite_and_positive(self):
        for workload in bench.WORKLOADS:
            for trace, names in ((0, TIMED_E2E[workload] + ["rss_mb_per_ktxn"]),
                                 (1, TIMED_LAYER[workload])):
                for metrics in self.metrics(workload, trace):
                    for name in names:
                        value = metrics[name]["value"]
                        self.assertTrue(math.isfinite(value) and value > 0,
                                        (workload, name, value))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in bench.WORKLOADS:
            for metrics in self.metrics(workload, 0):
                for name, metric in metrics.items():
                    self.assertNotEqual(metric["value"], 0, (workload, name))

    def test_refuses_to_run_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=bench.build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                self.spec["command"] + ["--workload", "sec6b_hot", "--seed",
                                        "1", "--seconds", "10", "--trace",
                                        "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
