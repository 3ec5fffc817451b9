#!/usr/bin/env python3
"""Self-test of the isprof benchmark.

Run from the root of an isprof checkout:

    python3 perfbench/test_bench.py

Runs one short benchmark of the live-dbserver workload in each mode and
checks that the output names every required metric, that every metric
name is well formed and listed in BENCHMARK.json, and that the benchmark
sources call none of the speed-only knobs planned for deletion (the
benchmark must measure defaults, so deleting a knob needs no benchmark
edit). PERFBENCH_TEST_WORKLOADS=all runs every workload instead.
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

END_TO_END = {
    "setup_s", "profile_s", "record_s", "replay_s", "collect_s",
    "collect_filtered_s", "stream_bytes_per_event", "peak_rss_mb",
}

PER_LAYER = {
    # L0 vm
    "vm.compile_s", "vm.run_s", "vm.instructions", "vm.ns_per_instr",
    "vm.quiet_suppressed",
    # L1 emission and compaction
    "instr.emit_s", "instr.events_enqueued", "instr.access_merges",
    "instr.bb_folds", "instr.compaction_ratio",
    # L2 delivery
    "instr.deliver_s", "instr.deliver_ns_per_event",
    "instr.events_delivered", "instr.flushes",
    # L3 analysis
    "trms.analyze_s", "trms.analyze_ns_per_event", "trms.footprint_bytes",
    "shadow.wts_miss_ratio", "trms.callback_timer_s",
    # L4 trace write
    "trace.write_s", "trace.write_ns_per_event", "trace.bytes_written",
    "trace.chunks", "trace.peak_buffered_bytes",
    # L5 trace read
    "trace.read_s", "trace.read_ns_per_event", "replay.deliver_analyze_s",
    # L6 collect
    "collect.merge_s", "collect.events", "collect.chunks_read",
    "collect.chunks_skipped", "collect.skip_ratio", "collect.workers",
    # the benchmark itself
    "bench.trace_overhead_share", "failed_share",
}

# Speed-only knobs the roadmap plans to delete.
KNOBS = ("setParallelWorkers", "setBatchCapacity", "BlockCompile",
         "--dispatch", "ShardedShadow", "ParallelReplay")


def run_bench(workload, trace):
    done = subprocess.run(
        ["python3", os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("benchmark exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        names = [w["name"] for w in cls.spec["workloads"]]
        if os.environ.get("PERFBENCH_TEST_WORKLOADS") != "all":
            names = ["live-dbserver"]
        cls.results = {(w, t): run_bench(w, t) for w in names for t in (0, 1)}

    def test_outputs_are_correct(self):
        for key, result in self.results.items():
            self.assertTrue(result["correct"], key)
            self.assertEqual(result["failed"], 0, key)
            self.assertGreaterEqual(result["attempted"], 1, key)

    def test_output_names_every_metric(self):
        listed_e2e = {m["name"] for m in self.spec["end_to_end"]}
        listed_layer = {m["name"] for m in self.spec["per_layer"]}
        self.assertLessEqual(END_TO_END, listed_e2e)
        self.assertLessEqual(PER_LAYER, listed_layer)
        for (workload, trace), result in self.results.items():
            names = set(result["metrics"])
            self.assertEqual(names, listed_layer if trace else listed_e2e,
                             (workload, trace))

    def test_metric_names_and_units_are_well_formed(self):
        units = {m["name"]: m["unit"]
                 for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for result in self.results.values():
            for name, metric in result["metrics"].items():
                self.assertRegex(name, NAME_RE)
                self.assertEqual(metric["unit"], units[name], name)
                self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_are_never_zero(self):
        for (workload, trace), result in self.results.items():
            if trace == 0:
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, (workload, name))

    def test_sources_call_no_deletion_candidate_knob(self):
        for name in sorted(os.listdir(BENCH_DIR)):
            if name == os.path.basename(__file__):
                continue
            path = os.path.join(BENCH_DIR, name)
            if not os.path.isfile(path):
                continue
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for knob in KNOBS:
                self.assertNotIn(knob, text, "%s uses %s" % (name, knob))


if __name__ == "__main__":
    unittest.main()
