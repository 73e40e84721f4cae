"""Self-tests of the benchmark: the statistics helpers, the metric-name
grammar, the self-time attribution, and a smoke-sized run of every
workload that must report every metric BENCHMARK.json names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke runs build the runner first (about a minute from scratch).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

# Every metric the benchmark's definition names, by layer.
NAMED_END_TO_END = {
    "execs_per_s", "verdict_s", "setup_s", "peak_rss_mb", "bug_rate", "distinct_races",
}
NAMED_PER_LAYER = {
    "runtime.scheduling_ns", "c11tester.exec_overhead_ns_per_exec", "race.detect_ns",
    "core.read_from_ns", "core.mo_graph_ns", "core.prune_ns",
    "isolation.run_range_ns", "isolation.spawns", "isolation.respawns", "isolation.frames",
    "isolation.frame_rtt_mean_us", "isolation.frame_rtt_max_us",
    "campaign.run_range_ns", "campaign.epoch_gap_ns", "campaign.report_json_ns",
    "campaign.report_json_bytes", "campaign.shard_imbalance",
    "adaptive.reweight_ns", "adaptive.reweight_calls",
    "workloads.body_p50_us", "workloads.body_p99_us",
    "c11tester.unattributed_ns", "trace_overhead_frac",
    "c11tester.atomic_ops", "race.normal_accesses", "core.rf_candidates_rejected",
    "core.rf_rejects_per_load", "core.mo_edges_added", "core.mo_edges_redundant_frac",
    "core.mo_order_reorders", "core.reach_fast_negative_frac", "core.pruned_stores",
    "core.compactions", "core.peak_live_nodes", "adaptive.epochs", "isolation.crashes",
}


class Statistics(unittest.TestCase):
    def test_quartiles_and_median(self):
        self.assertEqual(analysis.quartiles([3, 1, 2])[1], 2)
        self.assertEqual(analysis.quartiles([4, 1, 2, 3])[1], 2.5)
        self.assertEqual(analysis.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(analysis.quartiles([7]), (7, 7, 7))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(range(1, 1001)), (99, 990))
        # One sample fewer leaves only nine beyond p99: fall back to p95.
        self.assertEqual(analysis.tail_percentile(range(1, 1000)), (95, 950))
        self.assertEqual(analysis.tail_percentile(range(1, 21)), (50, 10))
        self.assertIsNone(analysis.tail_percentile(range(1, 16)))
        self.assertEqual(analysis.tail_percentile(range(10001)), (99.9, 9990))

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(analysis.percentile([5, 1, 3], 50), 3)
        self.assertEqual(analysis.percentile(range(1, 101), 99), 99)
        self.assertEqual(analysis.percentile([42], 99), 42)


class Names(unittest.TestCase):
    def test_grammar(self):
        for good in ("a", "9x", "core.read_from_ns", "trace_overhead_frac", "a-b.c_d", "x" * 64):
            self.assertTrue(analysis.valid_name(good), good)
        for bad in ("", ".a", "_a", "a b", "a/b", "é", "a\n", "x" * 65):
            self.assertFalse(analysis.valid_name(bad), bad)

    def test_benchmark_json_names_are_valid_unique_and_complete(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertTrue(all(analysis.valid_name(n) for n in names))
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({m["name"] for m in SPEC["end_to_end"]}, NAMED_END_TO_END)
        self.assertLessEqual(NAMED_PER_LAYER, {m["name"] for m in SPEC["per_layer"]})
        self.assertLessEqual(set(analysis.SELF_TIMES), {m["name"] for m in SPEC["per_layer"]})


def span(sid, parent, name, start, end, **attrs):
    return {"id": sid, "parent": parent, "campaign": 0, "name": name,
            "start": start, "end": end, "attrs": attrs}


class Attribution(unittest.TestCase):
    def test_self_times_partition_the_trial(self):
        phases = dict(phase_scheduling=10, phase_read_from=20, phase_mo_graph=0,
                      phase_race_detect=10, phase_prune=0)
        spans = [
            span(1, 0, "bench.trial", 0, 1000),
            span(2, 1, "adaptive.run_target", 100, 900),
            # 300 ns span; workers busy 200 + 200 of it, 100 + 100 in bodies.
            span(3, 2, "campaign.run_range", 100, 400, executions=4, workers=2,
                 busy_sum=400, busy_max=200, **phases),
            span(4, 3, "workloads.body", 110, 210),
            span(5, 3, "workloads.body", 120, 220),
            span(6, 2, "adaptive.reweight", 450, 500),
            span(7, 2, "campaign.run_range", 600, 700, executions=1, workers=1,
                 busy_sum=100, busy_max=100, **phases),
            span(8, 7, "workloads.body", 600, 700),
            span(9, 1, "campaign.report_json", 900, 950, bytes=123),
        ]
        (trial,), samples = analysis.layer_metrics(spans)
        self.assertEqual(trial["trace.wall_ns"], 1000)
        self.assertEqual(trial["bench.self_ns"], 1000 - 800 - 50)
        self.assertEqual(trial["adaptive.self_ns"], 800 - 300 - 100)  # reweight is adaptive too
        self.assertEqual(trial["campaign.self_ns"], (300 - 200) + 50)
        self.assertEqual(trial["adaptive.reweight_ns"], 50)
        self.assertEqual(trial["adaptive.reweight_calls"], 1)
        self.assertEqual(trial["campaign.epoch_gap_ns"], 200)
        self.assertEqual(trial["campaign.report_json_bytes"], 123)
        self.assertEqual(trial["campaign.run_range_ns"], 400)
        # Range 3: scale 200/400; overhead 200, phases 40, unattributed 160.
        # Range 7: scale 1; overhead 0, phases 40, unattributed 60.
        self.assertAlmostEqual(trial["c11tester.exec_overhead_ns"], 100)
        self.assertAlmostEqual(trial["core.read_from_ns"], 10 + 20)
        self.assertAlmostEqual(trial["c11tester.unattributed_ns"], 80 + 60)
        self.assertAlmostEqual(trial["trace.attributed_frac"], 1.0)
        self.assertAlmostEqual(trial["c11tester.exec_overhead_ns_per_exec"], 200 / 5)
        self.assertAlmostEqual(trial["campaign.shard_imbalance"], (400 + 100) / 500)
        self.assertEqual(sorted(samples), [100, 100, 100])

    def test_overlapping_children_break_the_partition(self):
        spans = [
            span(1, 0, "bench.trial", 0, 100),
            span(2, 1, "campaign.run_target", 0, 80),
            span(3, 1, "campaign.report_json", 50, 100, bytes=1),
        ]
        (trial,), _ = analysis.layer_metrics(spans)
        self.assertGreater(trial["trace.attributed_frac"], 1.1)


class Smoke(unittest.TestCase):
    """Smoke-sized runs report every metric the benchmark names."""

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("failed_frac", done.stdout)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_every_workload_reports_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e = self.run_bench(w["name"], 0)
                self.assertEqual(set(e2e), {m["name"] for m in SPEC["end_to_end"]})
                self.assertTrue(all(v > 0 for v in e2e.values()), e2e)
                layers = self.run_bench(w["name"], 1)
                self.assertEqual(set(layers), {m["name"] for m in SPEC["per_layer"]})
                self.assertLess(abs(layers["trace.attributed_frac"] - 1), 0.1)
                isolated = w["name"] == "isolated-longrun"
                # Pruning and the fork server run only in the isolated workload.
                self.assertEqual(layers["core.prune_ns"] > 0, isolated)
                self.assertEqual(layers["isolation.spawns"] > 0, isolated)
                self.assertEqual(layers["workloads.body_samples"] > 0, not isolated)
                self.assertEqual(layers["adaptive.epochs"] > 0, w["name"] == "bughunt-small")


if __name__ == "__main__":
    unittest.main()
