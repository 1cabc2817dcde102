#!/usr/bin/env python3
"""Tests of the benchmark's own metric math and of its determinism contract.

    python3 perfbench/test_perfbench.py

The metric tests are pure Python.  The digest tests build lobster_perfbench
(as run.py does) and run tiny instances of each workload twice.
"""

import json
import math
import random
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
import metrics  # noqa: E402
import run  # noqa: E402


def rep(input_=0, traced=False, ok=True, digest="d0", run_s=1.0,
        setup_s=0.01, tasklets=100.0, events=1000, makespan_s=7200.0,
        cpu_efficiency=0.5, slowdown=(1.0, 1.0), peak_rss_bytes=5e6):
    """One repetition; `slowdown` scales the nominal probe times (memory,
    compute)."""
    return {"input": input_, "traced": traced, "ok": ok, "error": "",
            "digest": digest, "setup_s": setup_s, "run_s": run_s,
            "probe_memory_s": slowdown[0] * metrics.PROBE_NOMINAL_S["memory"],
            "probe_compute_s":
                slowdown[1] * metrics.PROBE_NOMINAL_S["compute"],
            "peak_rss_bytes": peak_rss_bytes,
            "tasklets": tasklets, "events": events, "makespan_s": makespan_s,
            "cpu_efficiency": cpu_efficiency}


def traced_raw(counters=None, breakdown=None):
    """A minimal trace-mode result: one untraced and one traced repetition."""
    return {
        "workload": "processing",
        "reps": [rep(run_s=2.0), rep(traced=True, run_s=2.5)],
        "layers": {
            "sampler": {"t": [0.0, 60.0, 9000.0],
                        "pending_events": [5, 7, 1],
                        "live_processes": [3, 4, 1],
                        "uplink_flows": [2, 4, 0],
                        "uplink_rate": [50.0, 100.0, 0.0],
                        "squid_flows": [1, 0, 0],
                        "chirp_in_use": [0, 3, 0],
                        "uplink_nominal": 100.0},
            "counters": counters or {},
            "engine": {},
            "breakdown": breakdown or {},
            "segments": {"execute": [float(i) for i in range(1, 101)]},
            "trace_events": 10.0,
            "pool_tasklets": 0.0,
            "pool_fluid_deviation": 0.0,
            "expected_lifetime_ns": [30000.0, 10000.0, 20000.0],
            "dispatch_next_ns": [7.0],
            "replay_s": [0.02],
        },
    }


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(metrics.nearest_rank(values, 50), 5.0)
        self.assertEqual(metrics.nearest_rank(values, 90), 9.0)
        self.assertEqual(metrics.nearest_rank(values, 100), 10.0)
        self.assertEqual(metrics.nearest_rank(list(reversed(values)), 10), 1.0)
        self.assertEqual(metrics.nearest_rank([], 50), 0.0)

    def test_tail_needs_ten_samples_beyond(self):
        samples = lambda n: [float(v) for v in range(1, n + 1)]
        self.assertIsNone(metrics.tail_percentile(samples(19)))
        self.assertEqual(metrics.tail_percentile(samples(20)), (50.0, 10.0))
        self.assertEqual(metrics.tail_percentile(samples(99)), (50.0, 50.0))
        self.assertEqual(metrics.tail_percentile(samples(100)), (90.0, 90.0))
        self.assertEqual(metrics.tail_percentile(samples(999)), (90.0, 900.0))
        self.assertEqual(metrics.tail_percentile(samples(1000)), (99.0, 990.0))
        self.assertEqual(metrics.tail_percentile(samples(10000)),
                         (99.9, 9990.0))

    def test_tail_counts_samples_strictly_beyond(self):
        rng = random.Random(3)
        for n in (20, 100, 1000, 10000):
            values = [rng.random() for _ in range(n)]
            p, v = metrics.tail_percentile(values)
            self.assertEqual(sum(1 for x in values if x > v),
                             metrics.MIN_SAMPLES_BEYOND)


class Ratios(unittest.TestCase):
    def test_zero_base_reads_zero(self):
        self.assertEqual(metrics.ratio(5.0, 0.0), 0.0)
        self.assertEqual(metrics.ratio(1.0, 4.0), 0.25)

    def test_failed_ratio_base_is_attempted_repetitions(self):
        raw = {"reps": [rep(0), rep(1, digest="d1"), rep(2, ok=False),
                        rep(0, digest="other")]}
        correct, attempted, failed, problems = metrics.verdict(raw)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(len(problems), 2)
        self.assertIn("digest", problems[1])

    def test_layer_ratio_bases(self):
        raw = traced_raw(
            counters={"cvmfs.squid.requests": 40.0, "cvmfs.squid.hits": 30.0,
                      "cvmfs.squid.bytes_served": 1000.0,
                      "cvmfs.squid.bytes_thrashed": 250.0,
                      "lobsim.engine.tasklets_retried": 30.0,
                      "lobsim.engine.tasklets_processed": 120.0,
                      "lobsim.engine.tasks_dispatched": 999.0})
        m = metrics.per_layer(raw)
        self.assertAlmostEqual(m["cvmfs.squid.hit_ratio"], 0.75)
        self.assertAlmostEqual(m["cvmfs.squid.thrash_ratio"], 0.25)
        # Retries count against processed tasklets, not dispatched tasks.
        self.assertAlmostEqual(m["lobsim.retry_ratio"], 0.25)
        # Traced over untraced run time, minus one.
        self.assertAlmostEqual(m["trace.overhead_ratio"], 0.25)
        # Mean allocated rate over the nominal uplink, within the run only
        # (the sample at t=9000 s is after the 7200 s makespan).
        self.assertAlmostEqual(m["xrootd.uplink_utilization"], 0.75)
        self.assertAlmostEqual(m["des.ns_per_event"], 2.0e6)
        self.assertEqual(m["availability.expected_lifetime_ns"], 20000.0)
        self.assertEqual(m["span.execute.p99_s"], 99.0)

    def test_bypassed_layers_read_zero(self):
        m = metrics.per_layer(traced_raw())
        for name in ("cvmfs.squid.hit_ratio", "lobsim.retry_ratio",
                     "segment.cpu_share", "span.stage_out.p50_s"):
            self.assertEqual(m[name], 0.0)
        self.assertEqual(set(m), {name for name, _, _ in metrics.PER_LAYER})


class Shares(unittest.TestCase):
    def test_shares_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(100):
            parts = {p: rng.uniform(0.0, 1e6) for p in metrics.BREAKDOWN_PARTS}
            self.assertTrue(math.isclose(sum(metrics.shares(parts).values()),
                                         1.0, rel_tol=1e-12))

    def test_layer_breakdown_shares_sum_to_one(self):
        raw = traced_raw(breakdown={"cpu": 5.0, "io": 2.0, "stage_in": 1.0,
                                    "stage_out": 1.0, "failed": 0.5,
                                    "other": 0.5})
        m = metrics.per_layer(raw)
        total = sum(m["segment.%s_share" % p] for p in metrics.BREAKDOWN_PARTS)
        self.assertTrue(math.isclose(total, 1.0, rel_tol=1e-12))
        self.assertAlmostEqual(m["segment.cpu_share"], 0.5)

    def test_empty_breakdown_has_no_shares(self):
        self.assertEqual(set(metrics.shares({"a": 0.0, "b": 0.0}).values()),
                         {0.0})


class EndToEnd(unittest.TestCase):
    def test_simulated_outcome_averages_the_fixed_inputs(self):
        raw = {"workload": "processing", "sim_inputs": 2,
               "reps": [rep(0, makespan_s=3600.0, run_s=1.0, peak_rss_bytes=4e6),
                        rep(1, makespan_s=3 * 3600.0, run_s=3.0,
                            peak_rss_bytes=6e6),
                        rep(2, makespan_s=100 * 3600.0, run_s=2.0,
                            peak_rss_bytes=9e6),
                        rep(0, makespan_s=3600.0, run_s=4.0)]}
        m = metrics.end_to_end(raw)
        self.assertEqual(m["sim_makespan_h"], 2.0)
        self.assertAlmostEqual(m["sim_goodput_tasklets_per_h"],
                               (100.0 + 100.0 / 3.0) / 2.0)
        self.assertEqual(m["run_s"], 2.5)
        # All work over all run time, not a median of per-run rates.
        self.assertEqual(m["tasklets_per_s"], 400.0 / 10.0)
        self.assertEqual(m["peak_rss_mb"], 5.0)
        self.assertEqual(set(m), {name for name, _, _ in metrics.END_TO_END})

    def test_run_s_is_the_mean_over_the_run(self):
        raw = {"workload": "processing", "sim_inputs": 1,
               "reps": [rep(0, run_s=1.0), rep(1, run_s=1.0),
                        rep(2, run_s=4.0), rep(0, run_s=2.0)]}
        m = metrics.end_to_end(raw)
        self.assertEqual(m["run_s"], 2.0)
        self.assertEqual(m["tasklets_per_s"], 400.0 / 8.0)

    def test_speed_index_follows_the_workloads_kernels(self):
        # Memory probe 4x and compute probe 1x nominal.
        raw = {"reps": [rep(slowdown=(4.0, 1.0))]}
        self.assertAlmostEqual(
            metrics.speed_index(dict(raw, workload="global_pool")), 2.0)
        self.assertAlmostEqual(
            metrics.speed_index(dict(raw, workload="processing")), 1.0)

    def test_speed_index_is_the_median_over_the_probes(self):
        raw = {"workload": "simulation",
               "reps": [rep(slowdown=(1.0, s)) for s in (1.2, 9.0, 1.25)]}
        self.assertAlmostEqual(metrics.speed_index(raw), 1.25)

    def test_host_times_are_divided_by_the_speed_index(self):
        raw = {"workload": "processing", "sim_inputs": 1,
               "reps": [rep(0, run_s=4.0, setup_s=0.2, slowdown=(1.0, 2.0)),
                        rep(1, run_s=2.0, setup_s=0.4, slowdown=(1.0, 2.0))]}
        m = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["run_s"], 1.5)
        self.assertAlmostEqual(m["setup_s"], 0.15)
        self.assertAlmostEqual(m["tasklets_per_s"], 200.0 / 3.0)

    def test_benchmark_json_lists_the_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], metrics.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


TINY = {
    "processing": ["--cores", "16", "--tasklets", "96"],
    "simulation": ["--cores", "16", "--tasklets", "24"],
    "global_pool": ["--cores", "2200", "--users", "40"],
}


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def digests(self, workload, seed, mode):
        cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--mode", mode, "--trace-file",
               str(run.BUILD / ("test-trace-%s.jsonl" % workload))]
        out = subprocess.run(cmd + TINY[workload], stdout=subprocess.PIPE,
                             check=True, text=True, timeout=120)
        raw = json.loads(out.stdout)
        correct, _, _, problems = metrics.verdict(raw)
        self.assertTrue(correct, problems)
        return [(r["input"], r["traced"], r["digest"]) for r in raw["reps"]]

    def test_digest_stable_across_two_runs(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                first = self.digests(workload, 5, "run")
                self.assertEqual(first, self.digests(workload, 5, "run"))
                # Inputs differ from each other and with the seed.
                self.assertEqual(len({d for _, _, d in first[:-1]}),
                                 len(first) - 1)
                self.assertNotEqual(first, self.digests(workload, 6, "run"))

    def test_traced_digest_equals_untraced(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                reps = self.digests(workload, 5, "trace")
                self.assertEqual({traced for _, traced, _ in reps},
                                 {False, True})
                self.assertEqual(len({d for _, _, d in reps}), 1)


if __name__ == "__main__":
    unittest.main()
