"""Metric math of the repository benchmark.

lobster_perfbench (the C++ half) prints raw samples; this module turns them
into the named metrics BENCHMARK.json lists, and into the verdict
(correct / attempted / failed).  It holds no I/O, so test_perfbench.py can
check every formula on hand-made inputs.

Host-side times (unit s, ns) are wall-clock times of the machine running
the benchmark, divided by the host's speed index during the run (see
speed_index): a shared host runs the same code at speeds that drift by tens
of percent within minutes, and the index takes that drift out.  Simulated
times carry the units sim_s / sim_h: they are what the modelled cluster
would take, and repeat exactly for a fixed seed.
"""

import math
import statistics

# (name, unit, better) — the order BENCHMARK.json lists them in.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("tasklets_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_makespan_h", "sim_h", "lower"),
    ("sim_goodput_tasklets_per_h", "1/sim_h", "higher"),
    ("sim_cpu_efficiency", "ratio", "higher"),
]

SEGMENT_SPANS = ["env_setup", "stage_in", "execute", "execute_io", "stage_out"]
BREAKDOWN_PARTS = ["cpu", "io", "stage_in", "stage_out", "failed", "other"]

PER_LAYER = (
    [
        ("des.events", "count", "lower"),
        ("des.ns_per_event", "ns", "lower"),
        ("des.pending_events_p50", "count", "lower"),
        ("des.pending_events_max", "count", "lower"),
        ("des.live_processes_max", "count", "lower"),
        ("xrootd.streams", "count", "lower"),
        ("xrootd.bytes_streamed", "B", "lower"),
        ("xrootd.failed_opens", "count", "lower"),
        ("xrootd.uplink_flows_p50", "count", "lower"),
        ("xrootd.uplink_flows_max", "count", "lower"),
        ("xrootd.uplink_utilization", "ratio", "higher"),
        ("lobsim.tasks_dispatched", "count", "lower"),
        ("lobsim.tasks_failed", "count", "lower"),
        ("lobsim.tasks_evicted", "count", "lower"),
        ("lobsim.retry_ratio", "ratio", "lower"),
        ("availability.expected_lifetime_ns", "ns", "lower"),
        ("dispatch.next_ns", "ns", "lower"),
        ("cvmfs.squid.requests", "count", "lower"),
        ("cvmfs.squid.hit_ratio", "ratio", "higher"),
        ("cvmfs.squid.timeouts", "count", "lower"),
        ("cvmfs.squid.thrash_ratio", "ratio", "lower"),
        ("cvmfs.squid.service_flows_max", "count", "lower"),
        ("chirp.sim.puts", "count", "lower"),
        ("chirp.sim.bytes_in", "B", "lower"),
        ("chirp.mean_slowdown", "ratio", "lower"),
        ("chirp.connections_max", "count", "lower"),
    ]
    + [("segment.%s_share" % p, "ratio", "higher" if p == "cpu" else "lower")
       for p in BREAKDOWN_PARTS]
    + [("span.%s.%s_s" % (s, q), "sim_s", "lower")
       for s in SEGMENT_SPANS for q in ("p50", "p99")]
    + [
        ("merge.tasks", "count", "lower"),
        ("merge.tail_h", "sim_h", "lower"),
        ("pool.tasklets_dispatched", "count", "higher"),
        ("pool.fluid_deviation", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.events", "count", "lower"),
        ("trace.replay_s", "s", "lower"),
        ("host.speed_index", "ratio", "lower"),
    ]
)

# The host probe's kernel times, in seconds, on a host of speed index 1: a
# 4-vCPU 2.1 GHz Xeon (Sapphire Rapids) VM when its neighbours are quiet.
# They fix the unit of the normalised host times and must not change.
PROBE_NOMINAL_S = {"memory": 0.022, "compute": 0.0035}

# The probe kernels whose slowdown a workload's host time follows, by its hot
# path.  The Engine workloads spend their host time scanning availability
# samples, an in-cache floating-point sum like the compute kernel.  The pool
# spends it in the DES event queue: cache-missing heap traffic (the memory
# kernel) as well as plain compute.
SPEED_INDEX_KERNELS = {
    "processing": ("compute",),
    "simulation": ("compute",),
    "global_pool": ("memory", "compute"),
}

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def _rank(p, n):
    """1-based nearest rank of percentile p (to 0.1) among n samples:
    ceil(p * n / 100), in integers so 99.9% of 10000 is exactly 9990."""
    return max(1, -(-round(p * 10) * n // 1000))


def nearest_rank(values, p):
    """The p-th percentile by nearest rank: the smallest sample with at least
    p% of the samples at or below it.  0 for no samples."""
    if not values:
        return 0.0
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(values):
    """The highest percentile of PERCENTILE_LADDER that has at least
    MIN_SAMPLES_BEYOND samples above its rank, as (p, value); None when even
    the median lacks them (fewer than 20 samples)."""
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_SAMPLES_BEYOND:
            best = (p, nearest_rank(values, p))
    return best


def speed_index(raw):
    """How much slower than nominal the host ran during the run (above 1 is
    slower): for each probe, one per repetition, the geometric mean of the
    workload's kernels' times over their nominal times; the median over the
    run's probes, so a probe that an interrupt lengthened does not count."""
    kernels = SPEED_INDEX_KERNELS[raw["workload"]]
    return median([
        math.prod(r["probe_%s_s" % k] / PROBE_NOMINAL_S[k] for k in kernels)
        ** (1.0 / len(kernels))
        for r in raw["reps"]])


def ratio(numerator, denominator):
    """numerator / denominator, 0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def shares(parts):
    """Each part's share of their sum (all 0 when the sum is 0)."""
    total = sum(parts.values())
    return {k: ratio(v, total) for k, v in parts.items()}


def verdict(raw):
    """(correct, attempted, failed, problems) over every repetition.

    A repetition fails when it threw, failed its own correctness check, or
    its simulated digest differs from that of the first repetition of the
    same input: identical inputs must give an identical simulation, traced
    or not.
    """
    reference = {}
    failed = 0
    problems = []
    for i, rep in enumerate(raw["reps"]):
        expected = reference.setdefault(rep["input"], rep["digest"])
        problem = None
        if not rep["ok"]:
            problem = rep["error"] or "failed"
        elif rep["digest"] != expected:
            problem = "digest %s != %s of the first run of input %d" % (
                rep["digest"], expected, rep["input"])
        if problem:
            failed += 1
            problems.append("repetition %d%s: %s" % (
                i, " (traced)" if rep["traced"] else "", problem))
    attempted = len(raw["reps"])
    return (attempted > 0 and failed == 0, attempted, failed, problems)


def end_to_end(raw):
    """The END_TO_END metrics of an untraced run.  Each repetition runs its
    own input, and host times are divided by the run's speed index.
    run_s is the mean over every repetition (every input's cost counts in
    full) and the throughput all tasklets over all run time; setup_s, short
    and cheap, is the median.  Simulated outcomes are means, and the peak
    resident set of one repetition the median, over the first `sim_inputs`
    inputs, which every run covers whatever the host's speed."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    first_of_input = {}
    for r in reps:
        if r["input"] < raw["sim_inputs"]:
            first_of_input.setdefault(r["input"], r)
    inputs = list(first_of_input.values())
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0
    index = speed_index(raw)
    return {
        "setup_s": median([r["setup_s"] for r in reps]) / index,
        "run_s": mean([r["run_s"] for r in reps]) / index,
        "tasklets_per_s": ratio(sum(r["tasklets"] for r in reps),
                                sum(r["run_s"] for r in reps) / index),
        "peak_rss_mb": median([r["peak_rss_bytes"] for r in inputs]) / 1e6,
        "sim_makespan_h": mean([r["makespan_s"] / 3600.0 for r in inputs]),
        "sim_goodput_tasklets_per_h": mean(
            [ratio(r["tasklets"], r["makespan_s"] / 3600.0) for r in inputs]),
        "sim_cpu_efficiency": mean([r["cpu_efficiency"] for r in inputs]),
    }


def _in_run(layers, makespan_s, key):
    """Sampler series `key`, restricted to samples taken within the run."""
    sampler = layers["sampler"]
    return [v for t, v in zip(sampler["t"], sampler[key]) if t <= makespan_s]


def per_layer(raw):
    """The PER_LAYER metrics of a traced run.  A layer the workload bypasses
    (xrootd on `simulation`, every Engine layer on `global_pool`) reads 0."""
    layers = raw["layers"]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    traced = [r for r in raw["reps"] if r["traced"]]
    first = untraced[0]
    makespan_s = first["makespan_s"]
    counters = layers["counters"]
    engine = layers["engine"]
    c = lambda name: counters.get(name) or 0.0
    e = lambda name: engine.get(name) or 0.0

    pending = _in_run(layers, makespan_s, "pending_events")
    live = _in_run(layers, makespan_s, "live_processes")
    flows = _in_run(layers, makespan_s, "uplink_flows")
    rate = _in_run(layers, makespan_s, "uplink_rate")
    squid_flows = _in_run(layers, makespan_s, "squid_flows")
    chirp_in_use = _in_run(layers, makespan_s, "chirp_in_use")
    index = speed_index(raw)
    untraced_run_s = median([r["run_s"] for r in untraced]) / index

    m = {
        "des.events": float(first["events"]),
        "des.ns_per_event": 1e9 * ratio(untraced_run_s, first["events"]),
        "des.pending_events_p50": nearest_rank(pending, 50),
        "des.pending_events_max": max(pending, default=0.0),
        "des.live_processes_max": max(live, default=0.0),
        "xrootd.streams": c("xrootd.federation.streams"),
        "xrootd.bytes_streamed": c("xrootd.federation.bytes_streamed"),
        "xrootd.failed_opens": c("xrootd.federation.failed_opens"),
        "xrootd.uplink_flows_p50": nearest_rank(flows, 50),
        "xrootd.uplink_flows_max": max(flows, default=0.0),
        "xrootd.uplink_utilization": ratio(
            ratio(sum(rate), len(rate)), layers["sampler"]["uplink_nominal"]),
        "lobsim.tasks_dispatched": c("lobsim.engine.tasks_dispatched"),
        "lobsim.tasks_failed": c("lobsim.engine.tasks_failed"),
        "lobsim.tasks_evicted": c("lobsim.engine.tasks_evicted"),
        "lobsim.retry_ratio": ratio(c("lobsim.engine.tasklets_retried"),
                                    c("lobsim.engine.tasklets_processed")),
        "availability.expected_lifetime_ns":
            median(layers["expected_lifetime_ns"]),
        "dispatch.next_ns": median(layers["dispatch_next_ns"]),
        "cvmfs.squid.requests": c("cvmfs.squid.requests"),
        "cvmfs.squid.hit_ratio": ratio(c("cvmfs.squid.hits"),
                                       c("cvmfs.squid.requests")),
        "cvmfs.squid.timeouts": c("cvmfs.squid.timeouts"),
        "cvmfs.squid.thrash_ratio": ratio(c("cvmfs.squid.bytes_thrashed"),
                                          c("cvmfs.squid.bytes_served")),
        "cvmfs.squid.service_flows_max": max(squid_flows, default=0.0),
        "chirp.sim.puts": c("chirp.sim.puts"),
        "chirp.sim.bytes_in": c("chirp.sim.bytes_in"),
        "chirp.mean_slowdown": e("chirp_mean_slowdown"),
        "chirp.connections_max": max(chirp_in_use, default=0.0),
        "merge.tasks": c("lobsim.engine.merge_tasks_completed"),
        "merge.tail_h": max(0.0, e("last_merge_finish_s")
                            - e("last_analysis_finish_s")) / 3600.0,
        "pool.tasklets_dispatched": layers["pool_tasklets"],
        "pool.fluid_deviation": layers["pool_fluid_deviation"],
        "trace.overhead_ratio": ratio(
            median([r["run_s"] for r in traced]) / index,
            untraced_run_s) - 1.0,
        "trace.events": layers["trace_events"],
        "trace.replay_s": median(layers["replay_s"]),
        "host.speed_index": index,
    }
    breakdown = layers["breakdown"]
    segment_shares = shares({p: breakdown.get(p, 0.0) for p in BREAKDOWN_PARTS})
    for part in BREAKDOWN_PARTS:
        m["segment.%s_share" % part] = segment_shares[part]
    for span in SEGMENT_SPANS:
        durations = layers["segments"].get(span, [])
        m["span.%s.p50_s" % span] = nearest_rank(durations, 50)
        m["span.%s.p99_s" % span] = nearest_rank(durations, 99)
    return m
