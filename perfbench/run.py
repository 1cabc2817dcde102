#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload processing|simulation|global_pool \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
perfbench CMake package (the simulator libraries from src/ plus the
measuring binary lobster_perfbench) under .bench_build/perfbench; later
calls only re-check the build.

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
the separate traced run that yields the per-layer metrics (and writes the
Engine trace and the benchmark-side spans next to the build).  Either way a
readable report comes first and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` is the number of workload repetitions run (the sample count of
every host timing) and `failed / attempted` is the failed ratio: repetitions
that threw, failed their correctness check, or did not reproduce the first
repetition's simulated digest.  The exit code is 0 whenever a result is
printed, and non-zero (with no result) when the program cannot be built or
run.  BENCHMARK.json lists the metrics; predictions.md says which workload
and end-to-end metric each layer metric is expected to move.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "lobster_perfbench"
WORKLOADS = ("processing", "simulation", "global_pool")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _call(cmd, timeout):
    """Run `cmd` with its output on our stderr; raise BenchError on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError("%s: %s" % (" ".join(map(str, cmd)), e)) from e


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources not found under %s" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        _call(["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    _call(["cmake", "--build", str(BUILD), "--target", "lobster_perfbench",
           "-j", jobs], BUILD_TIMEOUT_S)


def measure(workload, seed, seconds, trace):
    """Run lobster_perfbench once and return its parsed raw samples."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", "trace" if trace else "run",
           "--trace-file", str(BUILD / ("trace-%s.jsonl" % workload))]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S, check=True, text=True)
        return json.loads(out.stdout)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        raise BenchError("lobster_perfbench: %s" % e) from e


def report(raw, values, table, problems):
    size = ", ".join("%s=%g" % kv for kv in raw["size"].items())
    print("workload %s (%s), seed %d, %s mode" % (
        raw["workload"], size, raw["seed"], raw["mode"]))
    for name, unit, _ in table:
        print("  %-36s %14.6g %s" % (name, values[name], unit))
    reps = [r for r in raw["reps"] if not r["traced"]]
    index = metrics.speed_index(raw)
    run_s = [r["run_s"] / index for r in reps]
    tail = metrics.tail_percentile(run_s)
    print("  run_s samples: %d untraced repetitions; median %.6g s; %s" % (
        len(run_s), metrics.median(run_s),
        "p%g = %.6g s" % tail if tail else
        "no percentile above the median has %d samples beyond it"
        % metrics.MIN_SAMPLES_BEYOND))
    wall = [r["run_s"] for r in reps]
    print("  wall clock, not normalised: run_s mean %.6g s, median %.6g s; "
          "host speed index %.4g" % (
              metrics.ratio(sum(wall), len(wall)), metrics.median(wall),
              index))
    for p in problems:
        print("  FAILED %s" % p)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        raw = measure(args.workload, args.seed, args.seconds, args.trace)
        if args.trace:
            (BUILD / ("spans-%s.json" % args.workload)).write_text(
                json.dumps(raw["spans"], indent=1))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    correct, attempted, failed, problems = metrics.verdict(raw)
    if args.trace:
        table, values = metrics.PER_LAYER, metrics.per_layer(raw)
    else:
        table, values = metrics.END_TO_END, metrics.end_to_end(raw)
    report(raw, values, table, problems)
    print("  %-36s %14.6g ratio (%d of %d repetitions)" % (
        "failed_ratio", metrics.ratio(failed, attempted), failed, attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
