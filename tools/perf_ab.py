#!/usr/bin/env python3
"""The perf gate: paired runs of the repository benchmark on two checkouts.

    python3 tools/perf_ab.py BASE HEAD

BASE and HEAD are two checkouts of this repository (in CI, the merge base
and the head of a pull request, as two worktrees on one runner).  For every
workload in HEAD's BENCHMARK.json the script runs each checkout's own
`perfbench/run.py` in PAIRS alternating pairs, the same seed and budget on
both sides, and prints per end-to-end metric the pairs HEAD won and lost,
each side's median and quartiles, and the HEAD/BASE ratio of the medians.

Exit code 1 when, on some workload, a host metric (every end-to-end metric
that is not a simulated `sim_*` outcome) is worse at HEAD in at least
MIN_LOSSES of PAIRS pairs with a median worse by more than MAX_WORSE, or
when HEAD fails a larger share of its repetitions than BASE.  A `sim_*`
metric that differs between the sides is printed as a model-change notice,
not a failure: a change that moves the model says so in its description.
The notice gives the signed change of the medians as a fraction of the
metric's `bound` in BENCHMARK.json (positive is worse), so a declared
model change shows how far each simulated outcome moved.
Exit code 2 when a checkout cannot be built or run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Alternating pairs per workload: the benchmark's rule for a speed claim
# (at least ten parent/change pairs), so the gate and a claim read one table.
PAIRS = 10
# A host metric fails only when HEAD loses this many pairs: 9 of 10 losses
# has probability 11/1024 (about 1%) when the two sides run the same code.
MIN_LOSSES = 9
# ... and when HEAD's median is worse than BASE's by more than this
# fraction, so a consistent but negligible difference does not fail.
MAX_WORSE = 0.10
# perfbench --seconds for every run: every workload still runs its fixed
# simulated inputs at this budget, and a full gate takes minutes, not the
# benchmark's 40 s per run.
SECONDS = 2.0
# How many hex digits of HEAD's commit id make the seed: a new commit gets
# a seed its author could not have tuned against, and the digits fit u64.
SEED_HEX_DIGITS = 8
# perfbench's first call per checkout configures and builds it.
RUN_TIMEOUT_S = 1200


class RunError(Exception):
    pass


def commit_seed(checkout):
    """The benchmark seed for a checkout: its commit id, read as hex."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        raise RunError("%s: no commit id (%s)" % (checkout, e)) from e
    commit = out.stdout.strip()
    return commit, int(commit[:SEED_HEX_DIGITS], 16)


def run_bench(checkout, workload, seed):
    """One `perfbench/run.py` run in `checkout`; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    try:
        out = subprocess.run(cmd, cwd=str(checkout), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])
    except subprocess.CalledProcessError as e:
        raise RunError("%s: %s exited %d:\n%s" % (
            checkout, " ".join(cmd), e.returncode, e.stderr[-4000:])) from e
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        raise RunError("%s: %s: %s" % (checkout, " ".join(cmd), e)) from e


def spread(values):
    """'median [q1, q3]' of one side's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return "%.4g [%.4g, %.4g]" % (statistics.median(values), q1, q3)


def worse_by(base, head, better):
    """How much worse HEAD is than BASE, as a fraction of BASE (negative
    when HEAD is better)."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def model_change(base, head, metric):
    """The model-change notice of a `sim_*` metric whose runs differ."""
    worse = worse_by(base, head, metric["better"])
    return "model change: %+.3f of the %g bound (median %+.2f%%, + is worse)" % (
        worse / metric["bound"], metric["bound"], 100.0 * worse)


def compare(workload, metrics, base_runs, head_runs):
    """Print one workload's table; return its failure messages."""
    failures = []
    print("workload %s" % workload)
    print("  %-27s %-6s %-29s %-29s %6s %4s %6s  %s" % (
        "metric", "better", "BASE median [q1, q3]", "HEAD median [q1, q3]",
        "ratio", "wins", "losses", "verdict"))
    for m in metrics:
        name, better = m["name"], m["better"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        head = [r["metrics"][name]["value"] for r in head_runs]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        bm, hm = statistics.median(base), statistics.median(head)
        worse = worse_by(bm, hm, better)
        if name.startswith("sim_"):
            verdict = (model_change(bm, hm, m) if base != head
                       else "identical")
        elif losses >= MIN_LOSSES and worse > MAX_WORSE:
            verdict = "FAIL"
            failures.append(
                "%s %s: HEAD worse in %d of %d pairs, median %+.1f%% worse" %
                (workload, name, losses, len(base), 100.0 * worse))
        else:
            verdict = "ok"
        print("  %-27s %-6s %-29s %-29s %6.3f %4d %6d  %s" % (
            name, better, spread(base), spread(head),
            hm / bm if bm else float("nan"), wins, losses, verdict))
    failed = [sum(r["failed"] for r in runs) for runs in (base_runs, head_runs)]
    attempted = [sum(r["attempted"] for r in runs)
                 for runs in (base_runs, head_runs)]
    print("  failed repetitions: BASE %d of %d, HEAD %d of %d" % (
        failed[0], attempted[0], failed[1], attempted[1]))
    if failed[1] * attempted[0] > failed[0] * attempted[1]:
        failures.append("%s: HEAD failed %d of %d repetitions, BASE %d of %d"
                        % (workload, failed[1], attempted[1], failed[0],
                           attempted[0]))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent")
    parser.add_argument("head", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    try:
        base_commit, _ = commit_seed(args.base)
        head_commit, seed = commit_seed(args.head)
        bench = json.loads((args.head / "BENCHMARK.json").read_text())
    except (RunError, OSError, ValueError) as e:
        print("perf_ab: %s" % e, file=sys.stderr)
        return 2
    print("perf_ab: BASE %s (%s) vs HEAD %s (%s)" % (
        args.base, base_commit[:12], args.head, head_commit[:12]))
    print("perf_ab: seed %d, %d alternating pairs of %g s runs per workload"
          % (seed, PAIRS, SECONDS))
    failures = []
    for w in bench["workloads"]:
        workload = w["name"]
        runs = {"base": [], "head": []}
        try:
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    print("perf_ab: %s pair %d/%d %s" % (
                        workload, i + 1, PAIRS, side), file=sys.stderr)
                    runs[side].append(run_bench(getattr(args, side), workload,
                                                seed))
        except RunError as e:
            print("perf_ab: %s" % e, file=sys.stderr)
            return 2
        failures += compare(workload, bench["end_to_end"], runs["base"],
                            runs["head"])
    for f in failures:
        print("perf_ab: FAIL %s" % f)
    print("perf_ab: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
