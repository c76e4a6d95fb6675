#!/usr/bin/env python3
"""Two-clock benchmark: builds the benchmark binary, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark binary is compiled from the simulator sources with CMake into
.bench_build/perfbench under the checkout root (build output goes to stderr).
The run's standard output ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}. The exit code is the binary's: 0 when every output
oracle and simulator-only guard passed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))

DEFAULT_SEED = 1  # README.md records the held-out seed too.

# Metrics on the deterministic virtual clock: identical for every host
# thread count (the self-test checks it).
VIRTUAL_END_TO_END = ("virt_p50_cycles", "virt_p99_cycles",
                      "virt_ops_per_kcycle", "energy_pj_per_op", "ok_share")
VIRTUAL_PER_LAYER = (
    "core.partial_products_per_mul", "serve.batch_wait_p50_cycles",
    "serve.batch_wait_p99_cycles", "serve.queue_wait_p50_cycles",
    "serve.queue_wait_p99_cycles", "serve.service_p50_cycles",
    "serve.service_p99_cycles", "serve.lane_occupancy", "serve.mean_batch_ops",
    "serve.escalated_share", "serve.max_queue_depth", "serve.jain_fairness",
    "cluster.cross_shard_share", "cluster.interconnect_cycles_per_req",
    "cluster.migrations", "cluster.chip_jain", "analytics.waves",
    "analytics.ops_per_wave", "quality.approx_rel_err")


def build():
    """Configure once, then build incrementally; fail without a result."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no simulator sources at %s" % ROOT)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def run_binary(args):
    """Run the benchmark binary; return (exit code, stdout text)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def self_test():
    """Small-size runs of every workload in both modes and at two host
    thread counts: every named metric is emitted, finite and carries its
    unit, the run is correct, and virtual-clock metrics do not depend on
    the host thread count."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    virtual = {0: VIRTUAL_END_TO_END, 1: VIRTUAL_PER_LAYER}
    threads = sorted({1, os.cpu_count() or 1})
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            seen = {}
            for n in threads:
                code, out = run_binary(
                    ["--workload", workload, "--seed", str(DEFAULT_SEED),
                     "--seconds", "1", "--trace", str(trace),
                     "--threads", str(n), "--small"])
                where = "%s trace=%d threads=%d" % (workload, trace, n)
                try:
                    result = json.loads(out.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    problems.append(where + ": no JSON result line")
                    continue
                if code != 0 or result.get("correct") is not True:
                    problems.append("%s: run not correct (exit %d)" %
                                    (where, code))
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append(where + ": wrong result keys")
                if not result.get("attempted", 0) >= 1:
                    problems.append(where + ": attempted < 1")
                metrics = result.get("metrics", {})
                if sorted(metrics) != sorted(want[trace]):
                    problems.append(where + ": metric names differ from "
                                    "BENCHMARK.json: %s" %
                                    sorted(set(metrics) ^ set(want[trace])))
                for name, m in metrics.items():
                    if not isinstance(m.get("value"), (int, float)) or \
                            not math.isfinite(m["value"]):
                        problems.append(where + ": %s is not finite" % name)
                    if m.get("unit") != want[trace].get(name):
                        problems.append(where + ": %s has unit %r" %
                                        (name, m.get("unit")))
                seen[n] = metrics
            if len(seen) == 2:
                a, b = seen.values()
                for name in virtual[trace]:
                    if name in a and a[name] != b.get(name):
                        problems.append(
                            "%s trace=%d: %s differs across host thread "
                            "counts" % (workload, trace, name))
            print("self-test %s trace=%d: done" % (workload, trace))
    for p in problems:
        print("FAIL: " + p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_binary(["--workload", args.workload, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
