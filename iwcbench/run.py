#!/usr/bin/env python3
"""Build and run the IWC simulator benchmark.

One run, from the root of a checkout:

    python3 iwcbench/run.py --workload table4-timing --seed 1 --seconds 20 --trace 0

builds the benchmark against the repository's library (CMake, into
.bench_build/iwcbench), runs the workload for --seconds, and prints as
its last line one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1).

Steadiness mode runs every workload in two sets of ten runs, each run
under a fresh seed, and prints the median and quartiles of every
end-to-end metric, and whether the two sets agree within the bounds in
BENCHMARK.json:

    python3 iwcbench/run.py --steady [--seed N] [--seconds S]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "iwcbench")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "iwcbench")
DAEMON = os.path.join(BUILD, "iwc", "tools", "iwc_simd")
WORKLOADS = ["table4-timing", "trace-methodology", "service"]
# Set-up is measured this many extra times per untraced run (fresh
# processes) and reported as the median together with the run's own.
SETUP_PROBES = 9
# Every run must end within 180 s of its start.
RUN_LIMIT_S = 170
# Steadiness mode: sets of runs compared, and runs per set.
SETS = 2
RUNS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_count():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("iwcbench: the repository sources are not next to the "
            "benchmark (no src/CMakeLists.txt); nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "iwcbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "iwcbench",
                  "-j", str(cpu_count())])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("iwcbench: build step failed: " + " ".join(cmd))
            return False
    return True


def invoke(args, timeout):
    """Runs the benchmark binary; returns (stdout lines, result dict)."""
    t0 = time.monotonic_ns()
    done = subprocess.run([BINARY] + args + ["t0_ns=%d" % t0], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("benchmark binary failed (exit %d)"
                           % done.returncode)
    return lines[:-1], json.loads(lines[-1])


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    args = ["workload=" + workload, "seed=%d" % seed,
            "seconds=%s" % seconds, "trace=%d" % trace,
            "work_dir=" + WORK, "daemon=" + DAEMON]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            _, probe = invoke(args + ["probe=1"], timeout=60)
            setups.append(probe["metrics"]["setup_s"]["value"])
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    lines, result = invoke(args, timeout=remaining)
    for line in lines:
        print(line)
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        print("setup_s samples: " + ", ".join("%.4f" % s for s in setups))
        setup["value"] = statistics.median(setups)
    return result, lines


def unclean_daemons(lines):
    """Daemons started and unclean daemon exits a service run printed."""
    for line in lines:
        m = re.match(r"daemons (\d+), unclean exits after shutdown (\d+)",
                     line)
        if m:
            return int(m.group(1)), int(m.group(2))
    return 0, 0


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def steady(opts):
    """Runs two sets of seeded runs and compares them against the bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = opts.seconds or spec["run_seconds"]
    ok = True
    daemons = unclean = 0
    for workload in WORKLOADS:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = opts.seed + 1000 * s + i
                result, lines = run_once(workload, seed, seconds, 0)
                runs.append(result)
                started, bad = unclean_daemons(lines)
                daemons += started
                unclean += bad
                log("%s set %d run %d/%d done" % (workload, s + 1, i + 1,
                                                  RUNS))
            sets.append(runs)
        print("== %s: %d sets of %d runs, %s s each"
              % (workload, SETS, RUNS, seconds))
        shares = set()
        for runs in sets:
            for r in runs:
                ok = ok and r["correct"]
                shares.add(r["failed"] / r["attempted"])
        print("failed share per run: %s" % sorted(shares))
        ok = ok and len(shares) == 1
        print("%-20s %5s %14s %14s %14s %8s %6s %8s"
              % ("metric", "set", "q1", "median", "q3", "spread", "bound",
                 "drift"))
        for name, m in bounds.items():
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                drift = ""
                if k > 0:
                    change = (med - medians[0]) / medians[0]
                    worse = change if m["better"] == "lower" else -change
                    drift = "%+.3f" % worse
                    ok = ok and worse <= m["bound"]
                if name != "setup_s":
                    ok = ok and spread <= m["bound"]
                flag = "" if spread <= m["bound"] / 3 else " (>bound/3)"
                print("%-20s %5d %14.6g %14.6g %14.6g %8.4f %6.2f %8s%s"
                      % (name, k + 1, q1, med, q3, spread, m["bound"],
                         drift, flag))
    # Not a steadiness failure, but a program fault no result line can
    # carry as a steady share of the operations (see iwcbench/README.md).
    print("program faults: %d of %d iwc_simd daemons exited uncleanly after "
          "a graceful shutdown" % (unclean, daemons))
    print("steadiness: " + ("within bounds" if ok else "NOT within bounds"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true",
                        help="steadiness mode (see module docstring)")
    opts = parser.parse_args()
    if not opts.steady and (opts.workload is None or opts.seconds <= 0):
        parser.error("--workload and --seconds are required")
    if not build():
        return 1
    try:
        if opts.steady:
            return steady(opts)
        result, _ = run_once(opts.workload, opts.seed, opts.seconds,
                             opts.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as e:
        log("iwcbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
