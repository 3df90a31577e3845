#!/usr/bin/env python3
"""Builds and runs the kalmancast benchmark (see kcbench/README.md).

Run from the repository root:

  python3 kcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 kcbench/run.py --workload all [--seed N] [--seconds S]
  python3 kcbench/run.py --check-seed   # count metrics follow the seed
  python3 kcbench/run.py --self-test    # unit tests of the stats helpers

A single-workload run prints the binary's progress lines and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
The benchmark is configured and built (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/kcbench, or .bench_build/kcbench when that is unset.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["pooled_quiet", "sensor_queries", "split_loopback"]
# Metrics that are exact for a seed (fleet workloads also containment).
COUNT_METRICS = ["msgs_per_source_tick", "bytes_per_source_tick"]
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "kcbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/; run from a full checkout")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", out, "--target", target, "-j2"]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the parsed result object, or None."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("%s exited with %d" % (workload, proc.returncode))
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("%s printed no result line" % workload)
        return None
    if trace and workload != "split_loopback":
        try:
            with open(trace_out) as f:
                events = json.load(f)["traceEvents"]
            print("kcbench: Chrome trace %s (%d events)" %
                  (os.path.relpath(trace_out, ROOT), len(events)))
        except (OSError, ValueError, KeyError) as e:
            print("kcbench: check failed: trace file %s: %s" % (trace_out, e),
                  file=sys.stderr)
            result["correct"] = False
    return result


def print_table(workload, result):
    print("%s: correct=%s attempted=%d failed=%d" %
          (workload, result["correct"], result["attempted"],
           result["failed"]))
    for name, m in result["metrics"].items():
        print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))


def check_seed(binary, seconds):
    """Count metrics repeat exactly for one seed and differ for another."""
    ok = True
    for workload in WORKLOADS:
        a1, a2, b = (run_once(binary, workload, s, seconds, False, echo=False)
                     for s in (11, 11, 12))
        if None in (a1, a2, b):
            return False
        names = list(COUNT_METRICS)
        if workload != "split_loopback":
            names.append("containment_ratio")
        for name in names:
            v1, v2, v3 = (r["metrics"][name]["value"] for r in (a1, a2, b))
            same = v1 == v2
            differs = v1 != v3 or name == "containment_ratio"
            print("%s %s: seed 11 -> %r, %r; seed 12 -> %r: %s" %
                  (workload, name, v1, v2, v3,
                   "ok" if same and differs else "FAIL"))
            ok = ok and same and differs
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check-seed", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        test = build("kcbench_stats_test")
        sys.exit(subprocess.run([test]).returncode)
    binary = build("kcbench")
    if args.check_seed:
        sys.exit(0 if check_seed(binary, 3.0) else 1)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            result = run_once(binary, workload, args.seed, args.seconds,
                              args.trace == 1)
            if result is None:
                sys.exit(1)
            results[workload] = result
        for workload, result in results.items():
            print_table(workload, result)
        sys.exit(0)
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
