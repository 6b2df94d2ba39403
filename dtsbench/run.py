#!/usr/bin/env python3
"""dtsbench entry point: builds the benchmark driver from source, runs one
workload in a fresh process and prints the result as one JSON line.

    python3 dtsbench/run.py --workload iis_mscs --seed 7 --seconds 10 --trace 0
    python3 dtsbench/run.py --self-test

Run from the repository root. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics (see dtsbench/README.md). Everything the
benchmark builds or writes stays under .bench_build/ in the repository root.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--self-test runs every workload in both modes on a small fault cap and checks
that the digest check passes, that every metric named in BENCHMARK.json is
emitted, and that model.explained_share is computed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dtsbench")
BINARY = os.path.join(BUILD_DIR, "dtsbench")
RUN_TIMEOUT_S = 170
SELF_TEST_FAULT_CAP = 24


def log(msg):
    print(f"[dtsbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; cmake output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"DTS sources not found under {ROOT}/src; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_rev():
    # Stop git at the checkout root so an enclosing repository is never read.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_driver(workload, mode, seed, seconds, fault_cap, echo=True):
    """Runs the driver for one workload in its own process. Returns the parsed
    result object, or None when the driver failed or printed no result."""
    scratch = os.path.join(ROOT, ".bench_build", f"dtsbench-scratch-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--mode", mode, "--seed", str(seed),
           "--seconds", str(seconds), "--fault-cap", str(fault_cap),
           "--scratch", scratch, "--git-rev", git_rev()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} ({mode}) exceeded {RUN_TIMEOUT_S}s")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        log(f"{workload} ({mode}) exited with code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload} ({mode}) printed no result line")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload} ({mode}) result has unexpected keys {sorted(result)}")
        return None
    return result


def workloads():
    out = subprocess.run([BINARY, "--list"], capture_output=True, text=True, check=True)
    return out.stdout.split()


def self_test():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "traced": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads():
        for mode in ("e2e", "traced"):
            label = f"{workload} ({mode})"
            known = len(problems)
            result = run_driver(workload, mode, 7, 1, SELF_TEST_FAULT_CAP, echo=False)
            if result is None:
                problems.append(f"{label}: no result")
                print(f"self-test {label}: FAIL", flush=True)
                continue
            metrics = result["metrics"]
            emitted = {name: m["unit"] for name, m in metrics.items()}
            if not result["correct"]:
                problems.append(f"{label}: digest check failed")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            if emitted != expected[mode]:
                problems.append(f"{label}: metrics {sorted(emitted.items())} != "
                                f"BENCHMARK.json {sorted(expected[mode].items())}")
            if mode == "traced":
                share = metrics.get("model.explained_share", {}).get("value")
                if not isinstance(share, (int, float)) or not math.isfinite(share) or share <= 0:
                    problems.append(f"{label}: model.explained_share not computed ({share})")
            verdict = "ok" if len(problems) == known else "FAIL"
            print(f"self-test {label}: {verdict} ({result['attempted']} faults)", flush=True)
    for p in problems:
        print(f"FAIL: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    # A terminated benchmark raises SystemExit inside subprocess.run, which
    # then kills and reaps the driver process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    if not build():
        return 1
    if args.self_test:
        return self_test()
    result = run_driver(args.workload, "traced" if args.trace else "e2e", args.seed,
                        args.seconds, 0)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
