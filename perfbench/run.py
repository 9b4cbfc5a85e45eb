#!/usr/bin/env python3
"""Builds the benchmark driver with optimisation and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--txns <n>]
    python3 perfbench/run.py --selftest

Run from the repository root. The driver and an optimised copy of the
library are built under $CARGO_TARGET_DIR (default .bench_build) in
perfbench/; build output goes to stderr. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(the traced run also writes its spans to traces/ in the build directory).

setup_s is the only metric this script measures itself: the wall time from
just before the driver process is started to the end of its first cluster
set-up, i.e. one cold set-up including process start.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="paper-cp, cross-2pc or outage-basic")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--txns", type=int, default=0,
                        help="transactions per round instead of the "
                             "workload's own length (for investigations; "
                             "the benchmark's runs never pass it)")
    parser.add_argument("--selftest", action="store_true",
                        help="check that the benchmark's own correctness "
                             "checks catch corrupted run outputs")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([driver, "--selftest"]).returncode

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.txns > 0:
        command += ["--txns", str(args.txns)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    started_ns = time.monotonic_ns()
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]
    if not args.trace:
        # Both clocks are CLOCK_MONOTONIC (Python's monotonic clock and the
        # driver's std::chrono::steady_clock).
        metrics["setup_s"] = {
            "value": (raw["setup_end_ns"] - started_ns) / 1e9, "unit": "s"}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
