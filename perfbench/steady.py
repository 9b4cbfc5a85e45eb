#!/usr/bin/env python3
"""Steadiness check: how much each end-to-end metric spreads between runs.

    python3 perfbench/steady.py [--runs 10] [--seed 1 | --vary-seeds]
                                [--workloads paper-cp,cross-2pc] [--seconds S]

Runs every workload --runs times through perfbench/run.py, alternating the
workload order from one pass to the next so slow drift of the machine hits
all workloads alike. By default every run uses the same seed (so only the
machine varies); --vary-seeds gives run i the seed --seed + i (so the inputs
vary too, as between the benchmark's accepted runs). For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median against the metric's bound from BENCHMARK.json,
and the drift of the second half's median from the first half's in the
metric's worse direction. A spread at or below a third of the bound is
"steady". setup_s is timed once per run from a cold process, so only its
drift is judged. Raw results go to steady-<time>.json in the build
directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source directory clean
import run  # noqa: E402  (the build directory is defined there)


def one_run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(command)}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = args.seed + i if args.vary_seeds else args.seed
        for w in order:
            r = one_run(w, seed, args.seconds)
            r["seed"] = seed
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: correct="
                  f"{r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr)

    all_ok = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, all correct={correct}, failed "
              f"share(s)={sorted(shares)}")
        all_ok &= correct and len(shares) == 1
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'drift':>7s}  verdict")
        half = len(runs) // 2
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            first = statistics.median(values[:half]) if half else med
            second = statistics.median(values[half:])
            drift = (second - first) / first
            if m["better"] == "higher":
                drift = -drift
            if name == "setup_s":
                verdict = "ok" if drift <= m["bound"] else "DRIFT"
            elif spread <= m["bound"] / 3 and drift <= m["bound"]:
                verdict = "steady"
            elif spread <= m["bound"] and drift <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "WIDE"
            all_ok &= verdict != "WIDE" and verdict != "DRIFT"
            print(f"  {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.4f} {m['bound']:6.3f} {drift:+7.4f}  {verdict}")

    out_dir = run.build_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
