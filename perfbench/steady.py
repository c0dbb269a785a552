#!/usr/bin/env python3
"""Steadiness of the benchmark: spread of every metric over repeated runs.

    python3 perfbench/steady.py --runs 10 [--seconds 30] [--first-seed 1]
        [--workloads apache-web,omp-storm] [--trace 0|1]

Runs ``run.py`` ``--runs`` times per workload (default: those in
``BENCHMARK.json``), seed ``first-seed + i``
for the i-th repetition, alternating the workload order between
repetitions.  For every workload x metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the quartile spread
as a share of the median, and max/min.  With ``--trace 1`` it then runs
each workload once more with the first seed and reports whether every
count-type per-layer metric repeated exactly.

Exit code 1 if a run failed, a check failed, or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The workloads BENCHMARK.json declares.
WORKLOADS = tuple(entry["name"] for entry in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["workloads"])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=str(HERE.parent))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "max_over_min": (max(values) / min(values)
                             if min(values) else float("inf"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {name: [] for name in workloads}
    status = 0
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for name in order:
            result = run_once(name, args.first_seed + index, args.seconds,
                              args.trace)
            if not result["correct"] or result["failed"]:
                status = 1
            results[name].append(result)

    print(f"{'workload':20s} {'metric':30s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'max/min':>8s}")
    for name, runs in results.items():
        failed_share = {r["failed"] / r["attempted"] for r in runs}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                print(f"{name:20s} {metric:30s} {values[0]:12.6g}")
                continue
            s = spread(values)
            print(f"{name:20s} {metric:30s} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['iqr_share']:8.4f} {s['max_over_min']:8.3f}")
        print(f"{name:20s} failed share per run: {sorted(failed_share)}")

    if args.trace:
        for name in workloads:
            again = run_once(name, args.first_seed, args.seconds, 1)
            first = results[name][0]
            for metric, entry in first["metrics"].items():
                if entry["unit"] != "count":
                    continue
                repeat = again["metrics"][metric]["value"]
                same = repeat == entry["value"]
                status = status if same else 1
                print(f"{name:20s} count {metric:30s} "
                      f"{entry['value']:>14g} {repeat:>14g} "
                      f"{'repeats' if same else 'DIFFERS'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
