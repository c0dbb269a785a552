#!/usr/bin/env python3
"""Host-cost benchmark of the reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload apache-web --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs per process; ``--workload all`` starts a fresh
process for each workload in turn and prints a table of their metrics.
The last line of standard output is always one JSON object (for
``all``: one per workload, keyed by name).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones under the
profiler.  The exit code is 0 only when every output check passed.

Nothing is written to tracked files: scratch data (the service's disk
cache, profiler dumps) lives in a temporary directory under
``.perfbench_work/`` that is removed when the run ends, Python byte
code in ``.perfbench_work/pycache/``, and ``--out`` names a file for the
result JSON when one is wanted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for every run (git-ignored); removed per run.
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("apache-web", "omp-storm", "service-sweeps")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics under the profiler")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the result JSON to this file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _prepare_imports() -> bool:
    """Put the repository's sources on the path; False if absent.

    Byte code goes to a private prefix so the ``.pyc`` files that are
    checked in next to the sources are never rewritten by a run.  It is
    written there even where the environment turns byte-code writing
    off, so every process after the first in a checkout starts from
    cached byte code and ``setup_s`` does not depend on that setting.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.pycache_prefix = str(WORK / "pycache")
    sys.dont_write_bytecode = False
    os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(SRC))
    return True


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; print their metrics side by side."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    names = sorted({metric for result in results.values()
                    for metric in result["metrics"]})
    header = f"{'metric':28s}" + "".join(f"{n:>20s}" for n in results)
    print(header)
    for metric in names:
        row = f"{metric:28s}"
        for result in results.values():
            entry = result["metrics"].get(metric)
            row += (f"{entry['value']:>14.6g} {entry['unit']:>5s}"
                    if entry else f"{'-':>20s}")
        print(row)
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _prepare_imports():
        print(f"perfbench: no repro sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        import scenarios
        return scenarios.setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    import harness
    started = time.monotonic()
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), WORK)
    line = json.dumps(result, sort_keys=True)
    if args.out is not None:
        args.out.write_text(line + "\n")
    print(f"{args.workload}: finished in "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
