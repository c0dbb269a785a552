#!/usr/bin/env python3
"""Seed-speedup gate of the event engine, measured on one host.

The engine must stay at least 1.2x faster than the seed commit's event
queue.  Both engines run the same loop -- schedule 5000 cancellable
events, then run them all -- in this process, alternating which goes
first, and the verdict compares the median of the per-pair time ratios
with the floor.  Nothing is divided by a time measured elsewhere, so
host speed cancels out.

    python3 perfbench/engine_gate.py

Exit code 0 when the floor is met, 1 when it is not.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sim.engine import Simulator  # noqa: E402

from seed_engine import SeedSimulator  # noqa: E402

#: The documented optimization target over the seed engine.
SPEEDUP_FLOOR = 1.2
EVENTS = 5000
#: Interleaved pairs, and best-of-N timings per engine per pair.
PAIRS = 15
REPEATS = 5


def _loop(factory) -> int:
    sim = factory()
    for i in range(EVENTS):
        sim.schedule(i * 1e-6, _noop)
    sim.run()
    return sim.events_fired


def _noop() -> None:
    pass


def best_seconds(factory, repeats: int) -> float:
    """Best-of-N time of the loop, with the cyclic collector off."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fired = _loop(factory)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        if fired != EVENTS:
            raise RuntimeError(f"{factory.__name__} fired {fired} events")
    return best


def speedups(pairs: int, repeats: int) -> list:
    """Seed time over current time, one ratio per interleaved pair."""
    ratios = []
    for index in range(pairs):
        order = ((Simulator, SeedSimulator) if index % 2 == 0
                 else (SeedSimulator, Simulator))
        times = {factory: best_seconds(factory, repeats)
                 for factory in order}
        ratios.append(times[SeedSimulator] / times[Simulator])
    return ratios


def main() -> int:
    ratios = speedups(PAIRS, REPEATS)
    median = statistics.median(ratios)
    verdict = median >= SPEEDUP_FLOOR
    print(f"event engine vs seed: median speedup {median:.2f}x over "
          f"{len(ratios)} interleaved pairs (min {min(ratios):.2f}x, "
          f"max {max(ratios):.2f}x; floor {SPEEDUP_FLOOR}x): "
          f"{'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
