"""Run one workload: set-up probes, timed rounds, checks, metrics.

End-to-end metrics (``--trace 0``).  Every time is *host-normalized*:
the host's speed drifts by tens of percent within minutes when other
jobs share its cores, so each measurement is paired with a reference
task -- frozen code outside the program -- timed right beside it:

* rounds: a calibration loop (the seed engine of :mod:`seed_engine`
  running :data:`CALIBRATION_EVENTS` events) runs before the first
  round and then between rounds once :data:`CALIBRATION_INTERVAL_S`
  seconds have passed since the last; each round's raw times are
  scaled by ``CALIBRATION_REFERENCE_S`` over the mean of the two
  calibrations around it;
* set-up: a fresh interpreter importing :data:`REFERENCE_IMPORTS` from
  the standard library is started right before each set-up probe, and
  the probe is scaled by ``REFERENCE_PROCESS_S`` over its time.  Set-up
  is mostly process start and imports, which the calibration loop does
  not track: over eight groups of probes a minute apart, the medians
  spread 27% raw and 35% calibration-scaled (seven probes a group,
  compiling from source), and 21% raw and 8.0% reference-process-scaled
  (nine a group, from cached byte code).

A time therefore reads as seconds on a host where the reference tasks
take their reference times; a change to the program moves it in full,
a change in the host's speed mostly cancels out.

* ``wall_s`` -- host seconds of one round, median over the run's rounds;
* ``tasks_per_s`` -- simulation tasks answered (simulated or served from
  a cache) per host second of the timed section;
* ``op_p50_ms`` -- host latency of one operation: a simulation run
  (serial exhibits) or a request (service);
  median over the run (see :func:`operation_latencies`).  No tail
  percentile: ``apache-web`` has 36 distinct operations, too few for
  one, and the service's cached-request tail is the per-layer
  ``service.cached_request_p90_s``;
* ``setup_s`` -- a fresh process's start, imports and workload set-up
  (server start for the service), up to where the first simulation
  would begin; median of :data:`SETUP_PROBES` fresh processes.  Warm-up
  work a scenario does after that (the service's first sweeps) is
  neither set-up nor timed;
* ``peak_rss_mb`` -- peak resident memory of the workload process
  through set-up, warm-up and one untimed round, read before the first
  calibration.

Per-layer metrics (``--trace 1``) are described in :mod:`layers`.
Times are per round; work counts cover the scenario's counted rounds.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import layers
import scenarios
from seed_engine import SeedSimulator

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 9

#: What the set-up reference process imports: standard-library
#: modules of the kinds the program's start-up loads.
REFERENCE_IMPORTS = (
    "asyncio", "concurrent.futures", "multiprocessing", "json", "decimal",
    "email.message", "http.client", "xml.etree.ElementTree", "argparse",
    "statistics", "dataclasses", "typing", "tempfile", "hashlib", "pstats",
    "cProfile", "logging", "unittest", "fractions", "inspect", "ast",
    "difflib")

#: Seconds of the set-up reference process on the reference host.
REFERENCE_PROCESS_S = 0.15

#: Events of the calibration loop.  They are scheduled at scrambled
#: times, so the seed engine's heap holds all of them at once and
#: outgrows the CPU caches as a simulation's working set does.  A small
#: cache-resident loop tracks the host's slowdowns of the simulations
#: about half as well: normalized round times spread (quartile distance
#: over median, one run of 64 fig06 and 150 fig13 rounds) by 19.5% and
#: 16.3% with 5000 events (best of 5), by 9.2% and 8.7% with 60,000.
CALIBRATION_EVENTS = 60_000

#: Seconds of rounds after which the next calibration runs.
CALIBRATION_INTERVAL_S = 2.0

#: Calibration-loop seconds of the reference host (this 2-CPU host when
#: idle, Python 3.11: 26x the 15 ms of a 5000-event loop, best of 5).
CALIBRATION_REFERENCE_S = 0.39

E2E_UNITS: Dict[str, str] = {
    "wall_s": "s",
    "tasks_per_s": "tasks/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def operation_latencies(rounds, scales, repeated: bool) -> List[float]:
    """Normalized latency samples ``op_p50_ms`` is the median of.

    When every round repeats the same operations in the same order,
    each operation's median over the rounds is one sample, so a noise
    burst in one round cannot move an operation across the median;
    otherwise every operation of every round is a sample.
    """
    scaled = [[x * k for x in r.latencies] for r, k in zip(rounds, scales)]
    if repeated and len({len(r) for r in scaled}) == 1:
        return [statistics.median(samples) for samples in zip(*scaled)]
    return [x for r in scaled for x in r]


def calibrate() -> float:
    """Seconds of the calibration loop on this host right now.

    The cyclic collector is off while it runs, but not forced to run
    first: the program's garbage is left for its own rounds to collect.
    """
    sim = SeedSimulator()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CALIBRATION_EVENTS):
            sim.schedule(i * 7919 % CALIBRATION_EVENTS * 1e-6, _noop)
        sim.run()
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    if sim.events_fired != CALIBRATION_EVENTS:
        raise RuntimeError(f"calibration fired {sim.events_fired} events")
    return seconds


def _noop() -> None:
    pass


class Calibrator:
    """Host-speed scale of every round, from the calibrations around it.

    The loop runs in the workload's own process: run in a helper
    process, it tracked the rounds' slowdowns far worse (same-seed
    fig06 rounds differed by 18%, median over pairs, against 5% in
    process), presumably because the helper need not share the
    workload's CPU.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.at = time.monotonic()
        #: Scale of round i (filled up to the last calibration).
        self.scales: List[float] = []

    def after_round(self, rounds: int, final: bool = False) -> None:
        """Calibrate if due (or if ``final`` and rounds are unscaled)."""
        if final:
            if len(self.scales) == rounds:
                return
        elif time.monotonic() - self.at < CALIBRATION_INTERVAL_S:
            return
        now = calibrate()
        scale = 2.0 * CALIBRATION_REFERENCE_S / (self.last + now)
        self.scales += [scale] * (rounds - len(self.scales))
        self.last, self.at = now, time.monotonic()


def _spawn(arguments: List[str], env: Dict[str, str]):
    """Start a fresh interpreter, wait for it: (start time, stdout)."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable] + arguments,
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=120, check=True)
    return started, proc.stdout


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Normalized seconds from spawning a fresh process to its workload
    being set up, against a reference process started right before."""
    env = dict(os.environ, PERFBENCH_WORK=str(workdir))
    started, _ = _spawn(["-c", "import " + ", ".join(REFERENCE_IMPORTS)],
                        env)
    reference = time.monotonic() - started
    started, out = _spawn([str(Path(__file__).with_name("run.py")),
                           "--workload", name, "--seed", str(seed),
                           "--setup-probe"], env)
    return (float(out.split()[-1]) - started) * (REFERENCE_PROCESS_S
                                                 / reference)


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool,
        work_root: Path) -> Dict:
    """Run one workload and return the result object to print."""
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        return _run(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name: str, seed: int, seconds: float, trace: bool,
         workdir: Path) -> Dict:
    setup = [probe_setup(name, seed, workdir)
             for _ in range(SETUP_PROBES)]
    scenario = scenarios.SCENARIOS[name](seed, workdir)
    tracer = (layers.Tracer(workdir, waits=bool(scenario.jobs))
              if trace else None)
    calibrator = None
    scenario.start()
    try:
        scenario.warm()
        # One untimed, untraced round first: the base of the traced
        # run's overhead ratio, and the memory high-water mark before
        # the calibration loop's heap (about 6 MB) can raise it.
        baseline = scenario.run_round(counting=False)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            cpu_before = time.process_time()
            tracer.start(getattr(scenario, "loop", None))
        else:
            calibrator = Calibrator()
        rounds: List[scenarios.Round] = []
        deadline = time.monotonic() + seconds
        while (not rounds or time.monotonic() < deadline
               or len(rounds) < scenario.min_rounds):
            counting = len(rounds) < scenario.counted_rounds
            rounds.append(scenario.run_round(counting))
            if calibrator is not None:
                calibrator.after_round(len(rounds))
            if len(rounds) == scenario.counted_rounds:
                scenario.snapshot()
                engine_counts = (tracer.worker_totals()
                                 if tracer is not None else None)
        if calibrator is not None:
            calibrator.after_round(len(rounds), final=True)
        if tracer is not None:
            tracer.stop()
            parent_cpu = time.process_time() - cpu_before
    finally:
        scenario.close()
    failures = scenario.check()
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if tracer is None:
        scales = calibrator.scales
        latencies = operation_latencies(rounds, scales,
                                        scenario.repeats_operations)
        walls = [r.wall * k for r, k in zip(rounds, scales)]
        values = {
            "wall_s": statistics.median(walls),
            "tasks_per_s": sum(r.tasks for r in rounds) / sum(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {key: _metric(values[key], unit)
                             for key, unit in E2E_UNITS.items()}
    else:
        values = _layer_values(scenario, tracer, baseline, rounds,
                               engine_counts, parent_cpu)
        result["metrics"] = {key: _metric(values[key], unit)
                             for key, unit in layers.LAYER_UNITS.items()}
        _print_layers(name, values)
    return result


def _layer_values(scenario, tracer, baseline, rounds, engine_counts,
                  parent_cpu) -> Dict[str, float]:
    """Per-layer metrics of a traced run (times per round)."""
    n = len(rounds)
    traced_wall = statistics.median(r.wall for r in rounds)
    values = dict.fromkeys(layers.LAYER_UNITS, 0.0)
    for layer, seconds in tracer.self_times().items():
        values[layers.SELF_TIME[layer]] = seconds / n
    values["profile.total_s"] = sum(values[key]
                                    for key in layers.SELF_TIME.values())
    values["profile.overhead_x"] = traced_wall / baseline.wall
    counted = scenario.counted_rounds
    values["sim.events"] = engine_counts["sim.events"]
    values["sim.horizon_calls"] = engine_counts["sim.horizon_calls"]
    values["sim.events_per_s"] = (engine_counts["sim.events"]
                                  / (counted * baseline.wall))
    values.update(scenario.counts())
    workers = tracer.worker_totals()
    values["experiments.parent_cpu_s"] = parent_cpu / n
    if scenario.jobs:
        values["experiments.worker_cpu_s"] = workers["cpu_s"] / n
        values["experiments.pool_busy_ratio"] = (
            workers["cpu_s"] / (scenario.jobs * sum(r.wall for r in rounds)))
        values["experiments.worker_peak_rss_mb"] = workers["peak_rss_mb"]
    values["host.gc_s"] = tracer.gc_seconds / n
    values["host.gc_collections"] = tracer.gc_collections / n
    values.update(scenario.service_values(n))
    return values


def _print_layers(name: str, values: Dict[str, float]) -> None:
    """The per-layer table of a traced run, on standard error."""
    total = values["profile.total_s"]
    print(f"{name}: profiled {total:.3f} s per round, overhead "
          f"{values['profile.overhead_x']:.2f}x over an untraced round",
          file=sys.stderr)
    shares = sorted(((values[key], key) for key in
                     layers.SELF_TIME.values()), reverse=True)
    for seconds, key in shares:
        print(f"  {key:24s} {seconds:9.4f} s  "
              f"{100 * seconds / total if total else 0:5.1f}%",
              file=sys.stderr)
