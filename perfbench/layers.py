"""Per-layer attribution for the traced run.

Everything here is measured from the benchmark's side of each call into
the program; nothing inside ``src/`` is changed:

* **Self time by layer.**  cProfile runs in every thread and process
  that simulates or serves: the main thread, the scenario server's
  event-loop thread, and each pool worker (through a wrapper around the
  function the pool sends to its workers).  A thread that waits on a
  pool or a socket is timed with its own CPU clock, so the wait is
  charged to no one; threads that only compute (a serial simulation,
  a worker inside a task) use cProfile's cheaper default clock.  Each profiled function's
  self time goes to the layer that owns its source file; a function
  outside ``src/repro`` (a C builtin, the standard library) is charged
  to the layers of its callers, in proportion to the self time of each
  call edge.  The layer totals therefore sum to the profiled total.
* **Engine counts.**  The two loops that fire events,
  ``Simulator.run`` and the kernel's own ``Kernel.run``, are wrapped to
  add up the ``Simulator.events_fired`` each advanced, and
  ``Simulator.horizon`` to count its calls -- in this process and in
  every worker.
* **Host garbage collection.**  ``gc.callbacks`` time each collection
  of this process.

Work counts of the other layers are read from ``RunMetrics`` of the
runs themselves (see :func:`scenarios.run_counts`).
"""

from __future__ import annotations

import concurrent.futures
import cProfile
import gc
import json
import os
import pstats
import resource
import time
import uuid
from multiprocessing import util as _mp_util
from pathlib import Path
from typing import Dict, List, Optional

from repro.kernel import kernel as _kernel
from repro.service import pool as _service_pool
from repro.sim import engine as _engine

#: Per-layer metrics of the traced run, with their units.
LAYER_UNITS: Dict[str, str] = {
    "profile.total_s": "s",
    "profile.overhead_x": "x",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.horizon_calls": "count",
    "kernel.self_s": "s",
    "kernel.sched_self_s": "s",
    "kernel.dispatches": "count",
    "kernel.context_switches": "count",
    "kernel.migrations": "count",
    "kernel.coalesce_macros_armed": "count",
    "machine.self_s": "s",
    "runtime.self_s": "s",
    "runtime.omp_chunks_dispatched": "count",
    "runtime.omp_steals": "count",
    "runtime.gc_collections": "count",
    "faults.self_s": "s",
    "faults.events": "count",
    "workloads.self_s": "s",
    "metrics.self_s": "s",
    "trace.self_s": "s",
    "experiments.self_s": "s",
    "experiments.parent_cpu_s": "s",
    "experiments.worker_cpu_s": "s",
    "experiments.pool_busy_ratio": "ratio",
    "experiments.worker_peak_rss_mb": "MB",
    "service.self_s": "s",
    "service.cache_lookup_s": "s",
    "service.cache_store_s": "s",
    "service.cache_hits": "count",
    "service.simulations": "count",
    "service.queue_wait_p50_s": "s",
    "service.execute_p50_s": "s",
    "service.fresh_request_p50_s": "s",
    "service.cached_request_p50_s": "s",
    "service.cached_request_p90_s": "s",
    "other.self_s": "s",
    "host.gc_s": "s",
    "host.gc_collections": "1/round",
}

#: Source paths (relative to ``src/repro``) -> layer; first match wins.
_LAYERS = (
    ("sim/trace", "trace"),
    ("sim/", "sim"),
    ("kernel/scheduler.py", "kernel.sched"),
    ("kernel/asym_scheduler.py", "kernel.sched"),
    ("kernel/", "kernel"),
    ("machine/", "machine"),
    ("_system.py", "machine"),
    ("runtime/", "runtime"),
    ("faults.py", "faults"),
    ("workloads/", "workloads"),
    ("metrics.py", "metrics"),
    ("histogram.py", "metrics"),
    ("experiments/", "experiments"),
    ("service/", "service"),
)

#: Bucket -> per-layer metric name of its self time.
SELF_TIME = {layer: f"{layer}.self_s" for _, layer in _LAYERS}
SELF_TIME["kernel.sched"] = "kernel.sched_self_s"
SELF_TIME["other"] = "other.self_s"

_REPRO = (Path(_engine.__file__).resolve().parent.parent)


def layer_of(filename: str) -> Optional[str]:
    """The layer owning a profiled function's file (None: not repro)."""
    try:
        relative = Path(filename).resolve().relative_to(_REPRO).as_posix()
    except (ValueError, OSError):
        return None
    for prefix, layer in _LAYERS:
        if relative.startswith(prefix):
            return layer
    return "other"


def self_times(stats: pstats.Stats) -> Dict[str, float]:
    """Profiled self time per layer; the values sum to the total."""
    totals = dict.fromkeys(SELF_TIME, 0.0)
    layers: Dict[str, Optional[str]] = {}

    def owner(func) -> Optional[str]:
        if func not in layers:
            layers[func] = layer_of(func[0])
        return layers[func]

    for func, (_, _, self_time, _, callers) in stats.stats.items():
        layer = owner(func)
        if layer is not None:
            totals[layer] += self_time
            continue
        edges = {caller: edge[2] for caller, edge in callers.items()}
        weight = sum(edges.values())
        if weight <= 0.0:
            totals["other"] += self_time
            continue
        for caller, edge_time in edges.items():
            totals[owner(caller) or "other"] += \
                self_time * edge_time / weight
    return totals


# ----------------------------------------------------------------------
# Engine counts, in this process and in workers
# ----------------------------------------------------------------------
#: Running engine counts of this process (reset in each worker).
COUNTS = {"sim.events": 0, "sim.horizon_calls": 0}
#: Directory workers write their profiles and counts to, and the pid
#: of the traced process; set before the first worker forks, so every
#: worker inherits them.
TRACE_DIR: Optional[str] = None
PARENT_PID: Optional[int] = None

_ORIGINAL_RUN = _engine.Simulator.run
_ORIGINAL_KERNEL_RUN = _kernel.Kernel.run
_ORIGINAL_HORIZON = _engine.Simulator.horizon
_ORIGINAL_EXECUTE_SHARD = _service_pool.execute_shard


def _counted_run(self, *args, **kwargs):
    before = self.events_fired
    try:
        return _ORIGINAL_RUN(self, *args, **kwargs)
    finally:
        COUNTS["sim.events"] += self.events_fired - before


def _counted_kernel_run(self, *args, **kwargs):
    before = self.sim.events_fired
    try:
        return _ORIGINAL_KERNEL_RUN(self, *args, **kwargs)
    finally:
        COUNTS["sim.events"] += self.sim.events_fired - before


def _counted_horizon(self, *args, **kwargs):
    COUNTS["sim.horizon_calls"] += 1
    return _ORIGINAL_HORIZON(self, *args, **kwargs)


def _count_engine(on: bool) -> None:
    """Install (or remove) the engine-count wrappers in this process."""
    _engine.Simulator.run = _counted_run if on else _ORIGINAL_RUN
    _kernel.Kernel.run = _counted_kernel_run if on \
        else _ORIGINAL_KERNEL_RUN
    _engine.Simulator.horizon = _counted_horizon if on \
        else _ORIGINAL_HORIZON


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class _WorkerTrace:
    """Profile and counts of one pool worker process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        name = f"{self.pid}-{uuid.uuid4().hex[:8]}"
        self.prefix = os.path.join(TRACE_DIR, name)
        self.profile = cProfile.Profile()
        for key in COUNTS:
            COUNTS[key] = 0
        # CPU the worker spent before tracing began (on untraced work
        # such as the service's warm-up) is not the traced rounds'.
        self.cpu_base = _cpu_seconds(resource.getrusage(
            resource.RUSAGE_SELF))
        # A worker forked before tracing began has the plain engine.
        _count_engine(True)
        # Pool workers leave through multiprocessing's exit hook, which
        # runs these finalizers; the profile is complete only then.
        _mp_util.Finalize(None, self.profile.dump_stats,
                          args=(self.prefix + ".prof",), exitpriority=10)

    def call(self, function, argument):
        self.profile.enable()
        try:
            return function(argument)
        finally:
            self.profile.disable()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            record = dict(COUNTS,
                          cpu_s=_cpu_seconds(usage) - self.cpu_base,
                          peak_rss_mb=usage.ru_maxrss / 1024.0)
            tmp = self.prefix + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(record, handle)
            os.replace(tmp, self.prefix + ".json")


_WORKER: Optional[_WorkerTrace] = None


def _in_worker(function, argument):
    global _WORKER
    if os.getpid() == PARENT_PID:
        return function(argument)
    if _WORKER is None or _WORKER.pid != os.getpid():
        _WORKER = _WorkerTrace()
    return _WORKER.call(function, argument)


def traced_execute_shard(payload):
    """Pool-worker entry of the service's executor under the tracer."""
    return _in_worker(_ORIGINAL_EXECUTE_SHARD, payload)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Installs the measurements above and reads them back.

    Create it before the workload's first worker process starts; call
    :meth:`start` when the traced rounds begin, :meth:`stop` when they
    end (before the workload shuts its server down), and
    :meth:`worker_totals` / :meth:`self_times` after the workers exit.
    """

    def __init__(self, workdir: Path, waits: bool) -> None:
        global TRACE_DIR, PARENT_PID
        self.directory = workdir / "trace"
        self.directory.mkdir()
        TRACE_DIR = str(self.directory)
        PARENT_PID = os.getpid()
        #: ``waits``: the main thread blocks on workers or a server.
        self.main = (cProfile.Profile(time.thread_time) if waits
                     else cProfile.Profile())
        self.loops: List = []
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    def _gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def start(self, loop=None) -> None:
        """Begin: patch the engine and worker entries, start profiling.

        ``loop`` is an event loop running in another thread whose work
        is profiled too (the scenario server's).
        """
        _count_engine(True)
        _service_pool.execute_shard = traced_execute_shard
        gc.callbacks.append(self._gc)
        if loop is not None:
            profile = cProfile.Profile(time.thread_time)
            self._in_loop(loop, profile.enable)
            self.loops.append((loop, profile))
        self.main.enable()

    def stop(self) -> None:
        self.main.disable()
        for loop, profile in self.loops:
            self._in_loop(loop, profile.disable)
        gc.callbacks.remove(self._gc)
        _count_engine(False)
        _service_pool.execute_shard = _ORIGINAL_EXECUTE_SHARD

    @staticmethod
    def _in_loop(loop, function) -> None:
        done: concurrent.futures.Future = concurrent.futures.Future()

        def call() -> None:
            function()
            done.set_result(None)

        loop.call_soon_threadsafe(call)
        done.result(timeout=60)

    def worker_totals(self) -> Dict[str, float]:
        """Engine counts of this process plus every worker so far."""
        totals = dict(COUNTS, cpu_s=0.0, peak_rss_mb=0.0, workers=0)
        for path in self.directory.glob("*.json"):
            record = json.loads(path.read_text())
            totals["workers"] += 1
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"],
                                        record.pop("peak_rss_mb"))
            for key, value in record.items():
                totals[key] += value
        return totals

    def self_times(self) -> Dict[str, float]:
        """Layer self times over every profiled thread and worker."""
        stats = pstats.Stats(self.main)
        for _, profile in self.loops:
            stats.add(profile)
        for path in sorted(self.directory.glob("*.prof")):
            stats.add(str(path))
        return self_times(stats)
