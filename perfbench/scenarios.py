"""The three workloads of the host-cost benchmark.

Each workload is a sequence of *rounds*.  A round is one fixed set of
operations, so rounds can be repeated until the timed section ends:

* ``apache-web``: one repetition of exhibit fig06 (quick profile,
  serial): light and heavy load, the asymmetry-aware kernel and
  fine-grained threading over the nine configurations -- 36 runs.
* ``omp-storm``: one repetition of exhibit fig13 (quick profile,
  serial): five loop schedules, clean and under throttle storms, over
  the nine configurations -- 90 runs.
* ``service-sweeps``: 30 requests from one client, closed loop, to an
  in-process scenario server (2-worker pool, disk cache): one new
  sweep, the same sweep extended by a run, 28 that re-ask one of the
  last :attr:`ServiceSweeps.WINDOW` sweeps.  Untimed warm-up sweeps
  fill that window first, so every timed round meets the same working
  set.

The seed picks the simulation seeds -- the exhibit workloads cycle
through :data:`SEEDS_PER_RUN` of them, one per round -- and, for the
service, the request stream; the same seed gives the same rounds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
from repro.experiments import parallel
from repro.experiments.figures import (
    fig06_apache,
    fig13_omp_scheduling,
)
from repro.experiments.profiles import QUICK
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.histogram import LatencyHistogram
from repro.metrics import RunMetrics
from repro.service.cache import (
    DiskResultCache,
    canonical_result_json,
    result_from_payload,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.pool import ShardedPoolExecutor
from repro.service.registry import build_workload
from repro.service.server import ScenarioServer
from repro.workloads.specomp import OMP_SCHEDULES
from repro.workloads.specomp.specs import spec_for

#: The quick profile, one repetition per round (the exhibits repeat
#: their sweeps ``QUICK.runs`` times; a round is one of them).
PROFILE = dataclasses.replace(QUICK, runs=1)

#: Worker processes of the service's pool.
JOBS = 2


@dataclasses.dataclass
class Round:
    """What one round did and how long its operations took."""

    wall: float
    #: Host seconds of each operation (a run, a sweep or a request).
    latencies: List[float]
    #: Simulation tasks answered (simulated or served from a cache).
    tasks: int
    #: Operations attempted and failed (runs, or service requests).
    attempted: int
    failed: int = 0


#: Simulation base seeds a run cycles through, one per round: a
#: throttle storm's or a light-load run's cost depends on its seed, and
#: cycling averages that over several seeds in every run.
SEEDS_PER_RUN = 4


def base_seeds(seed: int) -> List[int]:
    """Simulation base seeds of a benchmark seed, in round order."""
    rng = random.Random(seed)
    return [rng.randrange(1, 1_000_000) for _ in range(SEEDS_PER_RUN)]


def run_counts(items) -> Dict[str, float]:
    """Per-layer work counts summed over runs' :class:`RunMetrics`."""
    counts = dict.fromkeys(COUNT_NAMES, 0.0)
    for metrics in items:
        counters = metrics.counters
        counts["kernel.dispatches"] += sum(core.dispatches
                                           for core in metrics.cores)
        counts["kernel.context_switches"] += metrics.context_switches
        counts["kernel.migrations"] += metrics.migrations
        counts["kernel.coalesce_macros_armed"] += (
            counters.get("coalesce.macros_armed", 0.0)
            + counters.get("coalesce.rotation_macros_armed", 0.0))
        counts["runtime.omp_chunks_dispatched"] += counters.get(
            "omp.chunks_dispatched", 0.0)
        counts["runtime.omp_steals"] += sum(
            value for name, value in counters.items()
            if name.startswith("omp.steals."))
        counts["runtime.gc_collections"] += counters.get(
            "gc.collections", 0.0)
        counts["faults.events"] += sum(
            counters.get(f"faults.{name}", 0.0)
            for name in ("throttle", "recovery", "stall", "offline",
                         "online"))
    return counts


COUNT_NAMES = ("kernel.dispatches", "kernel.context_switches",
               "kernel.migrations", "kernel.coalesce_macros_armed",
               "runtime.omp_chunks_dispatched", "runtime.omp_steals",
               "runtime.gc_collections", "faults.events")


class Scenario:
    """One workload: set-up, rounds, per-layer counts and checks."""

    name = ""
    #: Worker processes the workload runs simulations on (0: in-process).
    jobs = 0
    #: Rounds every run completes, however short its timed section.
    min_rounds = 1
    #: Rounds the per-layer work counts cover (from the first traced).
    counted_rounds = 1
    #: True when every round repeats the same operations in order.
    repeats_operations = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.failures: List[str] = []
        self.seeds = base_seeds(seed)
        self.rounds_done = 0

    def next_base_seed(self) -> int:
        """Simulation base seed of the next round (cycling)."""
        seed = self.seeds[self.rounds_done % SEEDS_PER_RUN]
        self.rounds_done += 1
        return seed

    def start(self) -> None:
        """Set-up that precedes the first simulation."""

    def warm(self) -> None:
        """Untimed work between set-up and the first round."""

    def close(self) -> None:
        """Release what :meth:`start` acquired."""

    def run_round(self, counting: bool) -> Round:
        raise NotImplementedError

    def snapshot(self) -> None:
        """Called right after the last counted round."""

    def counts(self) -> Dict[str, float]:
        """Work counts of the counted rounds."""
        raise NotImplementedError

    def service_values(self, rounds: int) -> Dict[str, float]:
        """The ``service.*`` per-layer metrics (none without a server)."""
        return {}

    def check(self) -> List[str]:
        """Output checks after the timed section."""
        return list(self.failures)


class _TimedExecute:
    """Times every in-process simulation while installed.

    Replaces :func:`repro.experiments.parallel.execute_task`, which the
    serial backend calls once per run.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self._original = parallel.execute_task

    def __call__(self, task):
        start = time.perf_counter()
        result = self._original(task)
        self.latencies.append(time.perf_counter() - start)
        return result

    def __enter__(self) -> "_TimedExecute":
        parallel.execute_task = self
        return self

    def __exit__(self, *exc_info) -> None:
        parallel.execute_task = self._original


class ExhibitScenario(Scenario):
    """One repetition of a serial exhibit per round."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.first: Optional[Dict] = None
        #: The first round that repeats the first one's seed.
        self.repeat: Optional[Dict] = None
        self.counted: Optional[Dict] = None

    def exhibit(self, base_seed: int) -> Dict:
        raise NotImplementedError

    def results(self, data: Dict):
        """Every RunResult of one round's exhibit data."""
        raise NotImplementedError

    def run_round(self, counting: bool) -> Round:
        index = self.rounds_done
        seed = self.next_base_seed()
        start = time.perf_counter()
        with _TimedExecute() as timed:
            try:
                data = self.exhibit(seed)
            except AssertionError as exc:
                # The exhibit's own acceptance bar is an output check.
                self.failures.append(f"{self.name}: {exc}")
                data = None
        wall = time.perf_counter() - start
        if data is not None:
            if index == 0:
                self.first = data
            elif index == SEEDS_PER_RUN:
                self.repeat = data
            if counting and self.counted is None:
                self.counted = data
        runs = len(timed.latencies)
        return Round(wall=wall, latencies=timed.latencies, tasks=runs,
                     attempted=runs, failed=0 if data is not None else runs)

    def counts(self) -> Dict[str, float]:
        return run_counts(result.run_metrics
                          for result in self.results(self.counted or {}))

    def check(self) -> List[str]:
        failures = list(self.failures)
        if self.first is None:
            return failures + [f"{self.name}: no round completed"]
        for result in self.results(self.first):
            failures += checks.conservation(result.run_metrics)
        if self.repeat is not None:
            # Same inputs, same outputs: a round with the first round's
            # seed repeats it byte for byte.
            failures += checks.identical(
                (f"{self.name} repeat of {a.workload} on {a.config} "
                 f"seed {a.seed}", canonical_result_json(a),
                 canonical_result_json(b))
                for a, b in zip(self.results(self.first),
                                self.results(self.repeat)))
        return failures + self.check_exhibit(self.first)

    def check_exhibit(self, data: Dict) -> List[str]:
        return []


class ApacheWeb(ExhibitScenario):
    """fig06: web serving, where kernel dispatch and placement dominate."""

    name = "apache-web"

    def exhibit(self, base_seed: int) -> Dict:
        return fig06_apache.run(PROFILE, base_seed=base_seed)

    def results(self, data: Dict):
        for sweep in data.values():
            for runs in sweep.results.values():
                yield from runs

    def check_exhibit(self, data: Dict) -> List[str]:
        return checks.apache_heavy(data["heavy"].means())


class OmpStorm(ExhibitScenario):
    """fig13: OpenMP loop schedules, clean and under throttle storms."""

    name = "omp-storm"

    def exhibit(self, base_seed: int) -> Dict:
        return fig13_omp_scheduling.run(PROFILE, base_seed=base_seed,
                                        runs=1)

    def results(self, data: Dict):
        for mode in ("clean", "storm"):
            for sweep in data.get(mode, {}).values():
                for runs in sweep.results.values():
                    yield from runs

    def check_exhibit(self, data: Dict) -> List[str]:
        spec = spec_for(data["benchmark"])
        parallel_seconds = spec.parallel_seconds
        serial_seconds = (parallel_seconds * spec.serial_fraction
                          / (1.0 - spec.serial_fraction))
        failures: List[str] = []
        for mode in ("clean", "storm"):
            for policy, sweep in data[mode].items():
                for label, runs in sweep.results.items():
                    for result in runs:
                        runtime = result.metric("runtime")
                        failures += checks.omp_work_bound(
                            runtime, label, serial_seconds,
                            parallel_seconds, stormy=mode == "storm")
                        if mode == "clean" and policy == "static":
                            failures += checks.omp_static_closed_form(
                                runtime, label, serial_seconds,
                                parallel_seconds)
        return failures


#: Service sweeps: workload name -> the parameter sets its new sweeps
#: take in turn (so the cost of a round does not depend on the seed).
SERVICE_WORKLOADS: Dict[str, tuple] = {
    "specjbb": tuple({"warehouses": warehouses, "measurement_seconds": 0.1,
                      "warmup_seconds": 0.05} for warehouses in (2, 3, 4)),
    "tpch": tuple({"queries": queries}
                  for queries in ([1, 6], [3, 14], [9, 18])),
    "lockstress": tuple({"duration": 0.05, "lock_kind": kind}
                        for kind in ("fifo", "spin", "mcs", "asym")),
    "specomp": tuple({"benchmark": "swim", "omp_schedule": schedule}
                     for schedule in OMP_SCHEDULES),
}


class ServiceSweeps(Scenario):
    """Closed-loop sweep requests against an in-process scenario server."""

    name = "service-sweeps"
    jobs = JOBS
    repeats_operations = False
    #: Fully cached requests per round, beside the new sweep and its
    #: extension.
    CACHED = 28
    #: Runs per config of a sweep once extended (it is new with 1).
    RUNS = 2
    #: Re-asks draw from the last WINDOW sweeps: 20 x 9 configs x 2 runs
    #: = 360 distinct tasks, past the cache's 256-entry memory front,
    #: so a steady share of hits is read from disk in every round.
    WINDOW = 20
    #: 15 rounds hold 420 fully cached requests.
    min_rounds = 15
    counted_rounds = 15

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        self.seed_base = self.rng.randrange(1, 10_000) * 100_000
        self.sweeps: List[Dict] = []
        #: Task identity -> digest of the first (simulated) answer.
        self.answers: Dict[tuple, str] = {}
        #: (message, payload) of the warm-up's simulated tasks.
        self.sample: List = []
        self.counted: List[RunMetrics] = []
        self.counted_stats: Optional[Dict] = None
        #: The server's stats before the first counted round.
        self.count_base: Optional[Dict] = None
        #: Host seconds spent in cache lookups and stores (server side).
        self.cache_seconds = {"lookup": 0.0, "store": 0.0}
        #: Request latencies: ran a simulation ("fresh") or did not.
        self.request_times: Dict[str, List[float]] = {"fresh": [],
                                                      "cached": []}
        self.server: Optional[ScenarioServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[ServiceClient] = None

    # -- server lifetime ----------------------------------------------
    def start(self) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-",
                                               dir=self.workdir))
        self.cache = DiskResultCache(str(self.cache_dir))
        self.cache.lookup_payload = self._timed(self.cache.lookup_payload,
                                                "lookup")
        self.cache.store_payload = self._timed(self.cache.store_payload,
                                               "store")
        self.server = ScenarioServer(
            cache=self.cache, executor=ShardedPoolExecutor(jobs=self.jobs),
            max_pending_tasks=4096)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        self.thread = threading.Thread(target=self._serve, args=(ready,),
                                       name="perfbench-server")
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("scenario server did not start")
        self.client = ServiceClient(port=self.server.port, timeout=120)
        self.client.connect()
        if not self.client.ping():
            raise RuntimeError("scenario server did not answer a ping")

    def _timed(self, method, name: str):
        def timed(*args):
            start = time.perf_counter()
            try:
                return method(*args)
            finally:
                self.cache_seconds[name] += time.perf_counter() - start
        return timed

    def _serve(self, ready: threading.Event) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        ready.set()
        self.loop.run_until_complete(self.server.serve_forever())
        self.loop.close()

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            finally:
                self.client.close()
        if self.thread is not None:
            self.thread.join(120)
            if self.thread.is_alive():
                raise RuntimeError("scenario server did not stop")
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    # -- the request stream -------------------------------------------
    def _new_sweep(self, runs: int = 1) -> Dict:
        workload = list(SERVICE_WORKLOADS)[len(self.sweeps) % 4]
        choices = SERVICE_WORKLOADS[workload]
        message = {"type": "sweep", "workload": workload,
                   "configs": list(STANDARD_CONFIG_LABELS), "runs": runs,
                   "base_seed": self.seed_base + 10 * len(self.sweeps),
                   "params": choices[len(self.sweeps) // 4 % len(choices)]}
        self.sweeps.append(message)
        return message

    def warm(self) -> None:
        """Fill the re-ask window: WINDOW sweeps, fully extended."""
        configs = len(STANDARD_CONFIG_LABELS)
        for _ in range(self.WINDOW):
            message = self._new_sweep(self.RUNS)
            response = self.client.request(dict(message))
            self._record("warm-up", message, response, 0,
                         configs * self.RUNS, sample=True)

    def _plan(self) -> List:
        """One round: (kind, message, expected hits, expected fresh).

        The new sweep is asked for with one run, then extended to
        RUNS; the re-asks pick uniformly among the last WINDOW sweeps
        (the new one included), at the run count they have when sent.
        """
        message = self._new_sweep()
        configs = len(message["configs"])
        plan = [("fresh", dict(message), 0, configs)]
        window = self.sweeps[-self.WINDOW:]
        rest = ["partial"] + ["cached"] * self.CACHED
        self.rng.shuffle(rest)
        for kind in rest:
            if kind == "partial":
                message["runs"] = self.RUNS
                plan.append((kind, dict(message), configs,
                             configs * (self.RUNS - 1)))
            else:
                chosen = self.rng.choice(window)
                plan.append((kind, dict(chosen),
                             configs * chosen["runs"], 0))
        return plan

    def _record(self, kind: str, message: Dict, response: Dict,
                hits: int, fresh: int, counting: bool = False,
                sample: bool = False) -> None:
        self.failures += checks.service_response(kind, response, hits,
                                                 fresh)
        identity = (message["workload"],
                    json.dumps(message["params"], sort_keys=True))
        new = 0
        for payload in response["results"]:
            key = identity + (payload["config"], payload["seed"])
            digest = hashlib.sha256(json.dumps(
                payload, sort_keys=True).encode()).hexdigest()
            known = self.answers.get(key)
            if known is None:
                new += 1
                self.answers[key] = digest
                if sample:
                    self.sample.append((message, payload))
                if counting:
                    self.counted.append(
                        RunMetrics.from_dict(payload["run_metrics"]))
            elif known != digest:
                self.failures.append(
                    f"service: cached answer for {key} differs from the "
                    "simulated one")
        if new != response["simulations_run"]:
            self.failures.append(
                f"service {kind} request: {new} task(s) never answered "
                f"before, but {response['simulations_run']} simulated")

    def run_round(self, counting: bool) -> Round:
        latencies: List[float] = []
        answered = []
        failed = 0
        if counting and self.count_base is None:
            # Server-side figures cover the counted rounds onwards.
            self.count_base = self.client.stats()
            self.cache_seconds = dict.fromkeys(self.cache_seconds, 0.0)
            self.request_times = {"fresh": [], "cached": []}
        plan = self._plan()
        start = time.perf_counter()
        for kind, message, hits, fresh in plan:
            sent = time.perf_counter()
            try:
                response = self.client.request(message)
            except ServiceError as exc:
                failed += 1
                self.failures.append(f"service {kind} request: {exc}")
                continue
            latencies.append(time.perf_counter() - sent)
            answered.append((kind, message, response, hits, fresh))
        wall = time.perf_counter() - start
        # The benchmark's own checks and bookkeeping, outside the round.
        tasks = 0
        for latency, (kind, message, response, hits, fresh) in zip(
                latencies, answered):
            self.request_times["cached" if kind == "cached"
                               else "fresh"].append(latency)
            tasks += response["tasks"]
            self._record(kind, message, response, hits, fresh, counting)
        self.rounds_done += 1
        return Round(wall=wall, latencies=latencies, tasks=tasks,
                     attempted=len(plan), failed=failed)

    def snapshot(self) -> None:
        self.counted_stats = self.client.stats()

    def counts(self) -> Dict[str, float]:
        return run_counts(self.counted)

    def service_values(self, rounds: int) -> Dict[str, float]:
        stats, base = self.counted_stats, self.count_base
        fresh, cached = (self.request_times["fresh"],
                         self.request_times["cached"])
        values = {
            "service.cache_hits": _since(stats, base,
                                         "service.cache.hits"),
            "service.simulations": _since(stats, base,
                                          "service.simulations_run"),
            "service.cache_lookup_s": self.cache_seconds["lookup"] / rounds,
            "service.cache_store_s": self.cache_seconds["store"] / rounds,
            "service.fresh_request_p50_s": statistics.median(fresh),
            "service.cached_request_p50_s": statistics.median(cached),
            "service.cached_request_p90_s": statistics.quantiles(
                cached, n=10, method="inclusive")[-1],
        }
        # The server's own histograms, counted rounds only: buckets a
        # factor of two wide.
        for key, name in (("queue_wait_seconds", "service.queue_wait_p50_s"),
                          ("execute_seconds", "service.execute_p50_s")):
            after, before = (LatencyHistogram.from_dict(s["latency"][key])
                             for s in (stats, base))
            values[name] = LatencyHistogram(
                buckets={index: count - before.buckets.get(index, 0)
                         for index, count in after.buckets.items()},
                zeros=after.zeros - before.zeros).quantile(0.5)
        return values

    def check(self) -> List[str]:
        failures = list(self.failures)
        if not self.sample:
            return failures + [f"{self.name}: no round completed"]
        reruns = random.Random(self.seed).sample(self.sample, 4)
        pairs = []
        for message, payload in reruns:
            workload = build_workload(message["workload"],
                                      message["params"])
            result = workload.run_once(payload["config"],
                                       seed=payload["seed"])
            pairs.append((f"service {message['workload']} on "
                          f"{payload['config']} seed {payload['seed']} "
                          "vs in-process run",
                          canonical_result_json(result),
                          canonical_result_json(
                              result_from_payload(payload))))
        failures += checks.identical(pairs)
        for _, payload in self.sample:
            failures += checks.conservation(
                RunMetrics.from_dict(payload["run_metrics"]))
        return failures


def _since(stats: Dict, before: Dict, counter: str) -> float:
    """A server counter's growth between two ``stats`` replies."""
    return (stats["counters"].get(counter, 0)
            - before["counters"].get(counter, 0))


SCENARIOS = {cls.name: cls for cls in (ApacheWeb, OmpStorm,
                                       ServiceSweeps)}


def setup_probe(name: str, seed: int) -> int:
    """Set a workload up in this fresh process, report when it is ready.

    Prints the monotonic clock (shared by all processes of the host) at
    the moment the first simulation could start, then tears down.
    """
    import os
    workdir = Path(tempfile.mkdtemp(
        prefix="probe-", dir=os.environ.get("PERFBENCH_WORK")))
    scenario = SCENARIOS[name](seed, workdir)
    try:
        scenario.start()
        print(time.monotonic(), flush=True)
    finally:
        scenario.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0
