"""Output checks: properties every correct run of the method must have.

Each function returns a list of failure messages (empty = passed).  The
expected values are derived from the model's definition -- compute
power parsed from the configuration label, work from the SPEC OMP loop
specs, serial re-runs of the same task -- never from stored copies of
an earlier run's output.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Mapping, Tuple

_LABEL_RE = re.compile(r"^(\d+)f-(\d+)s(?:/(\d+))?$")

#: Relative slack of float bookkeeping identities.
CONSERVATION_RTOL = 1e-6
#: Heavy-load Apache: throughput per unit compute power may deviate
#: from the median over the nine configs by at most this share.  The
#: requests still in flight at the edges of the measurement window are
#: not counted, which weighs most where few requests complete: over 20
#: seeds the worst deviation was 1.06% (1f-3s/8), 0.87% on 0f-4s/8 and
#: at most 0.31% on the configs with two or more fast cores.
APACHE_POWER_TOLERANCE = 0.02
#: Clean ``static`` makespan vs the closed-form straggler time.
STATIC_CLOSED_FORM_TOLERANCE = 1e-4
#: Float slack on "never faster than the bound" comparisons.
BOUND_SLACK = 1e-9


def duties(label: str) -> List[float]:
    """Per-core duty cycles of a configuration label such as ``2f-2s/8``.

    ``f`` cores run at full speed; ``s`` cores at ``1/N`` of it.
    """
    match = _LABEL_RE.match(label)
    if match is None:
        raise ValueError(f"not a configuration label: {label!r}")
    fast, slow, divisor = match.groups()
    slow_duty = 1.0 / int(divisor) if divisor else 1.0
    return [1.0] * int(fast) + [slow_duty] * int(slow)


def compute_power(label: str) -> float:
    """Total compute power in full-speed cores (sum of duty cycles)."""
    return sum(duties(label))


def conservation(run_metrics) -> List[str]:
    """Cycle and time books of one run, recomputed from the raw fields.

    Per core, busy + idle seconds equal the run duration; per speed
    class, the cores' busy cycles equal both the recorded class total
    and the sum of the per-thread cycle splits.
    """
    failures: List[str] = []
    duration = run_metrics.duration
    slack = CONSERVATION_RTOL * max(duration, 1.0)
    by_class: Dict[str, float] = {}
    for core in run_metrics.cores:
        accounted = core.busy_seconds + core.idle_seconds
        if abs(accounted - duration) > slack:
            failures.append(
                f"{run_metrics.config}: core {core.index} busy+idle "
                f"{accounted!r} != duration {duration!r}")
        by_class[core.speed_class] = (by_class.get(core.speed_class, 0.0)
                                      + core.busy_cycles)
    by_threads: Dict[str, float] = {}
    for split in run_metrics.thread_class_cycles.values():
        for speed_class, cycles in split.items():
            by_threads[speed_class] = (by_threads.get(speed_class, 0.0)
                                       + cycles)
    for speed_class in set(by_class) | set(run_metrics.class_busy_cycles) \
            | set(by_threads):
        cores = by_class.get(speed_class, 0.0)
        recorded = run_metrics.class_busy_cycles.get(speed_class, 0.0)
        threads = by_threads.get(speed_class, 0.0)
        cycle_slack = CONSERVATION_RTOL * max(cores, 1.0)
        if abs(cores - recorded) > cycle_slack \
                or abs(cores - threads) > cycle_slack:
            failures.append(
                f"{run_metrics.config}: {speed_class} cycles: cores "
                f"{cores!r}, class total {recorded!r}, threads "
                f"{threads!r}")
    return failures


def apache_heavy(throughput: Mapping[str, float]) -> List[str]:
    """Heavy-load throughput is proportional to total compute power.

    Every core is always busy, so requests served per unit of compute
    power (duty-cycle sum) must agree across all configurations.
    """
    per_power = {label: value / compute_power(label)
                 for label, value in throughput.items()}
    median = statistics.median(per_power.values())
    return [f"apache heavy {label}: {value:.2f} req/s per full-speed "
            f"core, {100 * (value / median - 1):+.2f}% off the median "
            f"{median:.2f} (tolerance {100 * APACHE_POWER_TOLERANCE}%)"
            for label, value in per_power.items()
            if abs(value / median - 1.0) > APACHE_POWER_TOLERANCE]


def omp_work_bound(runtime: float, label: str, serial_seconds: float,
                   parallel_seconds: float, stormy: bool) -> List[str]:
    """A loop program cannot finish faster than its work allows.

    Bound: the serial part on a full-speed core plus the parallel part
    spread over the total compute power.  Throttle storms only slow
    cores down, so under storms every core is taken at full speed.
    """
    power = len(duties(label)) if stormy else compute_power(label)
    bound = serial_seconds + parallel_seconds / power
    if runtime < bound * (1.0 - BOUND_SLACK):
        return [f"OMP makespan {runtime!r} s on {label} "
                f"({'storm' if stormy else 'clean'}) is below the work "
                f"bound {bound!r} s"]
    return []


def omp_static_closed_form(runtime: float, label: str,
                           serial_seconds: float,
                           parallel_seconds: float) -> List[str]:
    """Clean ``static``: an even split, the slowest member sets the pace.

    Serial parts run on the fastest core; each loop's equal shares wait
    for the slowest core, so the parallel part takes its even share at
    the slowest duty cycle.
    """
    cores = duties(label)
    expected = (serial_seconds / max(cores)
                + parallel_seconds / len(cores) / min(cores))
    if abs(runtime / expected - 1.0) > STATIC_CLOSED_FORM_TOLERANCE:
        return [f"OMP static makespan {runtime!r} s on {label} differs "
                f"from the straggler closed form {expected!r} s"]
    return []


def identical(pairs: Iterable[Tuple[str, str, str]]) -> List[str]:
    """``(what, expected, actual)`` canonical texts must match exactly."""
    return [f"{what}: result differs from its reference"
            for what, expected, actual in pairs if expected != actual]


def service_response(kind: str, response: Mapping, expected_hits: int,
                     expected_fresh: int) -> List[str]:
    """Counts a scenario-service reply must report for one request.

    ``kind`` is ``fresh``, ``partial`` or ``cached``; the expected
    counts come from the benchmark's own record of which tasks it has
    asked for before.
    """
    tasks = response.get("tasks")
    hits = response.get("cache_hits")
    fresh = response.get("simulations_run")
    failures = []
    if hits + fresh != tasks or len(response.get("results", ())) != tasks:
        failures.append(f"{kind} request: hits {hits} + simulated "
                        f"{fresh} != tasks {tasks}")
    if (hits, fresh) != (expected_hits, expected_fresh):
        failures.append(f"{kind} request: {hits} hit(s), {fresh} "
                        f"simulated; expected {expected_hits} and "
                        f"{expected_fresh}")
    return failures
