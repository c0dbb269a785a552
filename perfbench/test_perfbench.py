"""Self-tests of the benchmark's output checks.

Each check must pass on a correct input and fail on a deliberately
wrong one.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402
from repro.experiments.parallel import RunTask, execute_task  # noqa: E402
from repro.service.cache import (  # noqa: E402
    canonical_result_json,
    result_to_payload,
)
from repro.workloads.specomp import SpecOmpBenchmark  # noqa: E402
from repro.workloads.specomp.specs import spec_for  # noqa: E402

SWIM = spec_for("swim")
PARALLEL = SWIM.parallel_seconds
SERIAL = PARALLEL * SWIM.serial_fraction / (1.0 - SWIM.serial_fraction)


@pytest.fixture(scope="module")
def swim_static():
    """A real clean static swim run on the flagship asymmetric machine."""
    return execute_task(RunTask(SpecOmpBenchmark("swim"), "2f-2s/8", 7))


def test_config_labels_parse_to_compute_power():
    assert checks.duties("2f-2s/8") == [1.0, 1.0, 0.125, 0.125]
    assert checks.compute_power("4f-0s") == 4.0
    assert checks.compute_power("0f-4s/8") == 0.5
    with pytest.raises(ValueError):
        checks.duties("fast")


def test_conservation_fails_on_altered_books(swim_static):
    metrics = swim_static.run_metrics
    assert checks.conservation(metrics) == []
    idle = copy.deepcopy(metrics)
    idle.cores[0].idle_seconds += 1e-3
    assert checks.conservation(idle)
    cycles = copy.deepcopy(metrics)
    name = next(iter(cycles.thread_class_cycles))
    split = cycles.thread_class_cycles[name]
    split[next(iter(split))] *= 1.01
    assert checks.conservation(cycles)


def test_omp_makespan_below_work_bound_fails(swim_static):
    runtime = swim_static.metric("runtime")
    assert checks.omp_work_bound(runtime, "2f-2s/8", SERIAL, PARALLEL,
                                 stormy=False) == []
    bound = SERIAL + PARALLEL / checks.compute_power("2f-2s/8")
    assert checks.omp_work_bound(bound * 0.99, "2f-2s/8", SERIAL,
                                 PARALLEL, stormy=False)
    # Under storms every core counts at full speed: a lower bound.
    assert checks.omp_work_bound(bound * 0.99, "2f-2s/8", SERIAL,
                                 PARALLEL, stormy=True) == []


def test_static_closed_form_fails_when_off(swim_static):
    runtime = swim_static.metric("runtime")
    assert checks.omp_static_closed_form(runtime, "2f-2s/8", SERIAL,
                                         PARALLEL) == []
    assert checks.omp_static_closed_form(runtime * 1.001, "2f-2s/8",
                                         SERIAL, PARALLEL)


def test_apache_heavy_off_the_compute_power_line_fails():
    on_line = {label: 1000.0 * checks.compute_power(label)
               for label in ("4f-0s", "2f-2s/8", "0f-4s/8")}
    assert checks.apache_heavy(on_line) == []
    off_line = dict(on_line, **{"2f-2s/8": on_line["2f-2s/8"] * 1.05})
    assert checks.apache_heavy(off_line)


def test_pooled_result_differing_from_serial_rerun_fails(swim_static):
    task = RunTask(SpecOmpBenchmark("swim"), "2f-2s/8", 7)
    serial = canonical_result_json(execute_task(task))
    pooled = canonical_result_json(swim_static)
    assert checks.identical([("swim", serial, pooled)]) == []
    altered = copy.deepcopy(swim_static)
    altered.metrics["runtime"] *= 1.0 + 1e-12
    assert checks.identical(
        [("swim", serial, canonical_result_json(altered))])


def test_service_payload_with_one_altered_field_fails(swim_static,
                                                      tmp_path):
    scenario = scenarios.ServiceSweeps(seed=1, workdir=tmp_path)
    message = {"workload": "specomp", "params": {"benchmark": "swim"}}
    payload = result_to_payload(swim_static)
    fresh = {"tasks": 1, "cache_hits": 0, "simulations_run": 1,
             "results": [payload]}
    scenario._record("fresh", message, fresh, 0, 1, counting=False)
    cached = {"tasks": 1, "cache_hits": 1, "simulations_run": 0,
              "results": [copy.deepcopy(payload)]}
    scenario._record("cached", message, cached, 1, 0, counting=False)
    assert scenario.failures == []
    altered = copy.deepcopy(cached)
    altered["results"][0]["run_metrics"]["migrations"] += 1
    scenario._record("cached", message, altered, 1, 0, counting=False)
    assert any("differs" in failure for failure in scenario.failures)


def test_service_counts_that_do_not_add_up_fail():
    response = {"tasks": 9, "cache_hits": 9, "simulations_run": 0,
                "results": [{}] * 9}
    assert checks.service_response("cached", response, 9, 0) == []
    assert checks.service_response(
        "cached", dict(response, simulations_run=1), 9, 0)
    assert checks.service_response("cached", response, 0, 9)


def test_printed_metric_names_and_units_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for printed, key in ((harness.E2E_UNITS, "end_to_end"),
                         (layers.LAYER_UNITS, "per_layer")):
        assert printed == {entry["name"]: entry["unit"]
                           for entry in declared[key]}
    names = {entry["name"] for entry in declared["workloads"]}
    assert names <= set(scenarios.SCENARIOS)


def test_layer_self_times_sum_to_profiled_total():
    import cProfile
    import pstats
    profile = cProfile.Profile()
    profile.enable()
    execute_task(RunTask(SpecOmpBenchmark("swim"), "1f-3s/4", 3))
    profile.disable()
    stats = pstats.Stats(profile)
    total = sum(entry[2] for entry in stats.stats.values())
    shares = layers.self_times(stats)
    assert sum(shares.values()) == pytest.approx(total, rel=1e-9)
    assert shares["kernel"] > 0 and shares["sim"] > 0
