"""Self-test of the ladder on shrunken workloads (well under 30 s).

    pytest benchmarks/ladder -q

Outside tier-1 ``testpaths`` on purpose: it checks the benchmark, not
the package. Each workload function is driven with a shrunken workload
object passed as an argument; the CLI has no size flag.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import replace

import pytest

import compare
import run
import spec
import tracing
import workloads
from workloads import LADDERS, WORKLOADS, ServiceMix

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def small(wl: workloads.Ladder) -> workloads.Ladder:
    return replace(wl, size=7 if wl.family == "rmat" else 600, nprocs=8)


SMALL_SERVICE = ServiceMix(graph_seeds=1, nprocs=(4,), models=("nsr", "ncl"),
                           bursts=1, warm_hits=40)


@pytest.fixture(scope="module")
def traced_ladder() -> dict:
    local = next(wl for wl in LADDERS if wl.generate_in_op)
    return tracing.trace_ladder(small(local), 3, 0.0, time.time())


@pytest.fixture(scope="module")
def traced_service() -> dict:
    return tracing.trace_service(SMALL_SERVICE, 3, 0.0, time.time())


def test_workload_names_are_those_of_benchmark_json():
    assert tuple(WORKLOADS) == spec.WORKLOAD_NAMES
    assert all(NAME.fullmatch(name) for name in WORKLOADS)


@pytest.mark.parametrize("wl", LADDERS, ids=lambda wl: wl.name)
def test_every_rung_runs_clean_when_shrunk(wl):
    result = workloads.run_ladder(small(wl), 5, 0.0, time.time())
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == workloads.MIN_ROUNDS * len(wl.models)
    assert set(spec.END_TO_END) <= set(result["metrics"])
    assert result["metrics"]["failed_frac"][0] == 0


def test_printed_metric_names_are_those_of_benchmark_json(traced_ladder, traced_service):
    assert traced_ladder["failed"] == 0, traced_ladder["failures"]
    assert traced_service["failed"] == 0, traced_service["failures"]
    printed = set(traced_ladder["metrics"]) | set(traced_service["metrics"])
    assert printed == set(spec.METRICS)
    for name, meta in spec.METRICS.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(meta["unit"]), name
    assert len(spec.METRICS) == len(spec.END_TO_END) + len(spec.PER_LAYER)  # used once


def test_span_self_times_tile_each_case(traced_ladder):
    spans = traced_ladder["spans"]
    self_ns = tracing.self_times_ns(spans)
    cases = [s for s in spans if s["name"] == "case"]
    assert cases
    for case in cases:
        children = [s for s in spans if s["parent"] == case["id"]]
        assert children
        assert self_ns[case["id"]] >= 0
        assert self_ns[case["id"]] + sum(self_ns[c["id"]] for c in children) \
            == tracing.duration_ns(case)
        # children lie inside the case, one after the other, sharing its trace id
        edges = [case["start_ns"]]
        for c in children:
            assert c["trace"] == case["trace"]
            edges += [c["start_ns"], c["end_ns"]]
        edges.append(case["end_ns"])
        assert edges == sorted(edges)


def test_service_counts_and_phases(traced_service):
    m = traced_service["metrics"]
    cold = len(SMALL_SERVICE.nprocs) * len(SMALL_SERVICE.models)
    assert m["service.sims_executed"][0] == cold + SMALL_SERVICE.bursts
    assert m["service.coalesce_ratio"][0] == 1.0
    assert m["service.cache_hits"][0] == SMALL_SERVICE.warm_hits
    names = {s["name"] for s in traced_service["spans"]}
    assert {"phase.cold", "phase.coalesced", "phase.warm", "client.submit"} <= names


def test_corrupted_mate_is_counted_in_failed_frac(monkeypatch):
    from repro import api

    wl = small(LADDERS[0])
    real_run, calls = api.run, []

    def run_and_corrupt_one(*args, **kwargs):
        rec = real_run(*args, **kwargs)
        calls.append(rec)
        if len(calls) == len(wl.models) + 2:  # the second timed operation
            v = int((rec.result.mate >= 0).argmax())
            rec.result.mate[v] = -1  # its partner still points at v
        return rec

    monkeypatch.setattr(api, "run", run_and_corrupt_one)
    result = workloads.run_ladder(wl, 5, 0.0, time.time())
    assert result["failed"] == 1
    assert "asymmetric" in result["failures"][0]
    assert result["metrics"]["failed_frac"][0] == 1 / result["attempted"]


def test_driver_line_has_exactly_the_contract_keys():
    result = {
        "attempted": 6, "failed": 0,
        "metrics": {name: {"value": 1.5, "unit": m["unit"], "n": 3}
                    for name, m in spec.END_TO_END.items()},
    }
    line = json.loads(run.driver_line(result, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(spec.END_TO_END)
    traced = json.loads(run.driver_line(result, traced=True))
    assert set(traced["metrics"]) == set(spec.PER_LAYER)
    del result["metrics"]["wall_s"]
    with pytest.raises(SystemExit):
        run.driver_line(result, traced=False)


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.judge(steady, [x * 1.02 for x in steady], "lower", 0.10)[0] == "ok"
    assert compare.judge(steady, [x * 1.30 for x in steady], "lower", 0.10)[0] == "worse"
    assert compare.judge(steady, [x * 0.70 for x in steady], "higher", 0.10)[0] == "worse"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert compare.judge(noisy, noisy[::-1], "lower", 0.10)[0] == "unresolved"
    assert compare.judge(noisy, [x / 2 for x in noisy], "lower", 0.10)[0] == "ok"  # every run wins
    assert compare.judge([0.0, 0.0], [0.0, 0.01], "lower", 0.0)[0] == "worse"  # failed_frac
