"""`repro.api` is the only run entry point; the harness shims are gone.

``repro.harness.runner`` (``run_one`` / ``run_models``) and
``repro.harness.sweep`` (``scaling_sweep`` / ``best_speedup_over_baseline``)
delegated to the facade for a release and were then deleted. The test ids
stay, each now pinning the facade call that replaced its shim.
"""

import importlib

import pytest

import repro.harness
from repro import api
from repro.harness import get_graph
from repro.harness.records import record_from_dict, record_to_dict
from repro.mpisim import zero_latency

FAST = api.RunConfig(machine=zero_latency())


def test_runrecord_is_the_api_class():
    rec = api.run(get_graph("rmat-s10"), 2, "nsr", label="rmat", config=FAST)
    assert type(record_from_dict(record_to_dict(rec))) is api.RunRecord


def test_run_one_warns_and_delegates():
    g = get_graph("rmat-s10")
    assert not hasattr(repro.harness, "run_one")
    first = api.run(g, 4, "ncl", label="rmat-s10", config=FAST)
    assert api.run(g, 4, "ncl", label="rmat-s10", config=FAST) == first


def test_run_models_warns_and_delegates():
    g = get_graph("rmat-s10")
    assert not hasattr(repro.harness, "run_models")
    recs = api.run_models(g, 2, ("nsr", "ncl"), config=FAST)
    assert recs == {m: api.run(g, 2, m, config=FAST) for m in ("nsr", "ncl")}


def test_scaling_sweep_warns_and_delegates():
    g = get_graph("rmat-s10")
    assert not hasattr(repro.harness, "scaling_sweep")
    points = [("rmat", g, 2), ("rmat", g, 4)]
    fig, recs = api.sweep(points, models=("nsr",), title="t", config=FAST)
    assert recs == [api.run(g, p, "nsr", label="rmat", config=FAST)
                    for _, _, p in points]
    (series,) = fig.series
    assert (series.label, series.ys) == ("NSR", [r.makespan for r in recs])


def test_best_speedup_warns_and_delegates():
    g = get_graph("rmat-s10")
    assert not hasattr(repro.harness, "best_speedup_over_baseline")
    recs = [api.run(g, 4, m, label="rmat", config=FAST) for m in ("nsr", "ncl")]
    best = api.best_speedup_over_baseline(recs)
    assert set(best) == {("rmat", 4)}
    assert best[("rmat", 4)][1] in ("nsr", "ncl")


def test_importing_shims_does_not_warn():
    for gone in ("repro.harness.runner", "repro.harness.sweep"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)

