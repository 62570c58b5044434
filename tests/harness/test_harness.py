"""Harness plumbing: dataset registry, runner, profiles, figures, sweeps."""

import numpy as np
import pytest

from repro.api import best_speedup_over_baseline, run, sweep
from repro.harness import (
    DEFAULT_SEED,
    FigureData,
    all_experiment_ids,
    all_specs,
    get_graph,
    get_spec,
    performance_profile,
)
from repro.matching.config import RunConfig
from repro.mpisim import zero_latency

FAST = RunConfig(machine=zero_latency())


# -- spec registry -------------------------------------------------------

def test_registry_covers_all_paper_categories():
    cats = {s.category for s in all_specs()}
    assert len(cats) == 7
    assert any("RGG" in c for c in cats)
    assert any("R-MAT" in c for c in cats)
    assert any("k-mer" in c for c in cats)
    assert any("Social" in c for c in cats)


def test_get_spec_and_graph():
    spec = get_spec("rmat-s10")
    g1 = spec.instantiate()
    g2 = get_graph("rmat-s10")
    assert g1 is g2  # memoized


def test_unknown_spec():
    with pytest.raises(KeyError):
        get_spec("no-such-graph")


def test_specs_have_paper_identifiers():
    for s in all_specs():
        assert s.paper_identifier
        assert s.default_procs


# -- runner (repro.api facade) --------------------------------------------

def test_run_one_record_fields():
    g = get_graph("rmat-s10")
    rec = run(g, 4, "ncl", label="rmat-s10", config=FAST)
    assert rec.graph == "rmat-s10"
    assert rec.model == "ncl"
    assert rec.makespan > 0
    assert rec.messages > 0
    assert rec.weight > 0
    assert rec.mem_per_rank_mb > 0
    assert rec.energy.node_energy_kj > 0
    assert rec.result is None  # not kept by default


def test_run_one_keep_result():
    g = get_graph("rmat-s10")
    rec = run(g, 2, "nsr", config=FAST, keep_result=True)
    assert rec.result is not None
    assert rec.result.nprocs == 2


def test_speedup_over():
    g = get_graph("rmat-s10")
    a = run(g, 4, "nsr", config=FAST)
    b = run(g, 4, "ncl", config=FAST)
    assert a.speedup_over(a) == pytest.approx(1.0)
    assert b.speedup_over(a) == pytest.approx(a.makespan / b.makespan)


# -- performance profile --------------------------------------------------

def test_performance_profile_math():
    times = {
        "p1": {"a": 1.0, "b": 2.0},
        "p2": {"a": 4.0, "b": 2.0},
        "p3": {"a": 1.0, "b": 6.0},
    }
    prof = performance_profile(times, num_points=101)
    assert prof.best_fraction("a") == pytest.approx(2 / 3)
    assert prof.best_fraction("b") == pytest.approx(1 / 3)
    # rho is nondecreasing and ends at 1
    for s in prof.solvers:
        curve = prof.curves[s]
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] == pytest.approx(1.0)
    assert prof.area("a") > 0
    csv = prof.as_csv()
    assert csv.startswith("tau,a,b")


def test_performance_profile_validation():
    with pytest.raises(ValueError):
        performance_profile({})
    with pytest.raises(ValueError):
        performance_profile({"p": {"a": 0.0, "b": 1.0}})


def test_performance_profile_partial_coverage():
    # Solvers are the union across problems; a solver missing from a
    # problem simply fails it (ratio inf) rather than raising.
    prof = performance_profile({"p": {"a": 1.0}, "q": {"b": 1.0}})
    assert prof.solvers == ("a", "b")
    assert prof.solve_fraction("a") == pytest.approx(0.5)
    assert prof.curves["a"][-1] == pytest.approx(0.5)


# -- figures ---------------------------------------------------------------

def test_figure_csv_and_render():
    fig = FigureData("t", "p", "time")
    fig.add("NSR", [4, 8], [1.0, 2.0])
    fig.add("NCL", [4, 8], [0.5, 0.4])
    csv = fig.as_csv()
    assert "p,NSR,NCL" in csv
    out = fig.render()
    assert "legend" in out and "NSR" in out


def test_figure_mismatched_series():
    fig = FigureData("t", "p", "y")
    with pytest.raises(ValueError):
        fig.add("x", [1, 2], [1.0])


def test_empty_figure_renders():
    assert "empty" in FigureData("t", "x", "y").render()


# -- sweeps ------------------------------------------------------------------

def test_scaling_sweep_and_best_speedup():
    g = get_graph("rmat-s10")
    fig, records = sweep(
        [("rmat", g, 2), ("rmat", g, 4)],
        models=("nsr", "ncl"),
        title="t",
        config=FAST,
    )
    assert len(records) == 4
    assert len(fig.series) == 2
    best = best_speedup_over_baseline(records)
    assert set(best) == {("rmat", 2), ("rmat", 4)}
    speedup, winner = best[("rmat", 4)]
    assert speedup > 0
    assert winner in ("nsr", "ncl")


# -- experiment registry -------------------------------------------------

def test_all_experiments_registered():
    ids = all_experiment_ids()
    for want in [
        "fig2", "fig4a", "fig4b", "fig4c", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "fig11", "table2", "table3", "table4", "table5",
        "table6", "table7", "table8",
    ]:
        assert want in ids
    assert any(i.startswith("ablate-") for i in ids)


def test_unknown_experiment():
    from repro.harness import run_experiment

    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_cheap_experiments_run():
    from repro.harness import run_experiment

    for eid in ("table2", "table3", "table4"):
        out = run_experiment(eid)
        assert out.exp_id == eid
        assert out.text
        assert out.findings


def test_default_procs_fit_graph_sizes():
    """Every registered default process count must be partitionable."""
    from repro.graph.distribution import BlockDistribution

    for spec in all_specs():
        g = spec.instantiate()
        for p in spec.default_procs:
            BlockDistribution(g.num_vertices, p)  # must not raise


def test_registry_names_unique_and_stable():
    names = [s.name for s in all_specs()]
    assert len(names) == len(set(names))
    # sorted order is the CLI listing order; keep it deterministic
    assert names == [s.name for s in all_specs()]


def test_performance_profile_area_and_trapezoid():
    """Regression: .area() called np.trapezoid, absent before numpy 2.0;
    the fallback must integrate correctly on whatever numpy is present."""
    prof = performance_profile(
        {"p1": {"a": 1.0, "b": 2.0}, "p2": {"a": 1.0, "b": 4.0}},
        tau_max=5.0,
        num_points=401,
    )
    # a is always best: rho_a == 1 everywhere, area == tau range
    assert prof.area("a") == pytest.approx(4.0, rel=1e-6)
    assert prof.area("b") < prof.area("a")


def test_performance_profile_with_failures():
    """Missing/None/NaN/inf runtimes are failures (ratio inf): the
    solver's curve plateaus below 1.0 instead of raising."""
    times = {
        "p1": {"a": 1.0, "b": 2.0},
        "p2": {"a": 1.0, "b": float("nan")},
        "p3": {"a": 1.0, "b": None},
        "p4": {"a": float("inf"), "b": 1.0},
    }
    prof = performance_profile(times, tau_max=100.0)
    assert prof.solve_fraction("a") == pytest.approx(3 / 4)
    assert prof.solve_fraction("b") == pytest.approx(2 / 4)
    assert prof.curves["a"][-1] == pytest.approx(3 / 4)
    assert prof.curves["b"][-1] == pytest.approx(2 / 4)
    assert np.isinf(prof.ratios["b"][1])


def test_performance_profile_all_failed_problem():
    # one problem nobody solved still counts in the denominator
    times = {
        "p1": {"a": 1.0, "b": 1.0},
        "p2": {"a": float("inf"), "b": None},
    }
    prof = performance_profile(times, tau_max=10.0)
    for s in ("a", "b"):
        assert prof.curves[s][-1] == pytest.approx(0.5)
