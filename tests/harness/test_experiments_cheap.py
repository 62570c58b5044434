"""Direct tests of the cheap experiment modules (no heavyweight sweeps).

The expensive experiments are exercised by the benchmark suite; these
cover the statistics-only and small-run experiments so plain `pytest
tests/` already validates their logic and findings wiring.
"""

import pytest

from repro.harness import run_experiment


@pytest.fixture(scope="module")
def fig1():
    return run_experiment("fig1")


def test_fig1_invariants(fig1):
    assert fig1.data["tiling_ok"] is True
    assert fig1.data["offsets_ok"] is True
    assert "prefix sums" in fig1.text


@pytest.mark.parametrize("engine", ["coroutine", "vector"])
def test_fig1_layout_pin(engine):
    # Rank 0's layout and the makespan as the thread-per-rank engine
    # recorded them in its last commit (rmat scale 7, seed 3, P=4).
    from repro.graph.distribution import partition_graph
    from repro.graph.generators import rmat_graph
    from repro.harness.experiments.fig01 import _layout_rank_main
    from repro.mpisim import Engine, zero_latency

    parts = partition_graph(rmat_graph(7, seed=3), 4)
    res = Engine(4, zero_latency(), engine=engine).run(
        _layout_rank_main, args=(parts,))
    assert res.makespan == 1.71645e-08
    assert res.rank_results[0] == {
        "neighbors": [1, 2, 3],
        "caps": [204, 294, 140],
        "starts": [0, 612, 1494],
        "window_elems": 1914,
        "remote_base": [0, 0, 0],
        "ghosts": {1: 102, 2: 147, 3: 70},
    }
    assert [lay["remote_base"] for lay in res.rank_results[1:]] == [
        [0, 882, 420], [612, 612, 972], [1494, 1380, 1650],
    ]


def test_fig7_bandwidth_reduction():
    out = run_experiment("fig7")
    for name in ("cage15", "hv15r"):
        b0, b1 = out.data[f"{name}_bandwidth"]
        assert b1 < b0


def test_table2_covers_registry():
    out = run_experiment("table2")
    names = {row[0] for row in out.data["rows"]}
    for expected in ("rmat-s10", "cage15", "friendster", "kmer-V1r"):
        assert expected in names


def test_table3_complete_process_graph():
    out = run_experiment("table3")
    for label, stats in out.data["stats"]:
        assert stats["dmax"] == stats["nprocs"] - 1


def test_table4_near_complete():
    out = run_experiment("table4")
    for label, stats in out.data["stats"]:
        assert stats["davg"] >= 0.9 * (stats["nprocs"] - 1)


def test_table5_directions():
    out = run_experiment("table5")
    for name, d in out.data.items():
        assert d["total_change"] > 0.95  # ghosts do not collapse
        assert d["sigma_change"] < 1.0  # balance improves


def test_table6_davg_increases():
    out = run_experiment("table6")
    for name, d in out.data.items():
        assert d["davg_ratio"] > 1.0


def test_ablate_tiebreak_pathological():
    out = run_experiment("ablate-tiebreak")
    assert out.data["iters_plain"] > out.data["iters_hash"]


def test_experiment_outputs_well_formed():
    for eid in ("fig1", "table2", "table3"):
        out = run_experiment(eid)
        assert out.exp_id == eid
        assert out.title
        assert out.text.strip()
        assert out.findings
        assert isinstance(out.data, dict)
