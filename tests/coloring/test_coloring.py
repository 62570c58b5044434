"""Distributed graph coloring over the three communication models."""

import numpy as np
import pytest

from repro.coloring import (
    NO_COLOR,
    check_color_bound,
    check_coloring_valid,
    greedy_coloring,
    num_colors,
    run_coloring,
)
from repro.coloring.distributed import coloring_rank_main
from repro.graph.csr import from_edges
from repro.graph.distribution import partition_graph
from repro.graph.generators import (
    complete_graph,
    grid2d_graph,
    path_graph,
    rgg_graph,
    rmat_graph,
    star_graph,
)
from repro.mpisim import Engine, cori_aries, zero_latency

FAST = zero_latency()


# -- serial ---------------------------------------------------------------

def test_serial_path_two_colors():
    g = path_graph(20, seed=1)
    c = greedy_coloring(g)
    check_coloring_valid(g, c)
    assert num_colors(c) == 2


def test_serial_star_two_colors():
    g = star_graph(15, seed=1)
    c = greedy_coloring(g)
    check_coloring_valid(g, c)
    assert num_colors(c) == 2


def test_serial_complete_needs_n_colors():
    g = complete_graph(7, seed=1)
    c = greedy_coloring(g)
    check_coloring_valid(g, c)
    assert num_colors(c) == 7


def test_serial_largest_first_order():
    g = rmat_graph(7, seed=2)
    c = greedy_coloring(g, order="largest_first")
    check_coloring_valid(g, c)
    check_color_bound(g, c)


def test_serial_unknown_order():
    with pytest.raises(ValueError):
        greedy_coloring(path_graph(5, seed=1), order="bogus")


def test_validators_catch_problems():
    g = path_graph(4, seed=1)
    with pytest.raises(AssertionError):
        check_coloring_valid(g, np.array([0, 0, 1, 0]))  # conflict on (0,1)
    with pytest.raises(AssertionError):
        check_coloring_valid(g, np.array([0, NO_COLOR, 0, 1]))  # uncolored
    with pytest.raises(AssertionError):
        check_color_bound(g, np.array([0, 1, 2, 9]))  # > Delta+1


def test_num_colors_empty():
    assert num_colors(np.array([], dtype=np.int64)) == 0


# -- distributed -------------------------------------------------------------

GRAPHS = [
    ("path", path_graph(41, seed=1)),
    ("grid", grid2d_graph(7, 8, seed=2)),
    ("rmat", rmat_graph(7, seed=3)),
    ("rgg", rgg_graph(300, target_avg_degree=6, seed=4)),
]


@pytest.mark.parametrize("model", ["nsr", "rma", "ncl"])
@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_distributed_valid_and_bounded(model, name, g):
    r = run_coloring(g, 4, model, machine=FAST)
    check_coloring_valid(g, r.colors)
    check_color_bound(g, r.colors)
    assert r.rounds >= 1


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_cross_backend_identical(name, g):
    ref = run_coloring(g, 4, "nsr", machine=FAST)
    for model in ("rma", "ncl"):
        got = run_coloring(g, 4, model, machine=FAST)
        assert np.array_equal(got.colors, ref.colors), f"{model} diverged"


@pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
def test_process_counts(nprocs):
    g = rmat_graph(7, seed=5)
    r = run_coloring(g, nprocs, "ncl", machine=FAST)
    check_coloring_valid(g, r.colors)


def test_deterministic_repeat():
    g = rmat_graph(7, seed=6)
    a = run_coloring(g, 4, "rma", machine=FAST)
    b = run_coloring(g, 4, "rma", machine=FAST)
    assert np.array_equal(a.colors, b.colors)
    assert a.makespan == b.makespan


def test_unknown_model():
    from repro.mpisim.errors import RankFailure

    with pytest.raises(RankFailure):
        run_coloring(path_graph(8, seed=1), 2, "morse-code", machine=FAST)


def test_single_rank_equals_serial():
    g = rmat_graph(7, seed=7)
    r = run_coloring(g, 1, "ncl", machine=FAST)
    # with one rank, speculative coloring is plain sequential first-fit
    assert np.array_equal(r.colors, greedy_coloring(g))
    assert r.rounds == 1


def test_conflict_loser_is_deterministic():
    # Force a conflict: one cross edge, equal local views.
    g = from_edges(4, [0, 1, 2], [1, 2, 3])  # path over 2 ranks of 2
    r = run_coloring(g, 2, "ncl", machine=FAST)
    check_coloring_valid(g, r.colors)


# model -> (makespan, rounds, colours): recorded by the thread-per-rank
# engine in its last commit (rmat scale 8, seed 3, P=4, cori-aries).
GOLDEN = {
    "nsr": (0.0008494349999999952, 6, 23),
    "rma": (0.00048018399999999933, 6, 23),
    "ncl": (0.0004360643999999976, 6, 23),
}


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_golden_pins(model):
    g = rmat_graph(8, seed=3)
    res = run_coloring(g, 4, model)
    assert (res.makespan, res.rounds, res.num_colors) == GOLDEN[model]
    vec = Engine(4, cori_aries(), engine="vector").run(
        coloring_rank_main, args=(partition_graph(g, 4), model))
    assert vec.makespan == res.makespan
