"""Connected components: serial oracle + distributed label propagation."""

import numpy as np
import pytest

from repro.cc import (
    connected_components,
    num_components,
    run_cc,
    validate_components,
)
from repro.cc.distributed import cc_rank_main
from repro.graph.distribution import partition_graph
from repro.graph.csr import from_edges
from repro.graph.generators import (
    grid2d_graph,
    kmer_graph,
    path_graph,
    rgg_graph,
    rmat_graph,
)
from repro.mpisim import Engine, cori_aries, zero_latency

FAST = zero_latency()


# -- serial ---------------------------------------------------------------

def test_serial_single_component():
    g = path_graph(10, seed=1)
    labels = connected_components(g)
    assert num_components(labels) == 1
    assert np.all(labels == 0)


def test_serial_disjoint_paths():
    g = from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5])
    labels = connected_components(g)
    assert labels.tolist() == [0, 0, 0, 3, 3, 3]
    assert num_components(labels) == 2


def test_serial_isolated_vertices():
    g = from_edges(4, [0], [1])
    labels = connected_components(g)
    assert num_components(labels) == 3


def test_validate_catches_bad_labels():
    g = from_edges(4, [0, 2], [1, 3])
    with pytest.raises(AssertionError):
        validate_components(g, np.array([0, 1, 2, 2]))  # edge (0,1) split
    with pytest.raises(AssertionError):
        validate_components(g, np.array([1, 1, 2, 2]))  # non-canonical label


# -- distributed -------------------------------------------------------------

GRAPHS = [
    ("path", path_graph(37, seed=1)),
    ("grid", grid2d_graph(6, 9, seed=2)),
    ("rmat", rmat_graph(7, seed=3)),
    ("kmer-islands", kmer_graph(700, bridge_fraction=0.0, seed=4)),
    ("rgg-sparse", rgg_graph(400, target_avg_degree=4, seed=5)),
]


@pytest.mark.parametrize("model", ["nsr", "ncl"])
@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_distributed_matches_serial(model, name, g):
    ref = connected_components(g)
    r = run_cc(g, 4, model, machine=FAST)
    validate_components(g, r.labels)
    assert np.array_equal(r.labels, ref)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 8])
def test_process_count_invariance(nprocs):
    g = kmer_graph(600, seed=6)
    ref = connected_components(g)
    r = run_cc(g, nprocs, "ncl", machine=FAST)
    assert np.array_equal(r.labels, ref)


def test_rounds_scale_with_partition_diameter():
    """A path split over p ranks needs ~p rounds to propagate the label."""
    g = path_graph(64, seed=7)
    r2 = run_cc(g, 2, "ncl", machine=FAST)
    r8 = run_cc(g, 8, "ncl", machine=FAST)
    assert r8.rounds > r2.rounds


def test_unknown_model():
    from repro.mpisim.errors import RankFailure

    with pytest.raises(RankFailure):
        run_cc(path_graph(8, seed=1), 2, "rfc1149", machine=FAST)


def test_deterministic():
    g = rmat_graph(7, seed=8)
    a = run_cc(g, 4, "nsr", machine=FAST)
    b = run_cc(g, 4, "nsr", machine=FAST)
    assert np.array_equal(a.labels, b.labels)
    assert a.makespan == b.makespan


# model -> (makespan, rounds, components): recorded by the thread-per-rank
# engine in its last commit (rmat scale 8, seed 3, P=4, cori-aries).
GOLDEN = {
    "nsr": (0.0007476800000000002, 3, 14),
    "ncl": (0.00046302079999999867, 3, 14),
}


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_golden_pins(model):
    g = rmat_graph(8, seed=3)
    res = run_cc(g, 4, model)
    assert (res.makespan, res.rounds, res.num_components) == GOLDEN[model]
    vec = Engine(4, cori_aries(), engine="vector").run(
        cc_rank_main, args=(partition_graph(g, 4), model))
    assert vec.makespan == res.makespan
