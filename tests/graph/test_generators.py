"""Every generator: validity, determinism, and family-defining structure."""

import numpy as np
import pytest

from repro.graph import process_graph_stats
from repro.graph.generators import (
    cage15_proxy,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    friendster_proxy,
    grid2d_graph,
    hv15r_proxy,
    kmer_graph,
    kmer_preset_graph,
    orkut_proxy,
    path_graph,
    powerlaw_graph,
    rgg_graph,
    rmat_graph,
    sbm_hilo_graph,
    star_graph,
)
from repro.graph.generators.matrices import comb_mesh_graph

ALL = [
    ("path", lambda s: path_graph(50, seed=s)),
    ("cycle", lambda s: cycle_graph(50, seed=s)),
    ("grid", lambda s: grid2d_graph(7, 9, seed=s)),
    ("star", lambda s: star_graph(30, seed=s)),
    ("complete", lambda s: complete_graph(12, seed=s)),
    ("er", lambda s: erdos_renyi(300, 6.0, seed=s)),
    ("rgg", lambda s: rgg_graph(400, target_avg_degree=6, seed=s)),
    ("rmat", lambda s: rmat_graph(8, seed=s)),
    ("sbm", lambda s: sbm_hilo_graph(500, seed=s)),
    ("kmer", lambda s: kmer_graph(800, seed=s)),
    ("powerlaw", lambda s: powerlaw_graph(400, seed=s)),
    ("comb", lambda s: comb_mesh_graph(1200, branches=3, width=5, seed=s)),
    ("cage", lambda s: cage15_proxy(2000, seed=s)),
    ("hv15r", lambda s: hv15r_proxy(1600, seed=s)),
    ("orkut", lambda s: orkut_proxy(600, seed=s)),
    ("friendster", lambda s: friendster_proxy(600, seed=s)),
]


@pytest.mark.parametrize("name,gen", ALL, ids=[n for n, _ in ALL])
def test_generator_valid_and_deterministic(name, gen):
    g1 = gen(11)
    g1.validate()
    g2 = gen(11)
    assert np.array_equal(g1.adjncy, g2.adjncy)
    assert np.array_equal(g1.weights, g2.weights)
    g3 = gen(12)
    assert (
        not np.array_equal(g1.adjncy, g3.adjncy)
        or not np.array_equal(g1.weights, g3.weights)
    )


@pytest.mark.parametrize("name,gen", ALL, ids=[n for n, _ in ALL])
def test_generator_distinct_weights(name, gen):
    g = gen(5)
    _, _, w = g.edge_list()
    assert len(np.unique(w)) == len(w)


# -- family-defining structure ------------------------------------------

def test_path_structure():
    g = path_graph(10)
    assert g.num_edges == 9
    assert g.degree(0) == 1 and g.degree(5) == 2


def test_grid_structure():
    g = grid2d_graph(4, 5)
    assert g.num_vertices == 20
    assert g.num_edges == 4 * 4 + 3 * 5
    assert g.degree(0) == 2  # corner


def test_star_structure():
    g = star_graph(11)
    assert g.degree(0) == 10
    assert all(g.degree(v) == 1 for v in range(1, 11))


def test_complete_structure():
    g = complete_graph(8)
    assert g.num_edges == 28
    assert all(g.degree(v) == 7 for v in range(8))


def test_rgg_bounded_process_neighborhood():
    """The paper's defining RGG property: each rank talks to <= 2 others."""
    g = rgg_graph(4000, target_avg_degree=8, seed=1)
    stats = process_graph_stats(g, 8)
    assert stats.dmax <= 2


def test_rgg_radius_vs_degree_exclusive():
    with pytest.raises(ValueError):
        rgg_graph(100, radius=0.1, target_avg_degree=4)


@pytest.mark.parametrize("kw", [
    {"radius": -0.1}, {"radius": 0.0}, {"radius": float("nan")},
    {"target_avg_degree": -3}, {"target_avg_degree": 0},
    {"target_avg_degree": float("nan")},
], ids=lambda kw: "=".join(map(str, next(iter(kw.items())))))
def test_rgg_refuses_a_radius_or_degree_not_above_zero(kw):
    # a negative radius once built the |radius| graph, since it is squared
    with pytest.raises(ValueError, match="must be > 0"):
        rgg_graph(50, seed=1, **kw)


def test_rmat_degree_skew():
    g = rmat_graph(10, seed=2)
    deg = g.degrees()
    assert deg.max() > 8 * deg.mean()  # heavy-tailed


def test_rmat_params_must_sum_to_one():
    with pytest.raises(ValueError):
        rmat_graph(6, params=(0.5, 0.5, 0.5, 0.5))


def test_sbm_dense_process_graph():
    g = sbm_hilo_graph(1600, avg_degree=10.0, seed=3)
    stats = process_graph_stats(g, 16)
    assert stats.davg == 15  # complete process graph (paper Table III)


def test_sbm_overlap_validation():
    with pytest.raises(ValueError):
        sbm_hilo_graph(500, overlap=1.5)


def test_kmer_presets_exist_and_size_ordering():
    sizes = {}
    for name in ("V2a", "U1a", "P1a", "V1r"):
        g = kmer_preset_graph(name, 2000, seed=4)
        g.validate()
        sizes[name] = g.num_edges
    with pytest.raises(KeyError):
        kmer_preset_graph("nope", 1000)


def test_kmer_packing_increases_process_degree():
    loose = kmer_graph(3000, packing=0.0, seed=5)
    packed = kmer_graph(3000, packing=0.8, seed=5)
    s_loose = process_graph_stats(loose, 8)
    s_packed = process_graph_stats(packed, 8)
    assert s_packed.davg > s_loose.davg


def test_powerlaw_near_complete_process_graph():
    g = powerlaw_graph(1500, avg_degree=20, seed=6)
    stats = process_graph_stats(g, 8)
    assert stats.davg >= 0.9 * 7


def test_comb_mesh_branch_imbalance():
    """Branch densities differ -> per-rank edge loads differ (sigma > 0)."""
    from repro.graph import ghost_stats

    g = comb_mesh_graph(4000, branches=4, width=5, extra_degree=10.0, seed=7)
    gs = ghost_stats(g, 8)
    assert gs.sigma > 0.02 * gs.avg


def test_comb_mesh_validation():
    with pytest.raises(ValueError):
        comb_mesh_graph(10, branches=4, width=10)
    with pytest.raises(ValueError):
        comb_mesh_graph(4000, branches=2, width=5, density=(1.0,))


def test_generators_reject_tiny_inputs():
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(1)
    with pytest.raises(ValueError):
        rgg_graph(1)
    with pytest.raises(ValueError):
        sbm_hilo_graph(4)
