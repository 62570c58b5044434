"""1D block distribution, ghosts, and the process graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.distribution import (
    BlockDistribution,
    partition_graph,
    process_graph_adjacency,
)
from repro.graph.generators import grid2d_graph, rmat_graph
from repro.matching.config import RunConfig


def test_block_ranges_cover_everything():
    d = BlockDistribution(10, 3)
    ranges = [d.range_of(r) for r in range(3)]
    assert ranges == [(0, 4), (4, 7), (7, 10)]
    assert sum(d.local_count(r) for r in range(3)) == 10


def test_owner_matches_ranges():
    d = BlockDistribution(100, 7)
    for v in range(100):
        r = d.owner(v)
        lo, hi = d.range_of(r)
        assert lo <= v < hi


def test_owner_array_vectorized():
    d = BlockDistribution(50, 4)
    vs = np.arange(50)
    owners = d.owner_array(vs)
    assert owners.tolist() == [d.owner(int(v)) for v in vs]


def test_distribution_validation():
    with pytest.raises(ValueError):
        BlockDistribution(3, 5)
    with pytest.raises(ValueError):
        BlockDistribution(10, 0)


def test_partition_covers_all_edges():
    g = rmat_graph(7, seed=1)
    parts = partition_graph(g, 4)
    assert sum(p.num_local_directed_edges for p in parts) == g.num_directed_edges
    assert sum(p.num_owned for p in parts) == g.num_vertices


def test_ghost_counts_symmetric():
    g = rmat_graph(7, seed=1)
    parts = partition_graph(g, 4)
    for p in parts:
        for q, cnt in p.ghost_counts.items():
            assert parts[q].ghost_counts[p.rank] == cnt


def test_ghost_counts_exclude_self():
    g = rmat_graph(7, seed=1)
    for p in partition_graph(g, 4):
        assert p.rank not in p.ghost_counts


def test_rows_match_global_graph():
    g = grid2d_graph(6, 6, seed=2)
    parts = partition_graph(g, 3)
    for p in parts:
        for v in range(p.lo, p.hi):
            nbrs, w = p.row(v)
            assert sorted(nbrs.tolist()) == sorted(g.neighbors(v).tolist())


def test_edges_with_ghosts_identity():
    """sum_i |E'_i| == |E| + #cross (each cross edge stored twice)."""
    g = rmat_graph(7, seed=3)
    parts = partition_graph(g, 5)
    total_cross = sum(p.num_cross_edges for p in parts) // 2
    assert sum(p.edges_with_ghosts() for p in parts) == g.num_edges + total_cross


def test_process_graph_adjacency_symmetric():
    g = rmat_graph(7, seed=1)
    parts = partition_graph(g, 4)
    adj = process_graph_adjacency(parts)
    for r, ns in enumerate(adj):
        for q in ns:
            assert r in adj[q]


def test_single_rank_partition():
    g = grid2d_graph(4, 4, seed=0)
    (p,) = partition_graph(g, 1)
    assert p.num_cross_edges == 0
    assert p.neighbor_ranks == []
    assert p.edges_with_ghosts() == g.num_edges


def test_grid_partition_is_path_process_graph():
    """Row-major grid + block distribution -> each rank talks to ~2 peers."""
    g = grid2d_graph(32, 8, seed=0)
    parts = partition_graph(g, 8)
    for p in parts:
        assert len(p.neighbor_ranks) <= 2


def test_memory_bytes():
    g = rmat_graph(6, seed=1)
    parts = partition_graph(g, 2)
    assert all(p.memory_bytes() > 0 for p in parts)


def test_edge_balanced_distribution_properties():
    from repro.graph.distribution import edge_balanced_distribution
    from repro.graph.generators import rmat_graph

    g = rmat_graph(8, seed=4)
    p = 8
    dist = edge_balanced_distribution(g, p)
    # covers all vertices, each rank nonempty
    assert sum(dist.local_count(r) for r in range(p)) == g.num_vertices
    assert all(dist.local_count(r) >= 1 for r in range(p))
    # degree sums are tighter than the vertex-balanced split
    import numpy as np

    def degree_loads(d):
        return np.array([
            int(g.xadj[d.range_of(r)[1]] - g.xadj[d.range_of(r)[0]])
            for r in range(p)
        ])

    uni = BlockDistribution(g.num_vertices, p)
    assert degree_loads(dist).std() < degree_loads(uni).std()


def test_custom_starts_validation():
    import numpy as np

    with pytest.raises(ValueError):
        BlockDistribution(10, 2, starts=np.array([0, 5]))  # wrong length
    with pytest.raises(ValueError):
        BlockDistribution(10, 2, starts=np.array([1, 5, 10]))  # not from 0
    with pytest.raises(ValueError):
        BlockDistribution(10, 2, starts=np.array([0, 0, 10]))  # empty rank


def test_partition_with_custom_distribution():
    from repro.graph.distribution import edge_balanced_distribution
    from repro.graph.generators import rmat_graph

    g = rmat_graph(7, seed=5)
    parts = partition_graph(g, 4, dist=edge_balanced_distribution(g, 4))
    assert sum(pt.num_local_directed_edges for pt in parts) == g.num_directed_edges
    for pt in parts:
        for q, cnt in pt.ghost_counts.items():
            assert parts[q].ghost_counts[pt.rank] == cnt


def test_matching_correct_under_edge_balanced_distribution():
    import numpy as np

    from repro.graph.distribution import edge_balanced_distribution
    from repro.graph.generators import rmat_graph
    from repro.matching import greedy_matching, run_matching
    from repro.mpisim import zero_latency

    g = rmat_graph(7, seed=6)
    ref = greedy_matching(g)
    for model in ("nsr", "ncl"):
        res = run_matching(g, 4, model, config=RunConfig(machine=zero_latency(), dist=edge_balanced_distribution(g, 4)))
        assert np.array_equal(res.mate, ref.mate)


def star_graph(n=20, hub=5):
    from repro.graph.build import build_graph

    rest = np.array([v for v in range(n) if v != hub], dtype=np.int64)
    return build_graph(n, np.full(n - 1, hub, dtype=np.int64), rest, seed=1)


@pytest.mark.parametrize("p", [2, 3, 4, 8, 20])
def test_edge_balanced_distribution_star_gives_every_rank_a_vertex(p):
    from repro.graph.distribution import edge_balanced_distribution

    dist = edge_balanced_distribution(star_graph(), p)
    assert np.all(np.diff(dist.starts) >= 1)
    assert dist.starts[-1] == 20


def _clamped_cuts(g, p):
    """The cut clamp before hubs were handled: right wherever it gave
    every rank a vertex."""
    n = g.num_vertices
    targets = np.arange(1, p, dtype=np.float64) * (float(g.xadj[-1]) / p)
    cuts = np.searchsorted(g.xadj[1:], targets, side="left") + 1
    cuts = np.maximum.accumulate(np.clip(cuts, 1, n - 1))
    for i in range(len(cuts)):
        cuts[i] = min(max(cuts[i], i + 1), n - (p - 1 - i))
    return np.concatenate(([0], cuts, [n]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_balanced_distribution_on_hub_graphs(data):
    from repro.graph.build import build_graph
    from repro.graph.distribution import edge_balanced_distribution

    n = data.draw(st.integers(2, 40), label="n")
    hubs = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="hubs")
    u, v = [], []
    for h in hubs:  # a hub reaches a random share of the graph
        for x in data.draw(st.sets(st.integers(0, n - 1)), label="spokes"):
            u.append(h)
            v.append(x)
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   max_size=2 * n), label="edges"):
        u.append(a)
        v.append(b)
    g = build_graph(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
                    seed=0)
    p = data.draw(st.integers(1, n), label="p")
    starts = edge_balanced_distribution(g, p).starts
    assert starts[0] == 0 and starts[-1] == n
    assert np.all(np.diff(starts) >= 1)
    old = _clamped_cuts(g, p)
    if np.all(np.diff(old) >= 1):
        assert np.array_equal(starts, old)
