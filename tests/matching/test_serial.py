"""Serial matching: greedy == locally-dominant, quality bounds, validity."""

import numpy as np
import pytest

from repro.graph.csr import from_edges
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    grid2d_graph,
    path_graph,
    rgg_graph,
    rmat_graph,
    star_graph,
)
from repro.matching import (
    NO_MATE,
    check_half_approx,
    check_matching_maximal,
    check_matching_valid,
    exact_matching_weight,
    greedy_matching,
    locally_dominant_matching,
    matching_weight,
)

FAMILIES = [
    ("path", path_graph(61, seed=1)),
    ("grid", grid2d_graph(9, 7, seed=2)),
    ("star", star_graph(20, seed=3)),
    ("complete", complete_graph(11, seed=4)),
    ("er", erdos_renyi(150, 5.0, seed=5)),
    ("rmat", rmat_graph(7, seed=6)),
    ("rgg", rgg_graph(150, target_avg_degree=6, seed=7)),
]


@pytest.mark.parametrize("name,g", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_greedy_equals_locally_dominant(name, g):
    a = greedy_matching(g)
    b = locally_dominant_matching(g)
    assert np.array_equal(a.mate, b.mate)
    assert a.weight == pytest.approx(b.weight)


@pytest.mark.parametrize("name,g", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_matching_valid_and_maximal(name, g):
    for res in (greedy_matching(g), locally_dominant_matching(g)):
        check_matching_valid(g, res.mate)
        check_matching_maximal(g, res.mate)


@pytest.mark.parametrize(
    "g",
    [
        path_graph(30, seed=1),
        grid2d_graph(5, 6, seed=2),
        erdos_renyi(60, 4.0, seed=3),
        rmat_graph(6, seed=4),
    ],
    ids=["path", "grid", "er", "rmat"],
)
def test_half_approx_bound(g):
    res = locally_dominant_matching(g)
    got, opt = check_half_approx(g, res.mate)
    assert got <= opt + 1e-9


def test_weight_matches_reported():
    g = erdos_renyi(80, 4.0, seed=9)
    res = greedy_matching(g)
    assert matching_weight(g, res.mate) == pytest.approx(res.weight)


@pytest.mark.parametrize("name,g", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_matching_weight_is_the_vertex_order_sum_to_the_bit(name, g):
    """The golden weight pins were frozen on a left-to-right loop over
    vertices; float addition does not commute, so the order is pinned."""
    mate = greedy_matching(g).mate
    total = 0.0
    for v, u in enumerate(mate.tolist()):
        if u > v:
            total += g.edge_weight(v, u)
    assert matching_weight(g, mate) == total
    assert matching_weight(g, np.full(g.num_vertices, NO_MATE)) == 0.0


def test_matching_weight_rejects_a_pair_that_is_no_edge():
    g = path_graph(6, seed=1)
    mate = np.array([1, 0, 5, NO_MATE, NO_MATE, 2])
    with pytest.raises(KeyError, match=r"no edge \{2, 5\}"):
        matching_weight(g, mate)


def test_single_edge_graph():
    g = from_edges(2, [0], [1], [3.5])
    res = locally_dominant_matching(g)
    assert res.mate.tolist() == [1, 0]
    assert res.weight == pytest.approx(3.5)


def test_edgeless_graph():
    g = from_edges(4, [], [])
    res = locally_dominant_matching(g)
    assert np.all(res.mate == NO_MATE)
    assert res.weight == 0.0


def test_triangle_picks_heaviest_edge():
    g = from_edges(3, [0, 1, 2], [1, 2, 0], [1.0, 5.0, 2.0])
    res = greedy_matching(g)
    assert res.mate[1] == 2 and res.mate[2] == 1
    assert res.mate[0] == NO_MATE
    assert np.array_equal(locally_dominant_matching(g).mate, res.mate)


def test_uniform_weight_path_still_correct_without_jitter():
    """Exact ties broken by the hash inside the comparison key (§III)."""
    g = path_graph(41, weight_scheme="unit", distinct_weights=False, seed=1)
    a = greedy_matching(g)
    b = locally_dominant_matching(g)
    check_matching_valid(g, a.mate)
    check_matching_maximal(g, a.mate)
    assert np.array_equal(a.mate, b.mate)


def test_heavy_edge_always_matched():
    """The globally heaviest edge is always in the matching."""
    g = erdos_renyi(100, 5.0, seed=12)
    u, v, w = g.edge_list()
    i = int(np.argmax(w))
    res = locally_dominant_matching(g)
    assert res.mate[u[i]] == v[i]


def test_exact_weight_oracle_sane():
    g = path_graph(5, seed=1)
    opt = exact_matching_weight(g)
    res = greedy_matching(g)
    assert opt >= res.weight


def test_num_matched_and_pairs():
    g = path_graph(10, seed=2)
    res = greedy_matching(g)
    pairs = res.pairs()
    assert len(pairs) == res.num_matched_edges
    assert all(a < b for a, b in pairs)


def test_four_way_algorithm_agreement():
    """greedy == locally-dominant == vectorized == suitor on one instance
    (path-growing intentionally differs; it only shares the guarantee)."""
    from repro.matching.suitor import suitor_matching
    from repro.matching.vectorized import locally_dominant_matching_vec

    g = erdos_renyi(200, 6.0, seed=77)
    results = [
        greedy_matching(g),
        locally_dominant_matching(g),
        locally_dominant_matching_vec(g),
        suitor_matching(g),
    ]
    for r in results[1:]:
        assert np.array_equal(r.mate, results[0].mate)
