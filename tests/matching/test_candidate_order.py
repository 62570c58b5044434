"""The packed-key sorts against the lexsorts they replaced.

``tests/matching/candidate_oracle.py`` keeps the old definitions. The
inputs force every case a packed key can get wrong: weight ties inside a
row, duplicate edges (full ties, down to the slot), unit weights,
negative weights, ``-0.0`` next to ``+0.0`` (equal to lexsort, two bit
patterns to a naive key) and both infinities. NaN is refused when the
CSR is built. ``--hypothesis-profile=deep`` runs ten times the examples.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, from_edges
from repro.graph.distribution import partition_graph
from repro.graph.generators.classic import grid2d_graph, path_graph
from repro.matching.serial import greedy_matching
from repro.matching.state import MatchingState
from repro.util.hashing import edge_hash_array, edge_order
from tests.matching.candidate_oracle import (
    candidate_order,
    csr_rows,
    greedy_order,
)

#: few values, so rows tie; every sign of zero and infinity
TIED = [1.0, 2.0, -1.0, 0.0, -0.0, np.inf, -np.inf, -2.5, 5e-324, -5e-324]
weights = st.one_of(st.sampled_from(TIED), st.floats(allow_nan=False))


@st.composite
def edge_lists(draw, max_vertices=24):
    """``(n, u, v, w)``: no self-loops, duplicates in either orientation
    allowed, weights tied or unit."""
    n = draw(st.integers(2, max_vertices))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]), max_size=4 * n))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    if draw(st.booleans()):
        w = np.ones(len(pairs))
    else:
        w = np.array(draw(st.lists(weights, min_size=len(pairs),
                                   max_size=len(pairs))), dtype=np.float64)
    return n, u, v, w


def assert_cand_matches_oracle(g, nprocs, tie_break):
    for lg in partition_graph(g, nprocs):
        st_ = MatchingState(lg, lambda *a: None, lambda units: None,
                            tie_break=tie_break)
        assert st_.cand.tolist() == candidate_order(lg, tie_break).tolist()


#: one row whose weights lexsort holds equal: the key must decide
SIGNED_ZEROS = (5, np.zeros(4, dtype=np.int64), np.arange(1, 5),
                np.array([-0.0, 0.0, -0.0, 0.0]))


@given(edge_lists(), st.integers(1, 4), st.sampled_from(["hash", "id"]))
@example(SIGNED_ZEROS, 1, "hash")
@example(SIGNED_ZEROS, 1, "id")
def test_cand_equals_lexsort_oracle(edges, nprocs, tie_break):
    n, u, v, w = edges
    assert_cand_matches_oracle(from_edges(n, u, v, w), min(nprocs, n), tie_break)


@pytest.mark.parametrize("tie_break", ["hash", "id"])
@pytest.mark.parametrize("g", [
    path_graph(40, distinct_weights=False, weight_scheme="unit"),
    grid2d_graph(6, 7, distinct_weights=False, weight_scheme="unit"),
], ids=["path", "grid"])
def test_cand_equals_oracle_on_unit_weight_graphs(g, tie_break):
    assert np.all(g.weights == 1.0)
    assert_cand_matches_oracle(g, 3, tie_break)


@given(edge_lists())
def test_greedy_edge_order_equals_lexsort_oracle(edges):
    _, u, v, w = edges
    h = edge_hash_array(u, v)
    assert edge_order(w, h).tolist() == greedy_order(w, h).tolist()


def test_edge_order_holds_signed_zeros_equal():
    # equal weights, so the key decides: -0.0 must not sort after +0.0
    w = np.array([0.0, -0.0, 0.0, -0.0])
    key = np.array([3, 2, 1, 0], dtype=np.uint64)
    assert edge_order(w, key).tolist() == [0, 1, 2, 3]
    assert edge_order(w, key).tolist() == greedy_order(w, key).tolist()


@given(edge_lists())
def test_from_edges_equals_lexsort_csr(edges):
    n, u, v, w = edges
    g = from_edges(n, u, v, w)
    xadj, adjncy, ww = csr_rows(n, u, v, w)
    assert g.xadj.tolist() == xadj.tolist()
    assert g.adjncy.tolist() == adjncy.tolist()
    # the bytes, so that -0.0 and +0.0 land in the same slots too
    assert g.weights.tobytes() == ww.tobytes()


def test_nan_weight_refused_when_the_csr_is_built():
    with pytest.raises(ValueError, match="NaN"):
        from_edges(3, [0, 1], [1, 2], [1.0, np.nan])
    g = from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match="NaN"):
        CSRGraph(xadj=g.xadj, adjncy=g.adjncy,
                 weights=np.where(g.weights == 2.0, np.nan, g.weights))


def test_greedy_matching_unchanged_on_tied_weights():
    g = grid2d_graph(5, 5, distinct_weights=False, weight_scheme="unit")
    u, v, w = g.edge_list()
    order = greedy_order(w, edge_hash_array(u, v))
    mate = np.full(g.num_vertices, -1)
    for i in order:
        a, b = u[i], v[i]
        if mate[a] == -1 and mate[b] == -1:
            mate[a], mate[b] = b, a
    assert greedy_matching(g).mate.tolist() == mate.tolist()
