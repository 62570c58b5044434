"""CSRGraph structure, queries, permutation, validation."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph, from_edges, from_scipy, to_networkx


def triangle():
    return from_edges(3, [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])


def test_from_edges_structure():
    g = triangle()
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.num_directed_edges == 6
    assert sorted(g.neighbors(0).tolist()) == [1, 2]
    assert g.degree(1) == 2
    assert g.degrees().tolist() == [2, 2, 2]


def test_edge_weight_lookup():
    g = triangle()
    assert g.edge_weight(0, 1) == 1.0
    assert g.edge_weight(1, 0) == 1.0
    assert g.edge_weight(2, 0) == 3.0
    with pytest.raises(KeyError):
        from_edges(4, [0], [1]).edge_weight(2, 3)


def test_has_edge():
    g = triangle()
    assert g.has_edge(0, 2)
    assert not from_edges(4, [0], [1]).has_edge(2, 3)


def test_total_weight():
    assert triangle().total_weight() == pytest.approx(6.0)


def test_edge_list_roundtrip():
    g = triangle()
    u, v, w = g.edge_list()
    g2 = from_edges(3, u, v, w)
    assert np.array_equal(g2.xadj, g.xadj)
    assert np.array_equal(g2.adjncy, g.adjncy)
    assert np.array_equal(g2.weights, g.weights)


def test_isolated_vertices():
    g = from_edges(5, [0], [1])
    assert g.degree(4) == 0
    assert g.num_edges == 1


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        from_edges(3, [1], [1])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        from_edges(2, [0], [5])


def test_permuted_preserves_structure():
    g = triangle()
    perm = np.array([2, 0, 1])
    gp = g.permuted(perm)
    # old edge (0,1,w=1.0) -> new (2,0)
    assert gp.edge_weight(2, 0) == 1.0
    assert gp.edge_weight(0, 1) == 2.0  # old (1,2)
    assert gp.total_weight() == pytest.approx(g.total_weight())


def test_permuted_rejects_non_permutation():
    g = triangle()
    with pytest.raises(ValueError):
        g.permuted(np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        g.permuted(np.array([0, 1]))


def test_validate_passes_on_good_graph():
    triangle().validate()


def test_validate_catches_asymmetric_weights():
    g = triangle()
    w = g.weights.copy()
    w[0] += 1.0
    bad = CSRGraph(xadj=g.xadj, adjncy=g.adjncy, weights=w)
    with pytest.raises(ValueError):
        bad.validate()


def test_constructor_validates_xadj():
    with pytest.raises(ValueError):
        CSRGraph(
            xadj=np.array([0, 2]),
            adjncy=np.array([1]),
            weights=np.array([1.0]),
        )


def test_memory_bytes_positive():
    assert triangle().memory_bytes() > 0


def test_from_scipy_roundtrip():
    import scipy.sparse as sp

    g = triangle()
    u, v, w = g.edge_list()
    n = g.num_vertices
    A = sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )
    g2 = from_scipy(A)
    assert g2.num_edges == g.num_edges
    assert g2.total_weight() == pytest.approx(g.total_weight())


def test_to_networkx():
    G = to_networkx(triangle())
    assert G.number_of_nodes() == 3
    assert G.number_of_edges() == 3
    assert G[0][1]["weight"] == 1.0


def test_subgraph_weight():
    g = triangle()
    assert g.subgraph_weight([(0, 1), (1, 2)]) == pytest.approx(3.0)


def test_from_edges_refuses_a_vertex_count_whose_slot_key_overflows():
    # (n - 1) * n + (n - 1) = n * n - 1 must fit int64; the guard runs
    # before the (n + 1)-long xadj would be allocated
    with pytest.raises(ValueError, match="overflows int64"):
        from_edges(3_037_000_500, [0, 1], [1, 2])
    g = from_edges(3, [0, 1], [1, 2])
    assert g.num_directed_edges == 4
