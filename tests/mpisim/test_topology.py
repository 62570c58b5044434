"""Distributed graph topology and neighborhood collectives."""

import pytest

from repro.mpisim import CommMismatchError, Engine, RankFailure, zero_latency
from repro.mpisim.topology import DistGraphTopology, payload_nbytes


def ring_neighbors(rank, p):
    return sorted({(rank - 1) % p, (rank + 1) % p})


def test_topology_creation_and_fields():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(ring_neighbors(ctx.rank, ctx.nprocs))
        return (topo.degree, topo.neighbors)

    res = Engine(5, zero_latency()).run(prog)
    assert res.rank_results[0] == (2, [1, 4])
    assert res.rank_results[2] == (2, [1, 3])


def test_asymmetric_topology_rejected():
    def prog(ctx):
        nbrs = [1] if ctx.rank == 0 else []
        yield from ctx.dist_graph_create_adjacent_g(nbrs)

    with pytest.raises((RankFailure, CommMismatchError)):
        Engine(2, zero_latency()).run(prog)


def test_self_neighbor_rejected():
    def prog(ctx):
        yield from ctx.dist_graph_create_adjacent_g([ctx.rank])

    with pytest.raises((RankFailure, CommMismatchError)):
        Engine(2, zero_latency()).run(prog)


def test_validate_symmetric_direct():
    DistGraphTopology.validate_symmetric([[1], [0]])
    with pytest.raises(CommMismatchError):
        DistGraphTopology.validate_symmetric([[1], []])
    with pytest.raises(CommMismatchError):
        DistGraphTopology.validate_symmetric([[5], [0]])


def test_neighbor_alltoall_ring():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(ring_neighbors(ctx.rank, ctx.nprocs))
        got = yield from topo.neighbor_alltoall_g([(ctx.rank, q) for q in topo.neighbors])
        # item i came from neighbors[i] and was addressed to us
        for q, item in zip(topo.neighbors, got):
            assert item == (q, ctx.rank)
        return True

    res = Engine(6, zero_latency()).run(prog)
    assert all(res.rank_results)


def test_neighbor_alltoall_wrong_count():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(ring_neighbors(ctx.rank, ctx.nprocs))
        yield from topo.neighbor_alltoall_g([0])  # degree is 2

    with pytest.raises(RankFailure):
        Engine(4, zero_latency()).run(prog)


def test_neighbor_alltoallv_variable_sizes():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(ring_neighbors(ctx.rank, ctx.nprocs))
        items = [[ctx.rank] * (q + 1) for q in topo.neighbors]
        recv, nbytes = yield from topo.neighbor_alltoallv_g(items)
        for q, item in zip(topo.neighbors, recv):
            assert item == [q] * (ctx.rank + 1)
        assert len(nbytes) == topo.degree
        return True

    res = Engine(5, zero_latency()).run(prog)
    assert all(res.rank_results)


def test_empty_neighborhood():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g([])
        got = yield from topo.neighbor_alltoall_g([])
        recv, _ = yield from topo.neighbor_alltoallv_g([])
        return (got, recv)

    res = Engine(3, zero_latency()).run(prog)
    assert res.rank_results == [([], [])] * 3


def test_star_topology():
    """Rank 0 is the hub — its neighborhood collective couples to all."""

    def prog(ctx):
        nbrs = list(range(1, ctx.nprocs)) if ctx.rank == 0 else [0]
        topo = yield from ctx.dist_graph_create_adjacent_g(nbrs)
        got = yield from topo.neighbor_alltoall_g([ctx.rank * 100 + q for q in topo.neighbors])
        return got

    res = Engine(4, zero_latency()).run(prog)
    assert res.rank_results[0] == [100, 200, 300]
    assert res.rank_results[2] == [2]


def test_ncl_matrix_recorded():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(ring_neighbors(ctx.rank, ctx.nprocs))
        yield from topo.neighbor_alltoall_g([1] * topo.degree, nbytes_per_item=16)

    res = Engine(4, zero_latency()).run(prog)
    assert res.counters.ncl.counts[0, 1] == 1
    assert res.counters.ncl.bytes[0, 1] == 16


def test_payload_nbytes():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(5) == 8
    assert payload_nbytes((1, 2, 3)) == 24
    assert payload_nbytes(b"abc") == 3
    import numpy as np

    assert payload_nbytes(np.zeros(4, dtype=np.int64)) == 32
