"""Collective semantics and cost-model sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import CommMismatchError, Engine, RankFailure, cori_aries, zero_latency
from repro.mpisim.checkpoint import CheckpointConfig, CheckpointStore
from repro.mpisim.collectives import NeighborhoodCollective
from repro.mpisim.errors import SimKilled
from repro.mpisim.machine import MachineModel
from repro.mpisim.topology import DistGraphTopology, PendingNeighborExchange


def run(p, fn, machine=None):
    return Engine(p, machine or zero_latency()).run(fn)


def test_allreduce_sum():
    res = run(5, lambda ctx: ctx.allreduce_g(ctx.rank))
    assert res.rank_results == [10] * 5


def test_allreduce_min_max():
    def prog(ctx):
        lo = yield from ctx.allreduce_g(ctx.rank, "min")
        hi = yield from ctx.allreduce_g(ctx.rank, "max")
        return (lo, hi)

    res = run(4, prog)
    assert res.rank_results == [(0, 3)] * 4


def test_allreduce_arrays():
    def prog(ctx):
        return (yield from ctx.allreduce_g(np.array([ctx.rank, 1.0])))

    res = run(3, prog)
    for out in res.rank_results:
        assert out.tolist() == [3.0, 3.0]


def test_allreduce_logical():
    res = run(4, lambda ctx: ctx.allreduce_g(ctx.rank == 2, "lor"))
    assert res.rank_results == [True] * 4
    res = run(4, lambda ctx: ctx.allreduce_g(True, "land"))
    assert res.rank_results == [True] * 4


def test_bcast():
    def prog(ctx):
        val = "hello" if ctx.rank == 1 else None
        return (yield from ctx.bcast_g(val, root=1))

    assert run(4, prog).rank_results == ["hello"] * 4


def test_gather():
    def prog(ctx):
        return (yield from ctx.gather_g(ctx.rank * 2, root=0))

    res = run(4, prog)
    assert res.rank_results[0] == [0, 2, 4, 6]
    assert res.rank_results[1] is None


def test_allgather():
    res = run(3, lambda ctx: ctx.allgather_g(chr(97 + ctx.rank)))
    assert res.rank_results == [["a", "b", "c"]] * 3


def test_alltoall():
    def prog(ctx):
        items = [f"{ctx.rank}->{q}" for q in range(ctx.nprocs)]
        return (yield from ctx.alltoall_g(items))

    res = run(3, prog)
    assert res.rank_results[1] == ["0->1", "1->1", "2->1"]


def test_alltoall_wrong_length():
    def prog(ctx):
        yield from ctx.alltoall_g([1, 2])  # wrong for p=3

    with pytest.raises(RankFailure):
        run(3, prog)


def test_barrier_aligns_clocks():
    def prog(ctx):
        ctx.compute(seconds=float(ctx.rank))
        yield from ctx.barrier_g()
        return ctx.now

    res = run(4, prog, machine=cori_aries())
    times = res.rank_results
    # Everyone leaves the barrier at (nearly) the same time >= the slowest.
    assert min(times) >= 3.0
    assert max(times) - min(times) < 1e-9


def test_collective_kind_mismatch_raises():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.barrier_g()
        else:
            yield from ctx.allreduce_g(1)

    with pytest.raises((RankFailure, CommMismatchError)):
        run(2, prog)


def test_repeated_collectives_match_by_sequence():
    def prog(ctx):
        a = yield from ctx.allreduce_g(1)
        b = yield from ctx.allreduce_g(2)
        c = yield from ctx.allreduce_g(ctx.rank)
        return (a, b, c)

    res = run(4, prog)
    assert res.rank_results == [(4, 8, 6)] * 4


def test_collective_counters():
    def prog(ctx):
        yield from ctx.allreduce_g(1)
        yield from ctx.barrier_g()

    res = run(3, prog)
    for rc in res.counters.ranks:
        assert rc.collectives == 2


# ---------------------------------------------------------------------
# cost model sanity
# ---------------------------------------------------------------------

def test_costs_monotonic_in_p():
    m = MachineModel()
    for fn in (m.barrier_cost,):
        assert fn(64) > fn(4)
    assert m.allreduce_cost(64, 8) > m.allreduce_cost(4, 8)
    assert m.alltoall_cost(64, 8) > m.alltoall_cost(4, 8)


def test_costs_monotonic_in_bytes():
    m = MachineModel()
    assert m.allreduce_cost(8, 1 << 20) > m.allreduce_cost(8, 8)
    assert m.bcast_cost(8, 1 << 20) > m.bcast_cost(8, 8)


def test_neighbor_costs_scale_with_degree():
    m = MachineModel()
    assert m.neighbor_alltoall_cost(64, 8) > m.neighbor_alltoall_cost(2, 8)
    assert m.neighbor_alltoallv_cost(64, 0, 0, 0) > m.neighbor_alltoallv_cost(2, 0, 0, 0)


def test_neighbor_alltoallv_active_lane_cost():
    m = MachineModel()
    dense = m.neighbor_alltoallv_cost(32, 1024, 1024, active_lanes=64)
    sparse = m.neighbor_alltoallv_cost(32, 1024, 1024, active_lanes=2)
    assert dense > sparse


def test_allreduce_array_min_max():
    """Element-wise MPI_MIN / MPI_MAX on numpy arrays."""

    def prog(ctx):
        vec = np.array([ctx.rank, -ctx.rank, 5])
        return (
            (yield from ctx.allreduce_g(vec, "min")).tolist(),
            (yield from ctx.allreduce_g(vec, "max")).tolist(),
        )

    res = run(4, prog)
    for lo, hi in res.rank_results:
        assert lo == [0, -3, 5]
        assert hi == [3, 0, 5]


# ---------------------------------------------------------------------
# neighborhood rendezvous: incremental readiness
# ---------------------------------------------------------------------

@st.composite
def rendezvous_cases(draw):
    """A symmetric process graph plus an entry order with (tied) times."""
    p = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adjacency = [[] for _ in range(p)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    order = draw(st.permutations(range(p)))
    times = draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.1 + 0.2, 0.3, 1e-9, 2.5]),
        min_size=p, max_size=p))
    return [sorted(ns) for ns in adjacency], list(zip(order, times))


def brute_force_potential(adjacency, entered, rank):
    """The definition: None unless all of {rank} ∪ N(rank) entered, else
    the latest of their entry times."""
    group = [rank, *adjacency[rank]]
    if any(q not in entered for q in group):
        return None
    return max(entered[q] for q in group)


@settings(max_examples=200, deadline=None)
@given(case=rendezvous_cases())
def test_neighborhood_readiness_matches_brute_force(case):
    adjacency, entries = case
    p = len(adjacency)
    op = NeighborhoodCollective((1, 0), "neighbor_alltoall", p, adjacency, {})
    entered: dict[int, float] = {}
    for rank, t in entries:
        before = [brute_force_potential(adjacency, entered, q) for q in range(p)]
        completed = op.enter(rank, t, None, "neighbor_alltoall", {})
        entered[rank] = t
        after = [brute_force_potential(adjacency, entered, q) for q in range(p)]
        assert [op.wake_potential(q) for q in range(p)] == after
        assert [op.ready_for(q) for q in range(p)] == [a is not None for a in after]
        flipped = [q for q in adjacency[rank]
                   if before[q] is None and after[q] is not None]
        assert sorted(completed) == flipped
        assert op.missing_for(rank) == sorted(
            q for q in adjacency[rank] if q not in entered)
    assert all(op.ready_for(q) for q in range(p))


def test_neighborhood_double_entry_raises():
    op = NeighborhoodCollective((1, 0), "neighbor_alltoall", 2, [[1], [0]], {})
    assert op.enter(0, 1.0, None, "neighbor_alltoall", {}) == []
    with pytest.raises(CommMismatchError, match="twice"):
        op.enter(0, 2.0, None, "neighbor_alltoall", {})
    # the refused entry left the rendezvous state alone
    assert op.wake_potential(1) is None
    assert op.enter(1, 0.5, None, "neighbor_alltoall", {}) == [0]
    assert op.wake_potential(0) == op.wake_potential(1) == 1.0


# Legacy engine names, kept as test ids: every leg runs the one engine.
@pytest.mark.parametrize("engine", ["threaded", "coroutine"])
@pytest.mark.parametrize("neighbors", [
    {0: [1]},            # asymmetric: 0 -> 1 but not 1 -> 0
    {2: [2]},            # self loop
    {1: [7]},            # out of range
    {1: [-1]},           # out of range, negative
], ids=["asymmetric", "self-loop", "too-large", "negative"])
def test_bad_adjacency_raises_on_every_rank(neighbors, engine):
    """The adjacency is validated once per creation, not once per rank;
    every rank must still see the error."""

    def prog(ctx):
        try:
            yield from ctx.dist_graph_create_adjacent_g(neighbors.get(ctx.rank, []))
        except CommMismatchError as exc:
            return str(exc)
        return None

    res = Engine(4, zero_latency()).run(prog)
    assert res.rank_results[0] is not None
    assert res.rank_results == [res.rank_results[0]] * 4


# Legacy engine names, kept as test ids: every leg runs the one engine.
@pytest.mark.parametrize("engine", ["threaded", "coroutine", "vector"])
def test_checkpoint_with_neighborhood_collective_in_flight(engine):
    """A coordinated cut taken while a neighborhood exchange is half
    entered carries the readiness counters: kill, resume from that cut,
    and the late entrants complete the restored rendezvous exactly as in
    the uninterrupted run."""
    path = [[1], [0, 2], [1, 3], [2]]
    interval = 1e-4

    def issue(ctx, topo):
        items = [(ctx.rank, q) for q in topo.neighbors]
        return topo.ineighbor_alltoallv(
            items, nbytes_each=[8 * (ctx.rank + 1)] * topo.degree)

    def prog(ctx):
        req = None
        if ctx.resuming:
            blob = ctx.resume_app_state()
            yield from ctx.reissue_parked_wait_g()
            topo = DistGraphTopology(ctx, blob["scope"], blob["adjacency"])
            if blob["key"] is not None:
                op = ctx._engine.coll_ops()[blob["key"]]
                req = PendingNeighborExchange(
                    topo, blob["key"], op, blob["send_bytes"])
        else:
            topo = yield from ctx.dist_graph_create_adjacent_g(path[ctx.rank])
            blob = {"scope": topo.scope_id, "adjacency": topo.adjacency,
                    "key": None, "send_bytes": None}
            ctx.compute(seconds=interval * (1 + ctx.rank))
            if ctx.rank != 0:  # rank 0 enters only after the cut
                req = issue(ctx, topo)
                blob["key"], blob["send_bytes"] = req._key, req._send_bytes
        ctx.register_checkpoint_provider(lambda: blob)
        yield from ctx.checkpoint_tick_g()
        if req is None:
            req = issue(ctx, topo)
        ctx.compute(seconds=interval / 2)
        return (yield from req.wait_g()), ctx.now

    def run_prog(store, **kw):
        eng = Engine(4, cori_aries(),
                     checkpoint=CheckpointConfig(interval=interval, store=store),
                     **kw)
        return eng.run(prog)

    ref_store = CheckpointStore()
    ref = run_prog(ref_store)
    (op,) = ref_store.at_epoch(0).state()["coll_ops"].values()
    assert sorted(op.entries) == [1, 2, 3]
    assert [op.ready_for(r) for r in range(4)] == [False, False, True, True]

    kill_t = 0.9 * ref.makespan
    kstore = CheckpointStore()
    with pytest.raises(SimKilled):
        run_prog(kstore, kill_at=kill_t)
    snap = kstore.latest_before(kill_t)
    assert snap.sha256 == ref_store.at_epoch(0).sha256
    res = run_prog(CheckpointStore(), restore=snap)
    assert res.rank_results == ref.rank_results
    assert res.final_clocks == ref.final_clocks
    assert res.total_ops == ref.total_ops
    assert np.array_equal(res.counters.ncl.counts, ref.counters.ncl.counts)
    assert np.array_equal(res.counters.ncl.bytes, ref.counters.ncl.bytes)
