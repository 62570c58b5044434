"""Neighbourhood exchanges against a brute-force reference (Hypothesis).

Random symmetric process graphs — isolated ranks, stars, and mostly
empty lanes, the shape of a sparse superstep — run two rounds of
``neighbor_alltoall``, ``neighbor_alltoallv_g`` or ``ineighbor_alltoallv``.
Every received item and byte count must be what the reference says the
neighbour sent, every rank's clock must equal the machine model's
formula evaluated on the recorded entry times (bit for bit), the ``ncl``
communication matrix must hold exactly the lanes that were exchanged,
and no collective may outlive its last pickup.

``tests/conftest.py`` registers the ``deep`` profile
(``--hypothesis-profile=deep``, ten times the examples); CI runs this
file under it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpisim import Engine, cori_aries

ROUNDS = 2
OVERLAP = 2e-6  #: compute between ineighbor issue and wait


@st.composite
def process_graphs(draw):
    """Sorted symmetric adjacency: random, a star, or no edges at all."""
    p = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["random", "star", "none"]))
    adj = [set() for _ in range(p)]
    if shape == "star" and p > 1:
        hub = draw(st.integers(0, p - 1))
        edges = [(hub, q) for q in range(p) if q != hub]
    elif shape == "random" and p > 1:
        pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return [sorted(ns) for ns in adj]


@st.composite
def exchanges(draw):
    adjacency = draw(process_graphs())
    p = len(adjacency)
    delays = draw(st.lists(
        st.lists(st.sampled_from([0.0, 1e-6, 3e-6]), min_size=p, max_size=p),
        min_size=ROUNDS, max_size=ROUNDS))
    # At most one lane in five carries data (in expectation).
    density = draw(st.sampled_from([0.0, 0.1, 0.2]))
    rng = draw(st.randoms(use_true_random=False))
    full = {
        (k, r, q): rng.randint(1, 4)
        for k in range(ROUNDS) for r in range(p) for q in adjacency[r]
        if rng.random() < density
    }
    return adjacency, delays, full


def lane(full, k, r, q):
    """What rank ``r`` sends ``q`` in round ``k``: a tuple of ints, empty
    unless drawn full."""
    return (k, r, q, 7) * full.get((k, r, q), 0)


def run(variant, adjacency, delays, full):
    p = len(adjacency)

    def prog(ctx):
        me = ctx.rank
        topo = yield from ctx.dist_graph_create_adjacent_g(adjacency[me])
        log = []
        for k in range(ROUNDS):
            ctx.compute(seconds=delays[k][me])
            lanes = [lane(full, k, me, q) for q in topo.neighbors]
            t_enter = ctx.now
            if variant == "neighbor_alltoall":
                got = yield from topo.neighbor_alltoall_g(lanes, nbytes_per_item=8)
                log.append((t_enter, ctx.now, list(got), None, None))
                continue
            nbytes = [8 * len(x) for x in lanes]
            if variant == "neighbor_alltoallv":
                got, nb = yield from topo.neighbor_alltoallv_g(lanes, nbytes)
                log.append((t_enter, ctx.now, list(got), list(nb), None))
                continue
            req = topo.ineighbor_alltoallv(lanes, nbytes)
            t_issued = ctx.now
            ctx.compute(seconds=OVERLAP)
            t_wait = ctx.now
            got, nb = yield from req.wait_g()
            log.append((t_enter, ctx.now, list(got), list(nb), (t_issued, t_wait)))
        return log

    eng = Engine(p, cori_aries())
    res = eng.run(prog)
    return eng, res


def reference_clock(m, variant, adjacency, full, logs, k, r):
    """The machine model's formula for rank ``r``'s clock after round
    ``k``, evaluated on the recorded entry times in the engine's float
    operation order."""
    deg = len(adjacency[r])
    t_enter = logs[r][k][0]
    wake = max(logs[q][k][0] for q in [r, *adjacency[r]])
    if variant == "neighbor_alltoall":
        return wake + m.neighbor_alltoall_cost(deg, 8)
    send = [8 * len(lane(full, k, r, q)) for q in adjacency[r]]
    recv = [8 * len(lane(full, k, q, r)) for q in adjacency[r]]
    active_out = sum(1 for n in send if n > 0)
    active_in = sum(1 for n in recv if n > 0)
    if variant == "neighbor_alltoallv":
        return wake + m.neighbor_alltoallv_cost(
            deg, sum(send), sum(recv), active_lanes=active_out + active_in)
    t_issued, t_wait = logs[r][k][4]
    assert t_issued == t_enter + (m.o_ncl_setup + active_out * m.o_ncl_per_neighbor)
    woke = max(t_wait, wake)
    wire = (deg * m.neighbor_alpha() + active_in * m.o_ncl_per_neighbor
            + (sum(send) + sum(recv)) * (m.beta + m.pack_byte_cost))
    ready_at = max(wake, t_issued + wire)
    return woke + (ready_at - woke) if ready_at > woke else woke


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=exchanges(),
       variant=st.sampled_from(
           ["neighbor_alltoall", "neighbor_alltoallv", "ineighbor_alltoallv"]))
def test_exchange_matches_brute_force(case, variant):
    adjacency, delays, full = case
    p = len(adjacency)
    eng, res = run(variant, adjacency, delays, full)
    m = eng.machine
    logs = res.rank_results
    messages = np.zeros((p, p), dtype=np.int64)
    volume = np.zeros((p, p), dtype=np.int64)
    for k in range(ROUNDS):
        for r in range(p):
            nbrs = adjacency[r]
            _, t_after, got, nb, _ = logs[r][k]
            assert got == [lane(full, k, q, r) for q in nbrs]
            if variant != "neighbor_alltoall":
                assert nb == [8 * len(lane(full, k, q, r)) for q in nbrs]
            assert t_after == reference_clock(m, variant, adjacency, full, logs, k, r)
            for q in nbrs:
                messages[r, q] += 1
                volume[r, q] += (8 if variant == "neighbor_alltoall"
                                 else 8 * len(lane(full, k, r, q)))
    assert res.final_clocks == tuple(log[-1][1] for log in logs)
    assert np.array_equal(res.counters.ncl.counts, messages)
    assert np.array_equal(res.counters.ncl.bytes, volume)
    assert eng.coll_ops() == {}

