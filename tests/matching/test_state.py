"""Unit tests of the MatchingState transition system in isolation.

These exercise FINDMATE / PROCESSNEIGHBORS / PROCESSINCOMINGDATA on
hand-built two-rank partitions with a scripted push recorder instead of a
live engine, pinning down the protocol invariants one transition at a
time.
"""

import numpy as np
import pytest

from repro.graph.csr import from_edges
from repro.graph.distribution import partition_graph
from repro.matching.contexts import Ctx
from repro.matching.state import DEAD, FREE, MATCHED, NO_MATE, MatchingState
from repro.mpisim.engine import run_inline


class PushRecorder:
    def __init__(self):
        self.sent = []

    def __call__(self, ctx_id, target_rank, x, y):
        self.sent.append((ctx_id, target_rank, x, y))


def make_state(g, nprocs, rank, **kw):
    parts = partition_graph(g, nprocs)
    rec = PushRecorder()
    st = MatchingState(parts[rank], push=rec, charge=lambda units: None, **kw)
    return st, rec


def cross_pair_graph():
    """0-1 owned by rank 0; 2-3 by rank 1; edges 0-1(w~), 1-2(heavy), 2-3."""
    return from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 5.0, 2.0])


def test_initial_counters():
    g = cross_pair_graph()
    st, _ = make_state(g, 2, 0)
    assert st.nghosts == 1  # the single cross edge 1-2
    assert st.awaiting == 0
    assert not st.locally_done()


def test_start_sends_request_for_heavy_cross_edge():
    g = cross_pair_graph()
    st, rec = make_state(g, 2, 0)
    run_inline(st.start_g())
    # vertex 1's best is ghost 2 (w=5) -> REQUEST to rank 1
    assert (Ctx.REQUEST, 1, 2, 1) in rec.sent
    assert st.awaiting == 1
    assert st.nghosts == 0  # pair deactivated at request time


def test_crossing_request_matches():
    g = cross_pair_graph()
    st, rec = make_state(g, 2, 0)
    run_inline(st.start_g())
    # rank 1's vertex 2 also prefers 1: its REQUEST arrives
    run_inline(st.handle_g(Ctx.REQUEST, 1, 2))
    assert st.status[1] == MATCHED
    assert st.mate[1] == 2
    assert st.awaiting == 0
    run_inline(st.drain_work_g())
    assert st.locally_done()
    # vertex 0 lost its only neighbor -> becomes DEAD, no message (no ghosts)
    assert st.status[0] == DEAD


def test_reject_triggers_refind():
    g = cross_pair_graph()
    st, rec = make_state(g, 2, 0)
    run_inline(st.start_g())
    rec.sent.clear()
    run_inline(st.handle_g(Ctx.REJECT, 1, 2))  # ghost 2 says no
    # vertex 1 falls back to local neighbor 0 -> local match
    assert st.status[1] == MATCHED
    assert st.mate[1] == 0
    assert st.mate[0] == 1
    assert st.awaiting == 0
    run_inline(st.drain_work_g())
    assert st.locally_done()


def test_invalid_resolves_like_reject():
    g = cross_pair_graph()
    st, _ = make_state(g, 2, 0)
    run_inline(st.start_g())
    run_inline(st.handle_g(Ctx.INVALID, 1, 2))
    assert st.mate[1] == 0  # fell back to local match
    assert st.awaiting == 0


def test_deferred_proposal_then_pointer_arrives():
    # rank1 side: vertex 2 prefers ghost 1? build weights so vertex 2's
    # best is owned 3 first; after 3 matches elsewhere impossible here, so
    # craft: 2-3 light, 1-2 heavy: 2 prefers ghost 1 -> sends request.
    g = from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 5.0, 2.0])
    st, rec = make_state(g, 2, 1)  # owns {2, 3}
    run_inline(st.start_g())
    assert (Ctx.REQUEST, 0, 1, 2) in rec.sent
    # crossing request from vertex 1 arrives -> mutual match
    run_inline(st.handle_g(Ctx.REQUEST, 2, 1))
    assert st.mate[0] == 1  # local index 0 == global 2
    run_inline(st.drain_work_g())
    assert st.locally_done()


def test_proposal_parked_until_local_decision():
    # rank0 owns {0,1}; 1's best is LOCAL 0 (w=9) over ghost 2 (w=5).
    g = from_edges(4, [0, 1, 2], [1, 2, 3], [9.0, 5.0, 2.0])
    st, rec = make_state(g, 2, 0)
    # ghost 2 proposes to 1 before rank 0 starts
    run_inline(st.handle_g(Ctx.REQUEST, 1, 2))
    assert 2 in st.pending[1]
    assert st.status[1] == FREE
    run_inline(st.start_g())
    # 0 and 1 point at each other -> local match; neighbors processed
    run_inline(st.drain_work_g())
    assert st.mate[1] == 0
    # the parked proposer got a REJECT
    assert (Ctx.REJECT, 1, 2, 1) in rec.sent
    assert st.locally_done()


def test_eager_reject_variant_rejects_parked_proposal():
    g = from_edges(4, [0, 1, 2], [1, 2, 3], [9.0, 5.0, 2.0])
    st, rec = make_state(g, 2, 0, eager_reject=True)
    run_inline(st.start_g())  # 0-1 match locally, processes neighbors
    run_inline(st.drain_work_g())
    rec.sent.clear()
    run_inline(st.handle_g(Ctx.REQUEST, 1, 2))  # late proposal to a matched vertex
    # pair was already deactivated by PROCESSNEIGHBORS -> no duplicate send
    assert rec.sent == []


def test_request_to_matched_vertex_rejected_once():
    # vertex 1 matches locally; ghost 2's request arrives afterwards but
    # PROCESSNEIGHBORS has not yet run (work queued).
    g = from_edges(4, [0, 1, 2], [1, 2, 3], [9.0, 5.0, 2.0])
    st, rec = make_state(g, 2, 0)
    run_inline(st.start_g())  # 0-1 matched, work queue holds both
    rec.sent.clear()
    run_inline(st.handle_g(Ctx.REQUEST, 1, 2))  # arrives before drain_work
    assert (Ctx.REJECT, 1, 2, 1) in rec.sent
    rec.sent.clear()
    run_inline(st.drain_work_g())  # must NOT send a second reject for the same pair
    assert all(not (c == Ctx.REJECT and x == 2) for c, _, x, _ in rec.sent)


def test_invalidate_broadcasts_to_active_ghosts_only():
    # star: center 2 owned by rank1; leaves 0,1 on rank0, 3 on rank1.
    g = from_edges(4, [2, 2, 2], [0, 1, 3], [5.0, 4.0, 3.0])
    st, rec = make_state(g, 2, 0)  # rank0 owns {0,1}, both only know ghost 2
    run_inline(st.start_g())
    # both 0 and 1 request 2 (their only candidate)
    reqs = [s for s in rec.sent if s[0] == Ctx.REQUEST]
    assert len(reqs) == 2
    rec.sent.clear()
    # 2 matches 0 (crossing REQUEST); 1 gets a REJECT, has nothing left
    run_inline(st.handle_g(Ctx.REQUEST, 0, 2))
    run_inline(st.handle_g(Ctx.REJECT, 1, 2))
    assert st.status[0] == MATCHED
    assert st.status[1] == DEAD
    run_inline(st.drain_work_g())
    assert st.locally_done()


def test_foreign_vertex_rejected():
    g = cross_pair_graph()
    st, _ = make_state(g, 2, 0)
    with pytest.raises(ValueError):
        run_inline(st.handle_g(Ctx.REQUEST, 3, 0))  # vertex 3 belongs to rank 1


def test_ack_is_ignored():
    g = cross_pair_graph()
    st, rec = make_state(g, 2, 0)
    run_inline(st.start_g())
    before = (st.nghosts, st.awaiting, st.stats.matched_remote)
    run_inline(st.handle_g(Ctx.ACK, 1, 2))
    assert (st.nghosts, st.awaiting, st.stats.matched_remote) == before


def test_mate_global_returns_copy():
    g = cross_pair_graph()
    st, _ = make_state(g, 2, 0)
    m = st.mate_global()
    m[0] = 99
    assert st.mate[0] == NO_MATE
