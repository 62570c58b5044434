"""Pin the exact interleaving of compute charges and sends.

``MatchingState`` charges virtual time (``charge``) and stages messages
(``push``) as it runs FINDMATE, PROCESSNEIGHBORS and PROCESSINCOMINGDATA.
The simulated clocks depend on the order of those two calls, not only on
their totals, so a change in how the transitions are driven (plain calls
or generators, flat loops or nested ones) must leave the interleaved log
unchanged. Every rank here is driven by hand: each ``start_g``, then each
``drain_work_g``, then one ``handle_g`` + ``drain_work_g`` per message in
FIFO order until the wire is empty. ``push`` returns nothing, a generator
that finishes at once, or one that parks once, in rotation, so all three
kinds of send a backend can hand back are in the log.
"""

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.graph.csr import from_edges
from repro.graph.distribution import partition_graph
from repro.graph.generators import rgg_graph
from repro.matching.serial import greedy_matching
from repro.matching.state import MatchingState


def _sent_g(log, rank, park):
    log.append(("sent", rank))
    if park:
        yield "park"


def _drive(gen, log):
    """Run ``gen`` to the end, logging every park it reaches."""
    for _ in gen:
        log.append(("park",))


def interleaving_log(g, nprocs, *, renounce=None, **kw):
    log: list[tuple] = []
    wire: deque = deque()
    states = []
    for lg in partition_graph(g, nprocs):
        r = lg.rank

        def charge(units, r=r):
            log.append(("charge", r, units))

        def push(ctx_id, dest, x, y, r=r):
            turn = len(wire) % 3
            log.append(("push", r, int(ctx_id), dest, x, y))
            wire.append((dest, int(ctx_id), x, y))
            return None if turn == 0 else _sent_g(log, r, turn == 2)

        states.append(MatchingState(lg, push, charge, **kw))
    for st in states:
        _drive(st.start_g(), log)
    if renounce is not None:
        for st in states:
            if st.lg.rank != renounce:
                _drive(st.renounce_rank_g(renounce), log)
    for st in states:
        _drive(st.drain_work_g(), log)
    sent = 0
    while wire:
        dest, c, x, y = wire.popleft()
        sent += 1
        if dest == renounce:
            continue
        _drive(states[dest].handle_g(c, x, y), log)
        _drive(states[dest].drain_work_g(), log)
    mate = np.concatenate([st.mate_global() for st in states])
    return log, mate, sent


def path_graph():
    n = 16
    return from_edges(n, np.arange(n - 1), np.arange(1, n))


def star_graph():
    """Hub 0 on rank 0 with leaves on every rank, and a few leaf chords."""
    leaves = np.arange(1, 12)
    u = np.concatenate([np.zeros(11, dtype=np.int64), [1, 4, 7, 9]])
    v = np.concatenate([leaves, [5, 8, 10, 11]])
    w = np.concatenate([np.linspace(1.0, 3.0, 11), [2.5, 0.5, 4.0, 1.5]])
    return from_edges(12, u, v, w)


# name -> (graph, nprocs, options, sha256 of the log, log length, messages);
# recorded before FINDMATE / PROCESSNEIGHBORS became plain calls
CASES = {
    "path-id": (path_graph, 3, {"tie_break": "id"},
                "bfe587861e262255bdc87f984070ee04e25c59f7febb236bed3fa9e1870bbb10", 54, 4),
    "star": (star_graph, 3, {},
             "27fc402c6683baa2dd2b67da49b80e8b5427fb3d618136406761a9991dbaa38c", 111, 22),
    "star-renounce": (star_graph, 3, {"renounce": 2},
                      "c19c47b33f95d95a7dc292361f71d4ac00799069972c03164b1bb4ed479b3d4e", 84, 16),
    "rgg500": (lambda: rgg_graph(500, target_avg_degree=8, seed=3), 4, {},
               "a97e061db1d154a85f4ad539bec4bcb56ab79adc934b4e605da72bc9516c13df", 2772, 395),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_charge_push_interleaving_pinned(name):
    make, nprocs, kw, digest, length, messages = CASES[name]
    g = make()
    log, mate, sent = interleaving_log(g, nprocs, **kw)
    got = hashlib.sha256(repr(log).encode()).hexdigest()
    assert (got, len(log), sent) == (digest, length, messages)
    if "renounce" not in kw and kw.get("tie_break", "hash") == "hash":
        assert np.array_equal(mate, greedy_matching(g).mate)
