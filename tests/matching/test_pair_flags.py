"""The cross-pair flags against the set they replaced.

``MatchingState`` keeps its cross pairs as sorted keys with one active
flag each, and rebuilds the set a checkpoint pickles on demand. The
reference below is that set held the old way: the distinct pairs added
one by one in candidate order (``set(zip(...))``), then ``remove``d as
they are deactivated, and after a restore the unpickled set itself. Both
must agree on every return value, on ``nghosts``, on the iteration order
of ``active_pairs`` and on its pickled bytes, including on hand-built
graphs whose CSR rows are not sorted by neighbour id.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.distribution import partition_graph
from repro.matching.state import MatchingState
from repro.mpisim.checkpoint import PICKLE_PROTOCOL


def dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


class ReferencePairs:
    """The active cross pairs as one set, maintained the old way."""

    def __init__(self, state: MatchingState):
        lo, hi = state.lo, state.hi
        src, ys = [], []
        for i in range(len(state.xadj) - 1):
            for y in state.cand[state.xadj[i]:state.xadj[i + 1]]:
                if not lo <= y < hi:
                    src.append(i)
                    ys.append(y)
        self.pairs = set(zip(src, ys))
        self.nghosts = len(self.pairs)
        self.ghosts_of: dict[int, list[int]] = {}
        for i, y in self.pairs:
            self.ghosts_of.setdefault(i, []).append(y)

    def deactivate(self, i: int, y: int) -> bool:
        pair = (i, y)
        if pair in self.pairs:
            self.pairs.remove(pair)
            self.nghosts -= 1
            return True
        return False


@st.composite
def unsorted_graphs(draw):
    """A hand-built CSR graph: random edges (repeats allowed), each row in
    a random order, weights with ties."""
    n = draw(st.integers(2, 40))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([1.0, 2.0, 2.0, 3.5])),
        max_size=150,
    ))
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        if u != v:
            rows[u].append((v, w))
            rows[v].append((u, w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for row in rows:
        rng.shuffle(row)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=xadj[1:])
    adjncy = np.array([v for r in rows for v, _ in r], dtype=np.int64)
    weights = np.array([w for r in rows for _, w in r], dtype=np.float64)
    return CSRGraph(xadj, adjncy, weights)


def check_equal(state: MatchingState, ref: ReferencePairs) -> None:
    assert state.nghosts == ref.nghosts
    assert list(state.active_pairs) == list(ref.pairs)
    assert dumps(state.active_pairs) == dumps(ref.pairs)


@settings(deadline=None)
@given(
    g=unsorted_graphs(),
    nprocs=st.integers(1, 4),
    rank_seed=st.integers(0, 3),
    tie_break=st.sampled_from(["hash", "id"]),
    ops=st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=60),
    restore_at=st.lists(st.integers(0, 60), max_size=3),
)
def test_pair_flags_match_the_reference_set(g, nprocs, rank_seed, tie_break,
                                            ops, restore_at):
    nprocs = min(nprocs, g.num_vertices)
    parts = partition_graph(g, nprocs)
    lg = parts[rank_seed % nprocs]
    state = MatchingState(lg, push=lambda *a: None, charge=lambda u: None,
                          tie_break=tie_break)
    ref = ReferencePairs(state)
    check_equal(state, ref)

    # every vertex's ghost walk is the initial set's order
    for i in range(lg.num_owned):
        off = state._ghost_off
        assert list(state._ghosts[off[i]:off[i + 1]]) == ref.ghosts_of.get(i, [])

    # Cross pairs, and pairs that are none: a local neighbour, or a ghost
    # of another owned vertex.
    candidates = sorted(ref.pairs) + [
        (i, int(y)) for i in range(lg.num_owned) for y in lg.adjncy
    ]
    for step, (pick, again) in enumerate(ops):
        if step in restore_at:
            state.restore(pickle.loads(dumps(state.snapshot())))
            ref.pairs = pickle.loads(dumps(ref.pairs))
            check_equal(state, ref)
        if not candidates:
            break
        i, y = candidates[pick % len(candidates)]
        assert state._deactivate(i, y) == ref.deactivate(i, y)
        if again:  # a second deactivation of the same pair is a no-op
            assert state._deactivate(i, y) == ref.deactivate(i, y) is False
        if step % 7 == 0:
            check_equal(state, ref)
    check_equal(state, ref)


def test_unsorted_rows_example():
    """Row 0 lists its ghosts in descending id order; rank 0 owns 0..1."""
    xadj = np.array([0, 3, 4, 5, 6], dtype=np.int64)
    adjncy = np.array([3, 2, 1, 0, 0, 0], dtype=np.int64)
    weights = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    lg = partition_graph(CSRGraph(xadj, adjncy, weights), 2)[0]
    state = MatchingState(lg, push=lambda *a: None, charge=lambda u: None)
    ref = ReferencePairs(state)
    assert ref.pairs == {(0, 2), (0, 3)}
    check_equal(state, ref)
    assert state._deactivate(0, 3) and ref.deactivate(0, 3)
    check_equal(state, ref)
    state.restore(pickle.loads(dumps(state.snapshot())))
    ref.pairs = pickle.loads(dumps(ref.pairs))
    assert not state._deactivate(0, 3)
    assert state._deactivate(0, 2) and ref.deactivate(0, 2)
    check_equal(state, ref)
    assert state.nghosts == 0


def test_hub_rows_and_restores_on_a_large_table():
    """Hub rows hold many ghosts in weight order, not id order, and the
    table grows to thousands of slots, so colliding pairs land by
    insertion order: a set rebuilt in any other order iterates
    differently. The restores come after most pairs are gone, when the
    unpickled set is a smaller table than the one it was pickled from:
    the pairs after a restore must follow it, not a rebuild."""
    rng = np.random.default_rng(5)
    n = 256
    hubs = np.repeat(np.arange(4), n // 2)
    us = np.concatenate([hubs, rng.integers(0, n, 300)])
    vs = np.concatenate([np.tile(np.arange(n // 2, n), 4), rng.integers(0, n, 300)])
    keep = us != vs
    us, vs = us[keep], vs[keep]
    rows = [[] for _ in range(n)]
    for u, v, w in zip(us.tolist(), vs.tolist(), rng.random(len(us)).tolist()):
        rows[u].append((v, w))
        rows[v].append((u, w))
    for row in rows:
        rng.shuffle(row)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=xadj[1:])
    g = CSRGraph(xadj, np.array([v for r in rows for v, _ in r]),
                 np.array([w for r in rows for _, w in r]))
    lg = partition_graph(g, 2)[0]
    state = MatchingState(lg, push=lambda *a: None, charge=lambda u: None)
    ref = ReferencePairs(state)
    check_equal(state, ref)
    pairs = sorted(ref.pairs)
    assert len(pairs) > 500
    restores = (len(pairs) // 2, len(pairs) - 40, len(pairs) - 12, len(pairs) - 3)
    for k, j in enumerate(rng.permutation(len(pairs)).tolist()):
        if k in restores:
            state.restore(pickle.loads(dumps(state.snapshot())))
            ref.pairs = pickle.loads(dumps(ref.pairs))
        assert state._deactivate(*pairs[j]) and ref.deactivate(*pairs[j])
        if k % 16 == 0 or k > restores[0]:
            check_equal(state, ref)
    check_equal(state, ref)
