"""Per-rank state machine for distributed half-approximate matching.

Implements the paper's Algorithms 3-6 (FINDMATE, PROCESSNEIGHBORS,
PROCESSINCOMINGDATA) over an abstract ``push`` callable so the identical
algorithm runs over every communication backend (paper Table I).

Protocol notes (documented deviation)
-------------------------------------
The paper's Algorithm 6 as printed rejects an incoming REQUEST whenever
the receiver's current pointer is elsewhere, even if the receiver is
still unmatched. That eager rejection can discard an edge both endpoints
would later agree on, losing the locally-dominant guarantee on adversarial
interleavings. We implement the Manne-Bisseling *deferred proposal*
semantics instead — an unmatched receiver parks the proposal and matches
when its own pointer arrives at the proposer — which computes exactly the
(unique, with distinct weights) greedy matching on every backend and
every timing. The eager variant is available as ``eager_reject=True`` and
is exercised by an ablation benchmark.

Message budget: each cross edge generates at most one message per
direction (REQUEST, REJECT, or INVALID), so per-neighbor buffers sized at
2x the shared ghost count — the paper's bound — are always sufficient.

Termination: ``nghosts`` counts still-active cross pairs; ``awaiting``
counts outstanding REQUESTs not yet resolved by a crossing REQUEST,
REJECT, or INVALID. A rank is locally quiescent when both are zero and
its work queue is empty; Send-Recv exits on that local predicate (paper
§V-D), while RMA/NCL combine it through a global reduction each
iteration, exactly as the paper describes.

Representation
--------------
Every transition touches one vertex at a time, so per-vertex state is
held in plain Python containers indexed by local id ``i = v - lo``:
``status`` and ``processed`` are ``bytearray``s, ``mate``, ``pointer``
and ``ptr_idx`` are lists, and ownership is the range test
``lo <= v < hi`` on locals. The candidate order and the CSR row are two
flat ``array('q')`` buffers addressed through ``xadj`` (8 bytes a slot,
like the numpy CSR they are copied from). numpy lost here because each
scalar read or write through it costs a conversion and a call — a numpy
scalar per ``status[i]``, a view per ``row(v)`` — which made this module
half of the engine's self time on a locality-bound graph; lists were
kept over ``array('q')`` for the per-vertex fields because an array
boxes a new int on every read. ``evicted`` / ``pending`` slots share one
immutable empty sentinel until their first write, which replaces it
with the slot's own ``set``; a set once created is only ever modified in
place.

Snapshot layout (a contract)
----------------------------
:meth:`snapshot` returns the layout the numpy representation had:
``status`` int8, ``mate`` / ``pointer`` / ``ptr_idx`` int64, and
``processed`` bool arrays, and for ``evicted`` / ``pending`` a list of
one *distinct* ``set`` per owned vertex. Recovery charges virtual time
for the pickled size of a cut, so the pickle of a snapshot must not
depend on how the state is held; ``tests/matching/test_snapshot_layout.py``
pins it byte for byte.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Callable

import numpy as np

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import CTX_NAME, Ctx
from repro.util.hashing import edge_hash_array

NO_MATE = -1

# vertex status
FREE = 0
MATCHED = 1
DEAD = 2  # no available neighbor can remain (broadcast INVALID)

# abstract work-unit prices for the compute model
COST_SCAN = 1.0  #: examining one candidate slot
COST_MSG = 4.0  #: decoding + dispatching one incoming message
COST_PUSH = 2.0  #: staging one outgoing message
COST_NEIGHBOR = 1.5  #: one neighbor step in PROCESSNEIGHBORS

# Context members as module globals: a class-attribute read of an enum
# member costs more than the comparison it feeds.
REQUEST, REJECT, INVALID, ACK = Ctx.REQUEST, Ctx.REJECT, Ctx.INVALID, Ctx.ACK

#: ``evicted`` / ``pending`` slot never written; immutable, so a write
#: that forgets to replace it fails loudly instead of sharing state
_EMPTY: frozenset[int] = frozenset()

PushFn = Callable[[Ctx, int, int, int], None]


def _flat(a: np.ndarray) -> array:
    return array("q", np.ascontiguousarray(a, dtype=np.int64).tobytes())


def _add(slots: list, i: int, y: int) -> None:
    """``slots[i].add(y)``, giving slot ``i`` its own set on first write."""
    s = slots[i]
    if s is _EMPTY:
        slots[i] = {y}
    else:
        s.add(y)


@dataclass
class MatchStats:
    """Algorithm-level statistics for one rank."""

    sent: dict[str, int] = field(default_factory=lambda: {c.name: 0 for c in Ctx})
    received: dict[str, int] = field(default_factory=lambda: {c.name: 0 for c in Ctx})
    matched_local: int = 0  #: matches with both endpoints owned
    matched_remote: int = 0  #: matches across a partition boundary
    findmate_calls: int = 0
    work_units: float = 0.0
    widowed: int = 0  #: remote matches annulled because the mate's rank crashed
    renounced_pairs: int = 0  #: cross pairs abandoned due to rank crashes


class MatchingState:
    """All rank-local data and transitions of the matching algorithm."""

    def __init__(
        self,
        lg: LocalGraph,
        push: PushFn,
        charge: Callable[[float], None],
        *,
        eager_reject: bool = False,
        handle_scale: float = 1.0,
        tie_break: str = "hash",
    ):
        self.lg = lg
        self.lo, self.hi = lg.lo, lg.hi
        self.push_fn = push
        self.charge = charge
        self.eager_reject = eager_reject
        # Per-message application-side dispatch cost multiplier. Backends
        # that process messages one at a time (NSR, MBP) pay cache-cold
        # branchy handling per message; batch backends (RMA, NCL) decode
        # contiguous buffers. This is the application-code counterpart of
        # the aggregation benefit and is what pushes the paper's Table VIII
        # "Comp.%" up for NSR.
        self.handle_scale = handle_scale
        self.stats = MatchStats()

        n_local = lg.num_owned
        self.status = bytearray(n_local)  # all FREE
        self.mate = [NO_MATE] * n_local
        self.pointer = [NO_MATE] * n_local
        self.ptr_idx = [0] * n_local  # scan position within the candidates
        self.evicted: list[set[int] | frozenset[int]] = [_EMPTY] * n_local
        self.pending: list[set[int] | frozenset[int]] = [_EMPTY] * n_local
        self.processed = bytearray(n_local)  # PROCESSNEIGHBORS ran

        # Candidate order: per owned vertex, neighbors sorted descending by
        # the total order (weight, edge_hash) — the paper's hash tie-break.
        # ``tie_break="id"`` reproduces the naive vertex-id scheme whose
        # pathological serialization on uniform-weight paths/grids the
        # paper warns about (§III); it exists for the ablation study only.
        src_local = np.repeat(
            np.arange(n_local, dtype=np.int64), np.diff(lg.xadj)
        )
        if tie_break == "hash":
            keys = edge_hash_array(src_local + lg.lo, lg.adjncy)
        elif tie_break == "id":
            keys = lg.adjncy.astype(np.uint64)
        else:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        # One global lexsort instead of a per-vertex sort loop. The
        # per-vertex order was lexsort((keys, w))[::-1]: descending
        # (weight, key), full ties in descending slot order (the reversal
        # of a stable ascending sort). Globally: primary src ascending
        # keeps each CSR segment contiguous; -w / ~keys ascending are w /
        # keys descending exactly (float negation and uint64 bitwise NOT
        # are order-reversing bijections); -arange ascending is slot
        # descending for full ties.
        n_slots = len(lg.adjncy)
        if n_slots:
            perm = np.lexsort((
                -np.arange(n_slots), np.invert(keys), -lg.weights, src_local,
            ))
            sorted_adj = lg.adjncy[perm]
        else:
            sorted_adj = lg.adjncy
        # Two flat arrays addressed by xadj: candidate order (FINDMATE)
        # and CSR row order (PROCESSNEIGHBORS, whose sends follow it).
        self.xadj: list[int] = lg.xadj.tolist()
        self.cand = _flat(sorted_adj)
        self.adj = _flat(lg.adjncy)

        # Cross-pair activity: (local_idx, ghost_global) -> active?
        # The ownership test is vectorized, but the adds stay one by one
        # in candidate order: later code iterates this set (and builds
        # ghosts_of from it), and CPython set iteration order depends on
        # the exact insertion history, which the differential fingerprint
        # tests pin across engines.
        ghost_idx = np.nonzero((sorted_adj < lg.lo) | (sorted_adj >= lg.hi))[0]
        ghost_ys = sorted_adj[ghost_idx]
        ys = ghost_ys.tolist()
        self.active_pairs: set[tuple[int, int]] = set()
        _add_pair = self.active_pairs.add
        for i, y in zip(src_local[ghost_idx].tolist(), ys):
            _add_pair((i, y))
        self.nghosts = len(self.active_pairs)
        # Every message goes to, and every message comes from, the owner
        # of a ghost: look the owners up once here, not once per message.
        self.ghost_owner: dict[int, int] = dict(
            zip(ys, lg.dist.owner_array(ghost_ys).tolist()))
        self.awaiting = 0
        self.dead_ranks: set[int] = set()  # crashed peers we have renounced
        self.work: deque[int] = deque()  # local indices awaiting PROCESSNEIGHBORS
        # Ghost neighbors of the owned vertices that have any, for
        # broadcast-style walks (in active_pairs iteration order).
        self.ghosts_of: dict[int, list[int]] = {}
        for (i, y) in self.active_pairs:
            self.ghosts_of.setdefault(i, []).append(y)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _push_g(self, ctx_id: Ctx, y: int, x_payload: int, y_payload: int):
        """Send (ctx, x, y) to owner(y)."""
        self.charge(COST_PUSH)
        self.stats.sent[CTX_NAME[ctx_id]] += 1
        owner = self.ghost_owner[y]
        # Backends hand in either a plain callable (a push that never
        # parks) or a generator function — drive whichever we got.
        res = self.push_fn(ctx_id, owner, x_payload, y_payload)
        if isinstance(res, GeneratorType):
            yield from res

    def _deactivate(self, i: int, y: int) -> bool:
        """Deactivate cross pair (local i, ghost y); True if it was active."""
        pair = (i, y)
        if pair in self.active_pairs:
            self.active_pairs.remove(pair)
            self.nghosts -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # FINDMATE (paper Algorithm 4, deferred-proposal variant)
    # ------------------------------------------------------------------
    def find_mate_g(self, v: int):
        """Point owned vertex ``v`` at its best available neighbor."""
        lo, hi = self.lo, self.hi
        i = v - lo
        status = self.status
        if status[i] != FREE:
            return
        self.stats.findmate_calls += 1
        cand = self.cand
        start = self.xadj[i]
        end = self.xadj[i + 1]
        k = first = start + self.ptr_idx[i]
        evicted = self.evicted[i]
        y = NO_MATE
        while k < end:
            c = cand[k]
            if lo <= c < hi:
                if status[c - lo] == FREE:
                    y = c
                    break
            elif c not in evicted:
                y = c
                break
            k += 1
        # the scan counts the slot it stopped on, and at least one
        scanned = k - first + (y != NO_MATE)
        self.ptr_idx[i] = k - start
        self.charge(COST_SCAN * (scanned or 1))

        if y == NO_MATE:
            yield from self._invalidate_g(v)
            return

        self.pointer[i] = y
        if lo <= y < hi:
            if self.pointer[y - lo] == v:
                self._match_local(v, y)
        else:
            # Commit to the ghost: deactivate the pair, evict it from the
            # candidate set (a later REJECT must not re-propose it), send
            # the proposal.
            self._deactivate(i, y)
            _add(self.evicted, i, y)
            self.ptr_idx[i] += 1  # never reconsider y
            if y in self.pending[i]:
                # y proposed first: mutual pointing, match immediately;
                # the REQUEST we send lets y's owner detect the same.
                yield from self._push_g(REQUEST, y, y, v)
                self._match_remote(v, y)
            else:
                yield from self._push_g(REQUEST, y, y, v)
                self.awaiting += 1

    def _invalidate_g(self, v: int):
        """No candidate remains for ``v``: broadcast INVALID (case #5)."""
        i = v - self.lo
        assert not self.pending[i], "dead vertex cannot hold proposals"
        self.status[i] = DEAD
        self.pointer[i] = NO_MATE
        for y in self.ghosts_of.get(i, ()):
            if self._deactivate(i, y):
                yield from self._push_g(INVALID, y, y, v)

    # ------------------------------------------------------------------
    # matches
    # ------------------------------------------------------------------
    def _clear_pending(self, i: int) -> None:
        p = self.pending[i]
        if p is not _EMPTY:
            p.clear()

    def _match_local(self, x: int, y: int) -> None:
        ix, iy = x - self.lo, y - self.lo
        self.status[ix] = self.status[iy] = MATCHED
        self.mate[ix] = y
        self.mate[iy] = x
        self._clear_pending(ix)
        self._clear_pending(iy)
        self.stats.matched_local += 1
        self.work.append(ix)
        self.work.append(iy)

    def _match_remote(self, x: int, y_ghost: int) -> None:
        ix = x - self.lo
        self.status[ix] = MATCHED
        self.mate[ix] = y_ghost
        self._clear_pending(ix)
        self.stats.matched_remote += 1
        self.work.append(ix)

    # ------------------------------------------------------------------
    # PROCESSNEIGHBORS (paper Algorithm 5)
    # ------------------------------------------------------------------
    def process_neighbors_g(self, i: int):
        """Resolve the neighborhood of newly matched owned vertex (idx i)."""
        if self.processed[i]:
            return
        self.processed[i] = 1
        lo, hi = self.lo, self.hi
        v = lo + i
        mate_v = self.mate[i]
        start = self.xadj[i]
        end = self.xadj[i + 1]
        self.charge(COST_NEIGHBOR * (end - start or 1))
        status, pointer = self.status, self.pointer
        for u in self.adj[start:end]:
            if u == mate_v:
                continue
            if lo <= u < hi:
                j = u - lo
                if status[j] == FREE and pointer[j] == v:
                    yield from self.find_mate_g(u)
            elif self._deactivate(i, u):
                yield from self._push_g(REJECT, u, u, v)

    def drain_work_g(self):
        """Run PROCESSNEIGHBORS for every queued matched vertex."""
        done = 0
        while self.work:
            yield from self.process_neighbors_g(self.work.popleft())
            done += 1
        return done

    # ------------------------------------------------------------------
    # PROCESSINCOMINGDATA (paper Algorithm 6, deferred variant)
    # ------------------------------------------------------------------
    def handle_g(self, ctx_id: int, x: int, y: int):
        """Process one incoming (ctx, x, y): x is ours, y is the sender's.

        ``ctx_id`` is the context's int value as it came off the wire (a
        :class:`Ctx` member works too).
        """
        self.charge(COST_MSG * self.handle_scale)
        self.stats.received[CTX_NAME[ctx_id]] += 1
        lo = self.lo
        if not lo <= x < self.hi:
            raise ValueError(
                f"rank {self.lg.rank} received message for foreign vertex {x}")
        if self.dead_ranks and self.ghost_owner.get(y) in self.dead_ranks:
            # Late message from a peer we have since renounced: its pairs
            # are already deactivated/evicted, so every branch below would
            # be a no-op — except REQUEST, which would park a proposal
            # from a ghost that can never confirm. Drop it outright.
            return
        i = x - lo

        if ctx_id == REQUEST:
            free = self.status[i] == FREE
            if free and self.pointer[i] == y and not lo <= y < self.hi:
                # Mutual pointing: our own REQUEST to y is in flight or
                # delivered; this crossing REQUEST resolves it.
                self.awaiting -= 1
                self._match_remote(x, y)
            elif free:
                if self.eager_reject:
                    # Paper Algorithm 6 as printed: refuse proposals that do
                    # not match the current pointer, even while unmatched.
                    if self._deactivate(i, y):
                        _add(self.evicted, i, y)
                        yield from self._push_g(REJECT, y, y, x)
                else:
                    _add(self.pending, i, y)  # deferred proposal
            else:
                # Already matched elsewhere or dead: refuse, unless this
                # pair was already deactivated (our REJECT/INVALID is in
                # flight to the proposer).
                if self._deactivate(i, y):
                    yield from self._push_g(REJECT, y, y, x)
        elif ctx_id == REJECT or ctx_id == INVALID:
            yield from self._resolution_g(i, x, y)
        elif ctx_id == ACK:
            pass  # MBP baseline chatter; no algorithmic content
        else:  # pragma: no cover
            raise ValueError(f"unknown context {ctx_id}")

    def _resolution_g(self, i: int, x: int, y: int):
        """Shared REJECT/INVALID handling.

        Exactly one of three cases:

        * we have an outstanding REQUEST to ``y`` (x free, pointer at y) —
          this message resolves it; retarget x;
        * the pair is still active — unsolicited deactivation; evict y;
        * neither — both sides deactivated concurrently and their
          REJECT/INVALIDs crossed on the wire; nothing to do.
        """
        if self.status[i] == FREE and self.pointer[i] == y:
            # A request to a ghost always deactivates the pair first, so
            # pointer[i] == y (a ghost) implies an outstanding request.
            self.awaiting -= 1
            self.pointer[i] = NO_MATE
            yield from self.find_mate_g(x)
        elif self._deactivate(i, y):
            _add(self.evicted, i, y)

    # ------------------------------------------------------------------
    # fault tolerance (ULFM-style graceful degradation)
    # ------------------------------------------------------------------
    def renounce_rank_g(self, dead: int):
        """Abandon every cross interaction with crashed rank ``dead``.

        Mirrors what a ULFM ``MPI_Comm_shrink`` recovery path would do:
        the survivors give up all edges into the failed rank and continue
        matching on the surviving subgraph. Concretely:

        * every still-active cross pair into ``dead`` is deactivated and
          evicted (no proposal will ever be sent or answered);
        * parked proposals from dead-owned ghosts are dropped;
        * an outstanding REQUEST into ``dead`` is resolved as if a REJECT
          had arrived (the vertex retargets via FINDMATE);
        * a remote match whose mate lives on ``dead`` is annulled — the
          vertex stays out of the protocol ("widowed": its neighborhood
          was already processed and REJECTs broadcast).

        Idempotent per rank; returns the number of affected pairs/vertices.
        """
        if dead in self.dead_ranks:
            return 0
        self.dead_ranks.add(dead)
        # every vertex below that can be dead-owned is a ghost
        owner = self.ghost_owner
        lo, hi = self.lo, self.hi

        doomed = [(i, y) for (i, y) in self.active_pairs if owner[y] == dead]
        for i, y in doomed:
            self._deactivate(i, y)
            _add(self.evicted, i, y)
        self.stats.renounced_pairs += len(doomed)

        retarget: list[int] = []
        for i in range(len(self.status)):
            if self.pending[i]:
                stale = {y for y in self.pending[i] if owner[y] == dead}
                self.pending[i] -= stale
            st = self.status[i]
            if st == FREE:
                p = self.pointer[i]
                if p != NO_MATE and not lo <= p < hi and owner[p] == dead:
                    # Outstanding REQUEST into the void: resolve it the
                    # way a REJECT would have (p is already evicted —
                    # proposing deactivates and evicts the pair).
                    self.awaiting -= 1
                    self.pointer[i] = NO_MATE
                    retarget.append(lo + i)
            elif st == MATCHED:
                m = self.mate[i]
                if m != NO_MATE and not lo <= m < hi and owner[m] == dead:
                    self.mate[i] = NO_MATE
                    self.stats.widowed += 1
        for v in retarget:
            yield from self.find_mate_g(v)
        return len(doomed) + len(retarget)

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    #: every field the protocol mutates after construction; the candidate
    #: order (``cand``), ghost lists, and graph itself are pure functions
    #: of the input partition and are rebuilt by ``__init__`` on resume.
    _SNAPSHOT_FIELDS = (
        "stats",
        "status",
        "mate",
        "pointer",
        "ptr_idx",
        "evicted",
        "pending",
        "processed",
        "active_pairs",
        "nghosts",
        "awaiting",
        "dead_ranks",
        "work",
    )

    def snapshot(self) -> dict:
        """Mutable protocol state for a coordinated checkpoint, in the
        numpy layout the module docstring pins.

        The arrays are copies; everything else is a live reference — the
        engine pickles the tree immediately at the capture instant, which
        both isolates it from further mutation and keeps the copy cost
        off the simulated clock.
        """
        blob = {f: getattr(self, f) for f in self._SNAPSHOT_FIELDS}
        blob["status"] = np.frombuffer(self.status, dtype=np.int8).copy()
        blob["processed"] = np.frombuffer(self.processed, dtype=bool).copy()
        for f in ("mate", "pointer", "ptr_idx"):
            blob[f] = np.array(blob[f], dtype=np.int64)
        for f in ("evicted", "pending"):
            blob[f] = [set() if s is _EMPTY else s for s in blob[f]]
        return blob

    def restore(self, blob: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot` (resume path).

        The blob arrives freshly unpickled, so adopting the objects
        directly cannot alias another run's state.
        """
        for f in self._SNAPSHOT_FIELDS:
            setattr(self, f, blob[f])
        self.status = bytearray(blob["status"].tobytes())
        self.processed = bytearray(blob["processed"].tobytes())
        for f in ("mate", "pointer", "ptr_idx"):
            setattr(self, f, blob[f].tolist())

    # ------------------------------------------------------------------
    # phases / termination
    # ------------------------------------------------------------------
    def start_g(self):
        """Phase 1: initial FINDMATE sweep over owned vertices."""
        lo, status = self.lo, self.status
        for v in range(lo, self.hi):
            if status[v - lo] == FREE:  # else a local match took it already
                yield from self.find_mate_g(v)

    def remaining(self) -> int:
        """Local progress debt; globally zero means the algorithm is done."""
        return self.nghosts + self.awaiting + len(self.work)

    def locally_done(self) -> bool:
        return self.remaining() == 0

    def mate_global(self) -> np.ndarray:
        """Owned slice of the global mate array."""
        return np.array(self.mate, dtype=np.int64)
