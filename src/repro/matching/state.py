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
held in plain Python containers indexed by local id ``i = v - lo``
(numpy costs a conversion and a call per scalar access): ``status`` and
``processed`` are ``bytearray``s, ``mate``, ``pointer`` and ``ptr_idx``
lists, and ownership is the range test ``lo <= v < hi``. The candidate
order and the CSR row are two flat ``array('q')`` buffers addressed
through ``xadj``. The candidate order (weight, key, slot: descending)
is one stable argsort of packed bytes ``[src, ~ordered(w), ~key, ~slot]``
(:func:`~repro.util.hashing.edge_order`: ``-0.0`` sorts as ``+0.0``,
NaN is refused). ``evicted`` / ``pending`` slots share one immutable
empty sentinel until their first write gives the slot its own ``set``,
which is then only ever modified in place.

Per-pair state is flat too, so what a rank holds grows with its cross
edges in machine words, not in Python objects. The distinct cross pairs
``(i, y)`` are one sorted ``array('q')`` of keys ``i * n + y`` (``n``
the global vertex count) with a ``bytearray`` of active flags beside it;
deactivating a pair is one ``bisect_left`` and one flag test. A ghost's
owner is one ``bisect_right`` in the distribution's block starts, a list
every rank shares. The ghosts of each owned vertex are one flat
``array('q')`` addressed through an offsets array, in the order the
initial pair set iterates them.

A transition is a plain call until it sends: FINDMATE (:meth:`_scan`)
and PROCESSNEIGHBORS (:meth:`_neighbors`) return the sending step's
generator — or ``()`` / None when nothing is sent — and the caller
drives it. A chain of sends is a loop, never nested generators:
:meth:`drain_work_g` resumes a row after each send, so a row of any
length parks with one frame of it on the stack.

Snapshot layout (a contract)
----------------------------
:meth:`snapshot` returns the layout the numpy representation had:
``status`` int8, ``mate`` / ``pointer`` / ``ptr_idx`` int64, and
``processed`` bool arrays, and for ``evicted`` / ``pending`` a list of
one *distinct* ``set`` per owned vertex. Recovery charges virtual time
for the pickled size of a cut, so the pickle of a snapshot must not
depend on how the state is held; ``tests/matching/test_snapshot_layout.py``
pins it byte for byte.

``active_pairs`` is the set of still-active cross pairs that a rank
holding them in a ``set`` from the start would pickle, iteration order
included: the read-only property adds the distinct pairs in candidate
order and discards the inactive ones, which leaves the same table
(``tests/matching/test_pair_flags.py`` checks it against such a set).
After :meth:`restore` it starts from the set that was unpickled, and
discards from that one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import CTX_NAME, Ctx
from repro.util.hashing import edge_hash_array, edge_order

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
        sorted_adj = lg.adjncy[edge_order(lg.weights, keys, src_local)]
        # Two flat arrays addressed by xadj: candidate order (FINDMATE)
        # and CSR row order (PROCESSNEIGHBORS, whose sends follow it).
        self.xadj: list[int] = lg.xadj.tolist()
        self.cand = _flat(sorted_adj)
        self.adj = _flat(lg.adjncy)

        # Cross-pair activity: the distinct pairs (i, y), y a ghost, as
        # sorted keys ``i * n + y`` with one active flag each.
        self._n = n = lg.dist.num_vertices
        src, ys = self._cross_slots()
        pairs = set(zip(src.tolist(), ys.tolist()))
        # sort and drop repeats (multi-edges) by hand: a plain np.unique
        # imports numpy.ma on first use, ~20 ms per process
        keys = np.sort(src * n + ys)
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self._pair_keys = _flat(keys[first])
        self._pair_live = bytearray(b"\x01") * len(self._pair_keys)
        #: the set :meth:`restore` adopted, which :attr:`active_pairs`
        #: keeps discarding from; None before any restore
        self._restored: set[tuple[int, int]] | None = None
        self.nghosts = len(self._pair_keys)
        # Owners of ghosts: one bisect in the distribution's block starts.
        self._starts: list[int] = lg.dist.start_list
        self.awaiting = 0
        self.dead_ranks: set[int] = set()  # crashed peers we have renounced
        self.work: deque[int] = deque()  # local indices awaiting PROCESSNEIGHBORS
        # Ghost neighbors of each owned vertex, for broadcast-style walks:
        # ``ghosts[ghost_off[i]:ghost_off[i + 1]]``, in the iteration
        # order of the initial pair set. The same offsets delimit vertex
        # i's keys in ``_pair_keys``.
        flat = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        by_vertex = np.argsort(flat[:, 0], kind="stable")
        off = np.zeros(n_local + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat[:, 0], minlength=n_local), out=off[1:])
        self._ghost_off = _flat(off)
        self._ghosts = _flat(flat[by_vertex, 1])

    # ------------------------------------------------------------------
    # cross pairs
    # ------------------------------------------------------------------
    def _cross_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """``(i, y)`` of every candidate slot whose ``y`` is a ghost, as
        two arrays in candidate order."""
        cand = np.frombuffer(self.cand, dtype=np.int64)
        src = np.repeat(np.arange(len(self.xadj) - 1), np.diff(self.xadj))
        ghost = (cand < self.lo) | (cand >= self.hi)
        return src[ghost], cand[ghost]

    @property
    def active_pairs(self) -> set[tuple[int, int]]:
        """The still-active cross pairs as the set a checkpoint pickles.

        CPython set iteration order, and so the pickle, depends on the
        exact insertion and removal history. Removing leaves a dummy in
        the slot and never resizes, so adding the pairs in candidate
        order and discarding the inactive ones rebuilds the table a set
        held from the start would have, whatever the order of removals.
        After :meth:`restore` the history starts from the unpickled set.
        """
        pairs = self._restored
        if pairs is None:
            # ``set(iterable)`` adds each item in turn
            src, ys = self._cross_slots()
            pairs = set(zip(src.tolist(), ys.tolist()))
        keys = np.frombuffer(self._pair_keys, dtype=np.int64)
        inactive = np.frombuffer(self._pair_live, dtype=np.uint8) == 0
        n = self._n
        for key in keys[inactive].tolist():
            pairs.discard(divmod(key, n))
        return pairs

    def _deactivate(self, i: int, y: int) -> bool:
        """Deactivate cross pair (local i, ghost y); True if it was active."""
        keys = self._pair_keys
        key = i * self._n + y
        off = self._ghost_off
        end = off[i + 1]
        k = bisect_left(keys, key, off[i], end)
        if k < end and keys[k] == key and self._pair_live[k]:
            self._pair_live[k] = 0
            self.nghosts -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _push_g(self, ctx_id: Ctx, y: int, x_payload: int, y_payload: int):
        """Send (ctx, x, y) to owner(y). Returns the push's generator (or
        ``()`` for a push that never parks) for the caller to ``yield
        from``, so this frame is not on the chain a parked send resumes."""
        self.charge(COST_PUSH)
        self.stats.sent[CTX_NAME[ctx_id]] += 1
        owner = bisect_right(self._starts, y) - 1
        return self.push_fn(ctx_id, owner, x_payload, y_payload) or ()

    # ------------------------------------------------------------------
    # FINDMATE (paper Algorithm 4, deferred-proposal variant)
    # ------------------------------------------------------------------
    def _scan(self, v: int):
        """Point owned vertex ``v`` at its best available neighbor. Returns
        the sending step (:meth:`_propose_g` to a ghost, :meth:`_invalidate_g`
        if none remains) for the caller to drive, or ``()``."""
        lo, hi = self.lo, self.hi
        i = v - lo
        status = self.status
        if status[i] != FREE:
            return ()
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
            # case #5: broadcast INVALID
            assert not self.pending[i], "dead vertex cannot hold proposals"
            status[i] = DEAD
            self.pointer[i] = NO_MATE
            off = self._ghost_off
            return self._invalidate_g(i, v) if off[i] != off[i + 1] else ()
        self.pointer[i] = y
        if not lo <= y < hi:
            return self._propose_g(v, y)
        if self.pointer[y - lo] == v:
            self._match_local(v, y)
        return ()

    def _propose_g(self, v: int, y: int):
        """Commit ``v`` to ghost ``y`` and send the proposal: deactivate
        the pair, and evict ``y`` from the candidates (a later REJECT must
        not re-propose it)."""
        i = v - self.lo
        self._deactivate(i, y)
        _add(self.evicted, i, y)
        self.ptr_idx[i] += 1  # never reconsider y
        # y proposed first: mutual pointing, match once the REQUEST (which
        # lets y's owner detect the same) is sent
        mutual = y in self.pending[i]
        yield from self._push_g(REQUEST, y, y, v)
        if mutual:
            self._match_remote(v, y)
        else:
            self.awaiting += 1

    def _invalidate_g(self, i: int, v: int):
        """Tell every still-active ghost neighbor of dead ``v``."""
        off = self._ghost_off
        for y in self._ghosts[off[i]:off[i + 1]]:
            if self._deactivate(i, y):
                yield from self._push_g(INVALID, y, y, v)

    # ------------------------------------------------------------------
    # matches
    # ------------------------------------------------------------------
    def _match_local(self, x: int, y: int) -> None:
        ix, iy = x - self.lo, y - self.lo
        self.status[ix] = self.status[iy] = MATCHED
        self.mate[ix] = y
        self.mate[iy] = x
        pending = self.pending
        if pending[ix] is not _EMPTY:
            pending[ix].clear()
        if pending[iy] is not _EMPTY:
            pending[iy].clear()
        self.stats.matched_local += 1
        self.work.append(ix)
        self.work.append(iy)

    def _match_remote(self, x: int, y_ghost: int) -> None:
        ix = x - self.lo
        self.status[ix] = MATCHED
        self.mate[ix] = y_ghost
        if self.pending[ix] is not _EMPTY:
            self.pending[ix].clear()
        self.stats.matched_remote += 1
        self.work.append(ix)

    # ------------------------------------------------------------------
    # PROCESSNEIGHBORS (paper Algorithm 5)
    # ------------------------------------------------------------------
    def _neighbors(self, i: int, rest=None):
        """Resolve the neighborhood of newly matched owned vertex (idx i),
        from its CSR row or from ``rest``, the row's slots left after a
        send. Returns None when done, or ``(step, rest)`` at a send."""
        if rest is None:
            if self.processed[i]:
                return None
            self.processed[i] = 1
            start, end = self.xadj[i], self.xadj[i + 1]
            self.charge(COST_NEIGHBOR * (end - start or 1))
            rest = iter(self.adj[start:end])
        lo, hi = self.lo, self.hi
        v = lo + i
        mate_v = self.mate[i]
        status, pointer = self.status, self.pointer
        for u in rest:
            if u == mate_v:
                continue
            if lo <= u < hi:
                j = u - lo
                if pointer[j] == v and status[j] == FREE:
                    step = self._scan(u)
                    if step:
                        return step, rest
            elif self._deactivate(i, u):
                step = self._push_g(REJECT, u, u, v)
                if step:
                    return step, rest
        return None

    def drain_work_g(self):
        """Run PROCESSNEIGHBORS for every queued matched vertex, each
        row's sends driven from this one loop, never nested."""
        done = 0
        work, neighbors = self.work, self._neighbors
        while work:
            i = work.popleft()
            r = neighbors(i)
            while r:
                step, rest = r
                yield from step
                r = neighbors(i, rest)
            done += 1
        return done

    # ------------------------------------------------------------------
    # PROCESSINCOMINGDATA (paper Algorithm 6, deferred variant)
    # ------------------------------------------------------------------
    def deliver(self, src: int, user_tag: int, payload):
        """:meth:`handle_g` as a Send-Recv transport's receive handler:
        ``payload`` is one message's ``(x, y)``. Returns the generator
        for the transport to drive."""
        x, y = payload
        return self.handle_g(user_tag, x, y)

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
        if self.dead_ranks and bisect_right(self._starts, y) - 1 in self.dead_ranks:
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
            yield from self._scan(x)
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
        # the ghosts ``dead`` owns: its block, none if that is this rank's
        # (NO_MATE is in no block)
        dlo, dhi = self._starts[dead], self._starts[dead + 1]
        if dlo == self.lo:
            dhi = dlo
        lo = self.lo

        doomed = [(i, y) for (i, y) in self.active_pairs if dlo <= y < dhi]
        for i, y in doomed:
            self._deactivate(i, y)
            _add(self.evicted, i, y)
        self.stats.renounced_pairs += len(doomed)

        retarget: list[int] = []
        for i in range(len(self.status)):
            if self.pending[i]:
                stale = {y for y in self.pending[i] if dlo <= y < dhi}
                self.pending[i] -= stale
            st = self.status[i]
            if st == FREE:
                p = self.pointer[i]
                if dlo <= p < dhi:
                    # Outstanding REQUEST into the void: resolve it the
                    # way a REJECT would have (p is already evicted —
                    # proposing deactivates and evicts the pair).
                    self.awaiting -= 1
                    self.pointer[i] = NO_MATE
                    retarget.append(lo + i)
            elif st == MATCHED:
                m = self.mate[i]
                if dlo <= m < dhi:
                    self.mate[i] = NO_MATE
                    self.stats.widowed += 1
        for v in retarget:
            yield from self._scan(v)
        return len(doomed) + len(retarget)

    def renounce_failed_g(self, ctx, ranks, then: Callable[[int], None] | None = None):
        """The recovery step of every loop: renounce each rank of
        ``ranks`` not renounced yet, in that order, and call ``then(r)``
        after each one."""
        for r in ranks:
            if r in self.dead_ranks:
                continue
            if ctx.fault_plan.crash_time(r) is None:
                # Detection is plan-driven: a partitioned-but-alive peer
                # can never land here; the counter proves it.
                ctx.counters().spurious_detections += 1
            yield from self.renounce_rank_g(r)
            if then is not None:
                then(r)

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
            if f != "active_pairs":
                setattr(self, f, blob[f])
        pairs = self._restored = blob["active_pairs"]
        flat = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        live = np.zeros(len(self._pair_keys), dtype=np.uint8)
        live[np.searchsorted(np.frombuffer(self._pair_keys, dtype=np.int64),
                             flat[:, 0] * self._n + flat[:, 1])] = 1
        self._pair_live = bytearray(live.tobytes())
        self.status = bytearray(blob["status"].tobytes())
        self.processed = bytearray(blob["processed"].tobytes())
        for f in ("mate", "pointer", "ptr_idx"):
            setattr(self, f, blob[f].tolist())

    # ------------------------------------------------------------------
    # phases / termination
    # ------------------------------------------------------------------
    def start_g(self):
        """Phase 1: initial FINDMATE sweep over owned vertices."""
        lo, status, scan = self.lo, self.status, self._scan
        for v in range(lo, self.hi):
            if status[v - lo] == FREE:  # else a local match took it already
                yield from scan(v)

    def remaining(self) -> int:
        """Local progress debt; globally zero means the algorithm is done."""
        return self.nghosts + self.awaiting + len(self.work)

    def locally_done(self) -> bool:
        return self.remaining() == 0

    def mate_global(self) -> np.ndarray:
        """Owned slice of the global mate array."""
        return np.array(self.mate, dtype=np.int64)
