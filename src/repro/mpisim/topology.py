"""Distributed graph topology and MPI-3 neighborhood collectives.

Mirrors ``MPI_Dist_graph_create_adjacent`` with symmetric neighborhoods
(the paper uses an undirected process graph induced by ghost-vertex
sharing) plus ``MPI_Neighbor_alltoall`` / ``MPI_Neighbor_alltoallv``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Sequence

import numpy as np

from repro.mpisim.collectives import get_or_create_neighborhood
from repro.mpisim.errors import CommMismatchError, RankCrashed


def _block_neighborhood_g(ctx, op, scope_id, epoch_set, label: str):
    """Crash-aware wait for a neighborhood rendezvous.

    Completion wins when available; otherwise the wait also wakes on a
    scope revocation or an unseen failure notification. A survivor that
    detects a failure outside the topology's build epoch revokes the
    scope (so peers whose rendezvous sets do not contain the dead rank
    cannot be stranded either) and raises :class:`RankCrashed`, handing
    control to the backend's shrink-and-rebuild recovery path.
    """
    rank = ctx.rank
    res = ctx._res

    def potential() -> float | None:
        t = op.wake_potential(rank)
        if t is not None:
            return t
        rev = res.scope_revocation(scope_id)
        if rev is not None:
            return rev[0]
        return ctx._failure_wake_potential()

    while True:
        yield from ctx._engine.block_on_g(rank, potential, label,
                                          wait_phase="collective-wait")
        if op.wake_potential(rank) is not None:
            return
        rev = res.scope_revocation(scope_id)
        if rev is not None:
            raise RankCrashed(rev[1])
        failed = ctx.failed_ranks()
        fresh = sorted(q for q in failed if q not in epoch_set)
        if fresh:
            missing = op.missing_for(rank)
            dead_missing = sorted(q for q in missing if q in failed)
            blame = dead_missing[0] if dead_missing else fresh[0]
            res.revoke_scope(scope_id, ctx.now, blame)
            raise RankCrashed(blame)
        # Notification already accounted for by this topology's epoch:
        # keep waiting.


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload object (8 B per scalar)."""
    if payload is None:
        return 0
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(x) for x in payload)
    return 8


class DistGraphTopology:
    """Per-rank handle to a shared distributed graph topology.

    Created collectively via
    :meth:`repro.mpisim.context.RankContext.dist_graph_create_adjacent_g`;
    every rank passes its neighbor list and the constructor validates that
    the resulting process graph is symmetric. Every neighbor list is
    sorted.

    The exchanges take and return *lanes*: sequences aligned with
    :attr:`neighbors`, item ``i`` for (or from) ``neighbors[i]``. A lane
    is handed over by reference when the sender enters, so a sender must
    not mutate a lane it has shipped: its receiver may read it after the
    sender has moved on.
    """

    def __init__(self, ctx, scope_id, adjacency: list[list[int]],
                 epoch: tuple[int, ...] = ()):
        self._ctx = ctx
        self.scope_id = scope_id
        self.adjacency = adjacency
        self.rank = rank = ctx.rank
        self.neighbors: list[int] = adjacency[rank]
        self.degree = len(self.neighbors)
        # O(1) lookup from neighbor rank to buffer slot, as in real codes.
        self.neighbor_index = {q: i for i, q in enumerate(self.neighbors)}
        #: this rank's position in each neighbor's list, aligned with
        #: :attr:`neighbors`: the lane of a neighbor's send that is ours.
        #: Computed once here instead of once per exchange.
        self.peer_slots: list[int] = [
            bisect_left(adjacency[q], rank) for q in self.neighbors
        ]
        # Column index of the lane-accounting row add (CommMatrix.record_row).
        self._neighbor_arr = np.array(self.neighbors, dtype=np.intp)
        #: ranks known dead when this topology was built — failure
        #: notifications for them do not abort its collectives
        self.epoch: tuple[int, ...] = tuple(epoch)
        self._epoch_set = frozenset(self.epoch)
        #: crash-aware exchanges only when ranks can observe crashes
        self._crash_aware = ctx._detector is not None

    def _check_revoked(self) -> None:
        rev = self._ctx._res.scope_revocation(self.scope_id)
        if rev is not None:
            raise RankCrashed(rev[1])

    @staticmethod
    def validate_symmetric(adjacency: list[list[int]]) -> None:
        neighbor_sets = [set(ns) for ns in adjacency]
        for r, ns in enumerate(neighbor_sets):
            if r in ns:
                raise CommMismatchError(f"rank {r} lists itself as a neighbor")
            for q in ns:
                if q < 0 or q >= len(adjacency):
                    raise CommMismatchError(f"rank {r} lists invalid neighbor {q}")
                if r not in neighbor_sets[q]:
                    raise CommMismatchError(
                        f"asymmetric process graph: {r}->{q} but not {q}->{r}"
                    )

    # ------------------------------------------------------------------
    def neighbor_alltoall_g(
        self, items: Sequence[Any], nbytes_per_item: int | None = None
    ):
        """Exchange one fixed-size item with every neighbor.

        ``items`` is aligned with :attr:`neighbors`; the return list is
        aligned the same way (item ``i`` came from ``neighbors[i]``).
        """
        if len(items) != self.degree:
            raise ValueError(
                f"neighbor_alltoall: {len(items)} items for degree {self.degree}"
            )
        if nbytes_per_item is None:
            nbytes_per_item = max((payload_nbytes(x) for x in items), default=8)
        return (yield from self._exchange_g(
            "neighbor_alltoall", items, int(nbytes_per_item)))

    def neighbor_alltoallv_g(
        self,
        items: Sequence[Any],
        nbytes_each: Sequence[int] | None = None,
    ):
        """Exchange one variable-size item per neighbor.

        Returns ``(received_items, received_nbytes)``, both aligned with
        :attr:`neighbors`.
        """
        nbytes = self._lane_bytes("neighbor_alltoallv", items, nbytes_each)
        return (yield from self._exchange_g("neighbor_alltoallv", items, nbytes))

    def ineighbor_alltoallv(
        self,
        items: Sequence[Any],
        nbytes_each: Sequence[int] | None = None,
    ) -> "PendingNeighborExchange":
        """Nonblocking variable-size neighbor exchange (MPI-3
        ``MPI_Ineighbor_alltoallv``).

        The CPU-side posting cost (per active lane) is charged immediately
        at issue; the wire time (latency walk + payload) proceeds "in the
        background" and is only waited for — and therefore potentially
        hidden behind local computation — at :meth:`PendingNeighborExchange.wait_g`.
        """
        nbytes = self._lane_bytes("ineighbor_alltoallv", items, nbytes_each)
        eng = self._ctx._engine
        if self._crash_aware:
            self._check_revoked()
        key, op = self._enter(eng, "neighbor_alltoallv", items, nbytes)
        # CPU posting happens now (it cannot be overlapped).
        m = eng.machine
        active_out = self.degree - nbytes.count(0)
        eng.charge_comm(
            self.rank, m.o_ncl_setup + active_out * m.o_ncl_per_neighbor,
            phase="collective",
        )
        return PendingNeighborExchange(self, key, op, nbytes)

    # ------------------------------------------------------------------
    def _lane_bytes(self, name: str, items, nbytes_each) -> list[int]:
        """The ``v`` variants' byte count per lane, as a list (totals are
        taken as ``int``; a count is never negative)."""
        if len(items) != self.degree:
            raise ValueError(
                f"{name}: {len(items)} items for degree {self.degree}"
            )
        if nbytes_each is None:
            return [payload_nbytes(x) for x in items]
        if len(nbytes_each) != self.degree:
            raise ValueError(
                f"{name}: {len(nbytes_each)} byte counts for degree {self.degree}"
            )
        return list(nbytes_each)

    def _enter(self, eng, kind: str, lanes: Sequence[Any], nbytes):
        """Enter this scope's next neighborhood collective; ``(key, op)``."""
        rank = self.rank
        key = eng.next_coll_key(self.scope_id, rank)
        op = get_or_create_neighborhood(
            eng.coll_ops(), key, kind, eng.nprocs, self.adjacency, params={},
            members=eng.nprocs - len(self.epoch),
        )
        # Re-index the parked neighbors whose rendezvous ({q} ∪ N(q) all
        # present) this entry completed.
        eng.notify_ranks(op.enter(
            rank, self._ctx.now, lanes, kind, {}, self.peer_slots,
            None if kind == "neighbor_alltoall" else nbytes))
        return key, op

    def _await_g(self, op, label: str):
        """Park until ``op``'s rendezvous for this rank is complete."""
        ctx = self._ctx
        eng = ctx._engine
        rank = self.rank
        if self._crash_aware:
            yield from _block_neighborhood_g(
                ctx, op, self.scope_id, self._epoch_set, label)
        else:
            yield from eng.block_on_g(
                rank, lambda: op.wake_potential(rank), label,
                wait_phase="collective-wait")
        if eng.profiler is not None:
            sq, st = op.straggler_for(rank)
            if sq != rank:
                eng.profiler.attach_dep(rank, sq, st, "neighbor-collective")

    def _finish(self, eng, key, op, send_bytes, send_total: int) -> None:
        """Count a collected exchange and retire ``op`` after its last
        member. ``send_bytes`` is one count per lane, or one for all."""
        rank = self.rank
        rc = self._ctx.counters()
        rc.neighbor_collectives += 1
        rc.bytes_collective += send_total
        eng.counters.ncl.record_row(rank, self._neighbor_arr, send_bytes)
        if op.mark_done(rank):
            eng.coll_ops().pop(key, None)

    def _exchange_g(self, kind: str, lanes: Sequence[Any], nbytes):
        """One blocking exchange; ``nbytes`` is an int per item for
        ``neighbor_alltoall``, a list per lane for ``neighbor_alltoallv``."""
        eng = self._ctx._engine
        rank = self.rank
        if self._crash_aware:
            self._check_revoked()
        key, op = self._enter(eng, kind, lanes, nbytes)
        yield from self._await_g(op, f"{kind}#{key[1]}")

        received = op.result_for(rank)
        m = eng.machine
        degree = self.degree
        if kind == "neighbor_alltoall":
            send_total = nbytes * degree
            cost = m.neighbor_alltoall_cost(degree, nbytes)
        else:
            recv_bytes = op.nbytes_for(rank)
            send_total = int(sum(nbytes))
            # Lanes with data on either side, counted without a pass in
            # Python.
            active = 2 * degree - nbytes.count(0) - recv_bytes.count(0)
            cost = m.neighbor_alltoallv_cost(
                degree, send_total, int(sum(recv_bytes)), active_lanes=active
            )
            received = (received, recv_bytes)
        eng.charge_comm(rank, cost, phase="collective")
        eng.trace_event(rank, kind, degree=degree, nbytes=send_total)
        self._finish(eng, key, op, nbytes, send_total)
        return received


class PendingNeighborExchange:
    """Handle for an in-flight nonblocking neighborhood exchange.

    ``wait()`` completes the operation: it blocks until every neighbor has
    entered the matching call, then charges only the *unhidden* part of
    the wire time — if the caller did useful local work between issue and
    wait, the overlap is real (the virtual clock already advanced past
    part or all of the transfer).
    """

    def __init__(self, topo: DistGraphTopology, key, op, send_bytes: list[int]):
        self._topo = topo
        self._key = key
        self._op = op
        self._send_bytes = send_bytes
        self._issue_time = topo._ctx.now
        self._done = False

    def wait_g(self):
        """Complete the exchange; returns (items, nbytes) per neighbor."""
        if self._done:
            raise RuntimeError("PendingNeighborExchange.wait() called twice")
        self._done = True
        topo = self._topo
        eng = topo._ctx._engine
        rank = topo.rank
        op = self._op
        yield from topo._await_g(op, f"ineighbor_wait#{self._key[1]}")
        recv_items = op.result_for(rank)
        recv_bytes = op.nbytes_for(rank)

        m = eng.machine
        # Wire time measured from issue: the latency walk plus payload
        # serialization plus the receive-side unpack posting. Whatever the
        # caller's clock already covers is hidden (overlapped).
        active_in = topo.degree - recv_bytes.count(0)
        send_total = int(sum(self._send_bytes))
        wire = (
            topo.degree * m.neighbor_alpha()
            + active_in * m.o_ncl_per_neighbor
            + (send_total + int(sum(recv_bytes))) * (m.beta + m.pack_byte_cost)
        )
        ready_at = max(op.wake_potential(rank), self._issue_time + wire)
        now = topo._ctx.now
        if ready_at > now:
            eng.charge_comm(rank, ready_at - now, phase="collective")
        topo._finish(eng, self._key, op, self._send_bytes, send_total)
        return recv_items, recv_bytes
