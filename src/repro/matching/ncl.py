"""NCL — MPI-3 neighborhood-collectives backend (paper §IV-D(c)).

Table I mapping: Push = insert into a per-neighbor send buffer, Evoke =
blocking ``MPI_Neighbor_alltoall`` (counts) + ``MPI_Neighbor_alltoallv``
(payload), Process = scan the receive buffer.

Unlike NSR/RMA, nothing moves when pushed: an iteration's messages are
aggregated and shipped in one blocking collective over the distributed
graph topology. This is why NCL wins when the process graph is sparse
(one cheap exchange replaces thousands of tiny sends) and loses when it
is near-complete (each collective couples a rank to p-1 neighbors —
paper Fig. 4c, Tables III/IV).

Crash recovery (extension; see docs/fault_model.md): the loop and its
renounce-revoke-rebuild step are :mod:`repro.matching.superstep`'s.
When ranks can see crashes the backend keeps a *cumulative* per-neighbor send
log and ships ``(start, chunk)`` payloads tagged with the chunk's
position in that log; the receiver tracks a per-sender consumed count
and skips overlap. A neighborhood collective is completed per-rank, so
a crash can strand an exchange half-done — one side advanced its sent
mark, the other never received the chunk. After a rebuild every sent
mark is therefore reset to zero and the full logs are resent:
at-least-once delivery plus exact dedup restores the no-loss invariant.

:class:`~repro.matching.incl.INCLBackend` subclasses this backend and
replaces only the fault-free exchange and its push step.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.state import MatchingState
from repro.matching.superstep import SuperstepBackend
from repro.mpisim.context import RankContext

#: the lane shipped to a neighbor with nothing staged. Immutable and
#: shared: the sender keeps pushing into its own (still empty) buffer
#: after the exchange, while a receiver may read the lane later.
NO_TRIPLES: tuple[int, ...] = ()


class NCLBackend(SuperstepBackend):
    """Aggregated neighborhood-collective communication."""

    name = "ncl"

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        super().__init__(ctx, lg, options)
        self._staged_bytes = 0
        if self.fault_aware:
            # Send state is keyed by *rank* (not neighbor slot) so it
            # survives a topology rebuild.
            #: cumulative flat (ctx, x, y) triples ever pushed, per target
            self.sent_log: dict[int, list[int]] = {q: [] for q in self._all_nbrs}
            #: ints of sent_log[q] already shipped in a completed exchange
            self.sent_mark: dict[int, int] = {q: 0 for q in self._all_nbrs}
            #: triples consumed from each sender (dedup on resend overlap)
            self.consumed: dict[int, int] = {q: 0 for q in self._all_nbrs}

    def _setup_g(self, dead):
        """Topology, then the send lanes — or, when a recovery rebuilt it,
        a full resync of the send logs."""
        yield from super()._setup_g(dead)
        if not self.fault_aware:
            self.nbr_index = self.topo.neighbor_index
            self.send_bufs: list[list[int]] = [[] for _ in self.topo.neighbors]
            #: indices of the non-empty send buffers (see :meth:`push`)
            self._active: list[int] = []
        elif self._recoveries:
            # A half-completed exchange may have advanced a peer's sent
            # mark past data we never received: resend everything, the
            # consumed counters dedup the overlap.
            for q in self.topo.neighbors:
                self.sent_mark[q] = 0

    # ------------------------------------------------------------------
    def push(self, ctx_id: Ctx, target_rank: int, x: int, y: int) -> None:
        """Stage the triple for the next collective exchange."""
        if self.fault_aware:
            self.sent_log[target_rank].extend((int(ctx_id), x, y))
        else:
            k = self.nbr_index[target_rank]
            b = self.send_bufs[k]
            if not b:
                self._active.append(k)
            b.extend((int(ctx_id), x, y))
        self.ctx.alloc(TRIPLE_BYTES, "ncl-sendbuf")
        self._staged_bytes += TRIPLE_BYTES

    def _evoke_and_process_g(self, state: MatchingState):
        """One aggregated exchange: counts alltoall, then payload alltoallv."""
        if self.fault_aware:
            return (yield from self._exchange_logs_g(state))
        topo = self.topo
        counts, lanes, nbytes_each = self._ship_lanes()
        recv_counts = yield from topo.neighbor_alltoall_g(counts, nbytes_per_item=8)
        # Receive buffers are sized from the counts exchange; account them
        # for the duration of processing.
        recv_bytes = sum(recv_counts) * TRIPLE_BYTES
        self.ctx.alloc(recv_bytes, "ncl-recvbuf")
        items, _ = yield from topo.neighbor_alltoallv_g(
            lanes, nbytes_each=nbytes_each)
        # Send buffers are free once the blocking collective returns.
        self.ctx.free(self._staged_bytes, "ncl-sendbuf")
        self._staged_bytes = 0
        self.ctx.prof_stage("process")
        handled = yield from self._handle_lanes_g(state, items)
        self.ctx.free(recv_bytes, "ncl-recvbuf")
        return handled

    def _ship_lanes(self) -> tuple[list[int], list, list[int]]:
        """Hand each staged buffer over as its neighbor's lane.

        Returns ``(counts, lanes, nbytes)``, aligned with the neighbors:
        triples, lanes and wire bytes per neighbor. Only the active lanes
        (those :meth:`push` wrote since the last shipment) cost a step
        here; each is handed over as is and replaced by a fresh list, so
        the next pushes cannot reach a lane in flight.
        """
        bufs, active = self.send_bufs, self._active
        n = len(bufs)
        counts, lanes, nbytes = [0] * n, [NO_TRIPLES] * n, [0] * n
        for k in active:
            b = lanes[k] = bufs[k]
            bufs[k] = []
            counts[k] = c = len(b) // 3
            nbytes[k] = c * TRIPLE_BYTES
        active.clear()
        return counts, lanes, nbytes

    @staticmethod
    def _handle_lanes_g(state: MatchingState, lanes):
        """Feed every received ``(ctx, x, y)`` triple to the state machine,
        lane by lane in neighbor order; returns how many were handled."""
        handle = state.handle_g
        handled = 0
        for lane in lanes:
            if lane:
                it = iter(lane)
                for c, x, y in zip(it, it, it):
                    yield from handle(c, x, y)
                handled += len(lane) // 3
        return handled

    def _exchange_logs_g(self, state: MatchingState):
        """One incremental exchange of cumulative-log chunks (crash plans).

        Ships ``(start_triples, chunk)`` per surviving neighbor; the
        receiver drops the already-consumed prefix, so a post-recovery
        full-log resend (sent marks reset to zero) delivers each triple
        exactly once. Marks advance only after the collective returns —
        a raise mid-rendezvous leaves them untouched and the chunk is
        simply resent.
        """
        topo = self.topo
        nbrs = topo.neighbors
        items = []
        for q in nbrs:
            start = self.sent_mark[q]
            items.append((start // 3, self.sent_log[q][start:]))
        nbytes_each = [8 + 8 * len(chunk) for _, chunk in items]
        recv_bytes = 0
        recv, _ = yield from topo.neighbor_alltoallv_g(
            items, nbytes_each=nbytes_each)
        for q in nbrs:
            self.sent_mark[q] = len(self.sent_log[q])
        self.ctx.prof_stage("process")
        handled = 0
        for q, (start, chunk) in zip(nbrs, recv):
            have = self.consumed[q]
            if start > have:
                raise RuntimeError(
                    f"NCL log gap from rank {q}: chunk starts at triple "
                    f"{start} but only {have} consumed"
                )
            fresh = chunk[(have - start) * 3:]
            recv_bytes += 8 * len(fresh)
            handled += yield from self._handle_lanes_g(state, (fresh,))
            self.consumed[q] = have + len(fresh) // 3
        if recv_bytes:
            self.ctx.alloc(recv_bytes, "ncl-recvbuf")
            self.ctx.free(recv_bytes, "ncl-recvbuf")
        return handled

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Backend loop/buffer state for a coordinated checkpoint."""
        blob = {
            **self._loop_state(),
            "staged_bytes": self._staged_bytes,
            "topo": self._topo_ref(),
        }
        if self.fault_aware:
            blob["sent_log"] = self.sent_log
            blob["sent_mark"] = self.sent_mark
            blob["consumed"] = self.consumed
        else:
            blob["send_bufs"] = self.send_bufs
        return blob

    def restore_checkpoint(self, blob: dict) -> None:
        """Adopt a snapshot; the next :meth:`run_g` resumes mid-loop."""
        self._restore_loop_state(blob)
        self._staged_bytes = blob["staged_bytes"]
        if self.fault_aware:
            self.sent_log = blob["sent_log"]
            self.sent_mark = blob["sent_mark"]
            self.consumed = blob["consumed"]
        else:
            self.send_bufs = blob["send_bufs"]
            self._active = [k for k, b in enumerate(self.send_bufs) if b]
            self.nbr_index = self.topo.neighbor_index

    def finalize(self, state: MatchingState) -> None:
        if self._staged_bytes:
            self.ctx.free(self._staged_bytes, "ncl-sendbuf")
            self._staged_bytes = 0
