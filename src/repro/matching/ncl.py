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

Crash recovery (extension; see docs/fault_model.md): under a crash plan
the backend keeps a *cumulative* per-neighbor send log and ships
``(start, chunk)`` payloads tagged with the chunk's position in that
log; the receiver tracks a per-sender consumed count and skips overlap.
A neighborhood collective is completed per-rank, so a crash can strand
an exchange half-done — one side advanced its sent mark, the other
never received the chunk. Recovery therefore renounces the dead rank,
revokes the stale topology scope, rebuilds the process graph over the
survivors (epoch-keyed agreement), resets every sent mark to zero and
resends the full logs: at-least-once delivery plus exact dedup restores
the no-loss invariant. Termination uses the survivor agreement instead
of a world allreduce. The fault-free path is byte-identical to the
original backend.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.state import MatchingState
from repro.mpisim.context import RankContext
from repro.mpisim.errors import RankCrashed
from repro.mpisim.topology import DistGraphTopology

#: the lane shipped to a neighbor with nothing staged. Immutable and
#: shared: the sender keeps pushing into its own (still empty) buffer
#: after the exchange, while a receiver may read the lane later.
NO_TRIPLES: tuple[int, ...] = ()


def stage(bufs: list[list[int]], active: list[int], k: int, triple) -> None:
    """Append ``triple`` to lane ``k``, noting the lane's first write."""
    b = bufs[k]
    if not b:
        active.append(k)
    b.extend(triple)


def ship_lanes(
    bufs: list[list[int]], active: list[int]
) -> tuple[list[int], list, list[int]]:
    """Hand each staged buffer over as its neighbor's lane.

    Returns ``(counts, lanes, nbytes)``, aligned with ``bufs``: triples,
    lanes and wire bytes per neighbor. Only the ``active`` lanes (those
    :func:`stage` wrote since the last shipment) cost a step here; each
    is handed over as is and replaced by a fresh list in ``bufs``, so the
    sender's next pushes cannot reach a lane in flight.
    """
    n = len(bufs)
    counts, lanes, nbytes = [0] * n, [NO_TRIPLES] * n, [0] * n
    for k in active:
        b = lanes[k] = bufs[k]
        bufs[k] = []
        counts[k] = c = len(b) // 3
        nbytes[k] = c * TRIPLE_BYTES
    active.clear()
    return counts, lanes, nbytes


def handle_lanes_g(state: MatchingState, lanes):
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


class NCLBackend:
    """Aggregated neighborhood-collective communication."""

    name = "ncl"

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        self.options = options
        self.ctx = ctx
        self.lg = lg
        plan = ctx.fault_plan
        self._plan = plan
        self.fault_aware = plan is not None and plan.has_crashes()
        self._staged_bytes = 0
        self.epoch: tuple[int, ...] = ()
        self._recoveries = 0
        # Loop state lives on the instance so a checkpoint provider can
        # capture it while the rank is parked at a checkpoint tick.
        self._iterations = 0
        self._started = False
        self._resumed = False
        if self.fault_aware:
            # Setup moves into run(): construction collectives must be
            # survivor-safe. Send state is keyed by *rank* (not neighbor
            # slot) so it survives a topology rebuild.
            self.topo = None
            self._all_nbrs = sorted(set(int(q) for q in lg.neighbor_ranks))
            #: cumulative flat (ctx, x, y) triples ever pushed, per target
            self.sent_log: dict[int, list[int]] = {q: [] for q in self._all_nbrs}
            #: ints of sent_log[q] already shipped in a completed exchange
            self.sent_mark: dict[int, int] = {q: 0 for q in self._all_nbrs}
            #: triples consumed from each sender (dedup on resend overlap)
            self.consumed: dict[int, int] = {q: 0 for q in self._all_nbrs}
        else:
            # Setup collective deferred to the first run_g() step (it
            # parks, which must go through the yield protocol; nothing in
            # between touches the clock or trace). On resume, topology
            # and send buffers come from the checkpoint
            # (restore_checkpoint) instead — re-running the setup
            # collective would charge time the uninterrupted run never
            # spent.
            self.topo = None
        self._needs_setup = not (self.fault_aware or ctx.resuming)

    def _setup_comm_g(self):
        self._needs_setup = False
        self.topo = yield from self.ctx.dist_graph_create_adjacent_g(
            self.lg.neighbor_ranks)
        self.nbr_index = self.topo.neighbor_index
        self.send_bufs: list[list[int]] = [[] for _ in self.topo.neighbors]
        #: indices of the non-empty send buffers (see :func:`stage`)
        self._active: list[int] = []

    # ------------------------------------------------------------------
    def push(self, ctx_id: Ctx, target_rank: int, x: int, y: int) -> None:
        """Stage the triple for the next collective exchange."""
        if self.fault_aware:
            self.sent_log[target_rank].extend((int(ctx_id), x, y))
        else:
            stage(self.send_bufs, self._active, self.nbr_index[target_rank],
                  (int(ctx_id), x, y))
        self.ctx.alloc(TRIPLE_BYTES, "ncl-sendbuf")
        self._staged_bytes += TRIPLE_BYTES

    def _evoke_and_process_g(self, state: MatchingState):
        """One aggregated exchange: counts alltoall, then payload alltoallv."""
        self.ctx.prof_stage("evoke")
        topo = self.topo
        counts, lanes, nbytes_each = ship_lanes(self.send_bufs, self._active)
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
        handled = yield from handle_lanes_g(state, items)
        self.ctx.free(recv_bytes, "ncl-recvbuf")
        return handled

    # ------------------------------------------------------------------
    # crash-survivable path
    # ------------------------------------------------------------------
    def _exchange_logs_g(self, state: MatchingState):
        """One incremental exchange of cumulative-log chunks.

        Ships ``(start_triples, chunk)`` per surviving neighbor; the
        receiver drops the already-consumed prefix, so a post-recovery
        full-log resend (sent marks reset to zero) delivers each triple
        exactly once. Marks advance only after the collective returns —
        a raise mid-rendezvous leaves them untouched and the chunk is
        simply resent.
        """
        self.ctx.prof_stage("evoke")
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
            handled += yield from handle_lanes_g(state, (fresh,))
            self.consumed[q] = have + len(fresh) // 3
        if recv_bytes:
            self.ctx.alloc(recv_bytes, "ncl-recvbuf")
            self.ctx.free(recv_bytes, "ncl-recvbuf")
        return handled

    def _setup_g(self, state: MatchingState):
        """(Re)build the survivor topology and schedule a full resync."""
        self.ctx.prof_stage("recovery")
        self.epoch = tuple(sorted(state.dead_ranks))
        live = [q for q in self._all_nbrs if q not in state.dead_ranks]
        self.topo = yield from self.ctx.shrink_rebuild_topology_g(
            live, epoch=self.epoch)
        if self._recoveries:
            # A half-completed exchange may have advanced a peer's sent
            # mark past data we never received: resend everything, the
            # consumed counters dedup the overlap.
            for q in live:
                self.sent_mark[q] = 0

    def _recover_g(self, state: MatchingState, blame: int):
        ctx = self.ctx
        ctx.prof_stage("recovery")
        for r in sorted(ctx.failed_ranks()):
            if r not in state.dead_ranks:
                if self._plan is None or self._plan.crash_time(r) is None:
                    # Detection is plan-driven: a partitioned-but-alive
                    # peer can never land here; the counter proves it.
                    ctx.counters().spurious_detections += 1
                yield from state.renounce_rank_g(r)
        if self.topo is not None:
            ctx.revoke_topology(self.topo, blame)
        self.topo = None
        self._recoveries += 1

    def _run_survivable_g(self, state: MatchingState):
        ctx = self.ctx
        if self._resumed:
            self._resumed = False
            yield from ctx.reissue_parked_wait_g()
        while True:
            try:
                if self.topo is None:
                    yield from self._setup_g(state)
                if not self._started:
                    yield from state.start_g()
                    self._started = True
                while True:
                    yield from ctx.checkpoint_tick_g()
                    self._iterations += 1
                    ctx.prof_iteration(self._iterations)
                    yield from self._exchange_logs_g(state)
                    ctx.prof_stage("push")
                    yield from state.drain_work_g()
                    ctx.prof_stage("terminate")
                    debt = state.remaining()
                    agreed = yield from ctx.agree_g(
                        debt, epoch=self.epoch, label="loop")
                    if int(agreed) == 0:
                        return {
                            "iterations": self._iterations,
                            "recoveries": self._recoveries,
                        }
            except RankCrashed as e:
                yield from self._recover_g(state, e.rank)

    # ------------------------------------------------------------------
    def run_g(self, state: MatchingState):
        if self.fault_aware:
            return (yield from self._run_survivable_g(state))
        ctx = self.ctx
        if self._needs_setup:
            yield from self._setup_comm_g()
        if self._resumed:
            self._resumed = False
            yield from ctx.reissue_parked_wait_g()
        else:
            yield from state.start_g()
        while True:
            # Coordinated-checkpoint safepoint: parks here (charge-free)
            # when a cut is due; a resumed run re-enters at this exact
            # point and the tick no-ops (the next due time was advanced
            # before the snapshot was taken).
            yield from ctx.checkpoint_tick_g()
            self._iterations += 1
            ctx.prof_iteration(self._iterations)
            yield from self._evoke_and_process_g(state)
            ctx.prof_stage("push")
            yield from state.drain_work_g()
            ctx.prof_stage("terminate")
            done = yield from ctx.allreduce_g(state.remaining())
            if done == 0:
                break
        return {"iterations": self._iterations}

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Backend loop/buffer state for a coordinated checkpoint.

        Topology handles are captured as ``(scope_id, adjacency, epoch)``
        and rebuilt communication-free on resume.
        """
        blob: dict = {
            "iterations": self._iterations,
            "started": self._started,
            "recoveries": self._recoveries,
            "epoch": self.epoch,
            "staged_bytes": self._staged_bytes,
            "topo": None
            if self.topo is None
            else (self.topo.scope_id, self.topo.adjacency, self.topo.epoch),
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
        self._iterations = blob["iterations"]
        self._started = blob["started"]
        self._recoveries = blob["recoveries"]
        self.epoch = blob["epoch"]
        self._staged_bytes = blob["staged_bytes"]
        if blob["topo"] is not None:
            scope_id, adjacency, epoch = blob["topo"]
            self.topo = DistGraphTopology(
                self.ctx, scope_id, adjacency, epoch=epoch
            )
        if self.fault_aware:
            self.sent_log = blob["sent_log"]
            self.sent_mark = blob["sent_mark"]
            self.consumed = blob["consumed"]
        else:
            self.send_bufs = blob["send_bufs"]
            self._active = [k for k, b in enumerate(self.send_bufs) if b]
            self.nbr_index = self.topo.neighbor_index
        self._resumed = True

    def finalize(self, state: MatchingState) -> None:
        if self._staged_bytes:
            self.ctx.free(self._staged_bytes, "ncl-sendbuf")
            self._staged_bytes = 0
