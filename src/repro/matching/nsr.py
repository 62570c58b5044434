"""NSR — the baseline nonblocking Send-Recv backend (paper §IV-D(a)).

Table I mapping: Push = ``MPI_Isend`` (one message per event, no
aggregation), Evoke = ``MPI_Iprobe``, Process = ``MPI_Recv`` one message
at a time. The communication context rides in the message tag.

Termination is purely local (paper §V-D): a rank leaves the loop when its
``nghosts`` and ``awaiting`` counters reach zero; any still-in-flight
messages addressed to it are then algorithmically irrelevant (their
senders were already informed by this rank's final REJECT/INVALID).

Fault tolerance (extension; see docs/fault_model.md): message faults
(drop/dup/delay) and partitions are masked by the
:class:`~repro.mpisim.reliable.ReliableChannel` ack/retry transport, so
the state machine still sees exactly-once in-order delivery and computes
the same matching as the fault-free run. Rank crashes are handled
ULFM-style: on detection the survivors renounce all cross edges into the
dead rank (``MatchingState.renounce_rank``) and finish the matching on
the surviving subgraph. One event loop serves every case; without a
channel or crashes its extra steps are skipped.

:class:`NSRBackend` also holds the Send-Recv policy ``nsr-agg``
inherits: the fixed p2p-table footprint, the reliability decision and
its channel, the post-quiescence linger, and crash renouncement.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.state import MatchingState
from repro.mpisim.context import RankContext
from repro.mpisim.reliable import ReliableChannel


class NSRBackend:
    """One-message-per-event Send-Recv communication."""

    name = "nsr"
    handle_scale = 14.0  #: per-message (unbatched) application dispatch cost

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        self.ctx = ctx
        self.lg = lg
        self.options = options
        # Per-peer request tables plus the eager-protocol buffer pool the
        # MPI layer pins for every point-to-point peer — memory model only.
        deg = max(1, len(lg.neighbor_ranks))
        self._fixed_bytes = (
            64 * deg + ctx.machine.eager_pool_per_peer_bytes * len(lg.neighbor_ranks)
        )
        if not ctx.resuming:
            # Resume: the restored counters already carry this allocation.
            self.ctx.alloc(self._fixed_bytes, "p2p-tables")

        plan = ctx.fault_plan
        self._plan = plan
        want_reliable = getattr(options, "reliable", None)
        if want_reliable is None:
            want_reliable = plan is not None and plan.needs_reliability()
        self.fault_aware = plan is not None and plan.has_crashes()
        # A quiescent rank must stay alive past the last partition heal:
        # a peer's retransmission deferred behind the cut cannot reach us
        # before then, so the linger clock starts no earlier than this.
        self._quiet_floor = (
            max((w.t_end for w in plan.partitions), default=0.0)
            if plan is not None
            else 0.0
        )
        self.channel: ReliableChannel | None = None
        if want_reliable:
            self.channel = ReliableChannel(ctx)
            # Linger after quiescence: long enough that a peer's final
            # retransmission (worst-case backoff) plus its injected delay
            # still finds us alive to ack it.
            delay_max = plan.delay_max if plan is not None else 0.0
            self._linger = 3.0 * self.channel.rto_max + delay_max

        # Loop state lives on the instance so a checkpoint provider can
        # capture it while the rank is parked inside a probe.
        self._iterations = 0
        self._quiet_until: float | None = None
        self._resumed = False

    # ------------------------------------------------------------------
    def push_g(self, ctx_id: Ctx, target_rank: int, x: int, y: int):
        """Immediate nonblocking send; the context is the MPI tag. Returns
        the send's generator rather than driving it in a frame of its own."""
        if self.channel is not None:
            return self.channel.send_g(
                target_rank, int(ctx_id), (x, y), TRIPLE_BYTES)
        if self.fault_aware and self.ctx.is_failed(target_rank):
            # Detected-dead peer we have not renounced yet (detection can
            # land mid-iteration); the message would be blackholed anyway
            # and renounce_rank repairs the bookkeeping at the loop top.
            return None
        return self.ctx.isend_g(target_rank, (x, y), tag=int(ctx_id),
                                nbytes=TRIPLE_BYTES)

    def _drain_incoming_g(self, state: MatchingState):
        """Probe-and-receive until the queue is (momentarily) empty."""
        ctx = self.ctx
        handled = 0
        while True:
            msg = yield from ctx.iprobe_g(receive=True)
            if msg is None:
                return handled
            x, y = msg.payload
            yield from state.handle_g(msg.tag, x, y)
            handled += 1

    # ------------------------------------------------------------------
    def run_g(self, state: MatchingState):
        """Algorithm 3's main loop, event-driven."""
        ctx = self.ctx
        chan = self.channel
        rc = ctx.counters()
        yield from self._start_g(state)

        def deliver(src: int, user_tag: int, payload):
            x, y = payload
            yield from state.handle_g(user_tag, x, y)

        while True:
            # Coordinated-checkpoint boundary: charge-free no-op until a
            # cut is due, then parks so the scheduler can assemble the
            # snapshot (ranks caught in a blocking probe are safepoints
            # already). A resumed run re-enters here and the tick no-ops.
            yield from ctx.checkpoint_tick_g()
            self._iterations += 1
            ctx.prof_iteration(self._iterations)
            if self.fault_aware:
                yield from self._recover_g(state)
            ctx.prof_stage("evoke")
            if chan is None:
                progressed = (yield from self._drain_incoming_g(state)) > 0
            else:
                acks_before = rc.acks_sent
                progressed = (yield from chan.poll_g(deliver)) > 0
                if rc.acks_sent > acks_before:
                    # Any receipt (dups included) restarts the linger
                    # clock: the sender clearly had not seen our ack yet.
                    self._quiet_until = None
                yield from chan.service_g(ctx.now,
                                          may_abandon=state.locally_done())
            if state.work:
                ctx.prof_stage("push")
                yield from state.drain_work_g()
                progressed = True
            if state.locally_done() and (chan is None or chan.idle()):
                if (yield from self._linger_g()):
                    break
                continue
            self._quiet_until = None
            if not progressed:
                # Nothing local to do: the next change must arrive on the
                # wire (or a retransmission fall due). Real codes spin on
                # Iprobe; we model the blocking probe (fast-forwarding the
                # clock) and account the wait.
                yield from ctx.probe_g(deadline=self._next_deadline())
        return {"iterations": self._iterations}

    # ------------------------------------------------------------------
    # Send-Recv policy shared with nsr-agg
    # ------------------------------------------------------------------
    def _start_g(self, state: MatchingState):
        """Begin the matching, or re-enter a resumed run's parked wait."""
        if self._resumed:
            self._resumed = False
            yield from self.ctx.reissue_parked_wait_g()
        else:
            yield from state.start_g()

    def _recover_g(self, state: MatchingState):
        """ULFM-style recovery: renounce every newly detected dead rank."""
        ctx = self.ctx
        ctx.prof_stage("recovery")
        for r in ctx.failed_ranks():
            if r not in state.dead_ranks:
                yield from self._renounce_g(state, r)

    def _renounce_g(self, state: MatchingState, r: int):
        if self._plan is None or self._plan.crash_time(r) is None:
            # Detection is plan-driven, so this cannot happen for a merely
            # partitioned peer — the counter proves it stayed that way.
            self.ctx.counters().spurious_detections += 1
        yield from state.renounce_rank_g(r)
        if self.channel is not None:
            self.channel.on_rank_failed(r)

    def _next_deadline(self) -> float | None:
        """When a blocking probe must wake for a retransmission, if ever."""
        return None if self.channel is None else self.channel.next_deadline()

    def _linger_g(self):
        """Locally done with every send acked: True once the rank may leave.

        Without a channel that is at once. With one the rank lingers for
        a quiet period, still acking retransmissions, so peers can retire
        their pending tables before it disappears; the clock starts no
        earlier than the last partition heal — a deferred retransmission
        cannot reach it before then.
        """
        if self.channel is None:
            return True
        ctx = self.ctx
        if self._quiet_until is None:
            self._quiet_until = max(ctx.now, self._quiet_floor) + self._linger
        if ctx.now >= self._quiet_until:
            return True
        yield from ctx.probe_g(deadline=self._quiet_until)
        return False

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Backend loop/transport state for a coordinated checkpoint."""
        blob: dict = {
            "iterations": self._iterations,
            "quiet_until": self._quiet_until,
        }
        if self.channel is not None:
            blob["channel"] = self.channel.snapshot()
        return blob

    def restore_checkpoint(self, blob: dict) -> None:
        """Adopt a snapshot; the next :meth:`run_g` resumes mid-loop."""
        self._iterations = blob["iterations"]
        self._quiet_until = blob["quiet_until"]
        if self.channel is not None:
            self.channel.restore(blob["channel"])
        self._resumed = True

    def finalize(self, state: MatchingState) -> None:
        self.ctx.free(self._fixed_bytes, "p2p-tables")
