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
the same matching as the fault-free run. The channel is on exactly when
the fault plan injects message faults or partitions. Rank crashes are
handled ULFM-style: on detection the survivors renounce all cross edges
into the dead rank (``MatchingState.renounce_failed_g``) and finish the
matching on the surviving subgraph.

:meth:`NSRBackend.run_g` is the one Send-Recv event loop: ``nsr-agg``
runs it too, and overrides only its named steps — the receive step, the
flush before the rank blocks or leaves, the coalescing linger and what a
productive iteration does next. Without a channel or crashes the loop's
extra steps are skipped.
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
        peers = len(lg.ghost_ranks)
        self._fixed_bytes = (
            64 * max(1, peers) + ctx.machine.eager_pool_per_peer_bytes * peers
        )
        if not ctx.resuming:
            # Resume: the restored counters already carry this allocation.
            self.ctx.alloc(self._fixed_bytes, "p2p-tables")

        plan = ctx.fault_plan
        self.fault_aware = plan is not None and plan.has_crashes()
        self.channel: ReliableChannel | None = None
        if plan is not None and plan.needs_reliability():
            self.channel = ReliableChannel(ctx)
            # Linger after quiescence: long enough that a peer's final
            # retransmission (worst-case backoff) plus its injected delay
            # still finds us alive to ack it.
            self._linger = 3.0 * self.channel.rto_max + plan.delay_max
            # A quiescent rank must stay alive past the last partition
            # heal: a peer's retransmission deferred behind the cut cannot
            # reach us before then, so the linger clock starts no earlier.
            self._quiet_floor = max(
                (w.t_end for w in plan.partitions), default=0.0)

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
            # and renouncing it repairs the bookkeeping at the loop top.
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
        if self._resumed:
            self._resumed = False
            yield from ctx.reissue_parked_wait_g()
        else:
            yield from state.start_g()
        while True:
            # Coordinated-checkpoint boundary: charge-free no-op until a
            # cut is due, then parks so the scheduler can assemble the
            # snapshot (ranks caught in a blocking probe are safepoints
            # already). A resumed run re-enters here and the tick no-ops,
            # so every probe below is the last step of its iteration.
            yield from ctx.checkpoint_tick_g()
            self._iterations += 1
            ctx.prof_iteration(self._iterations)
            if self.fault_aware:
                ctx.prof_stage("recovery")
                yield from state.renounce_failed_g(
                    ctx, ctx.failed_ranks(), self._forget_rank)
            ctx.prof_stage("evoke")
            acks_before = rc.acks_sent
            progressed = (yield from self._receive_g(state)) > 0
            if rc.acks_sent > acks_before:
                # Any receipt (dups included) restarts the linger clock:
                # the sender clearly had not seen our ack yet.
                self._quiet_until = None
            if chan is not None:
                yield from chan.service_g(ctx.now,
                                          may_abandon=state.locally_done())
            if state.work:
                ctx.prof_stage("push")
                yield from state.drain_work_g()
                progressed = True
            if progressed and self._poll_again():
                continue
            done = state.locally_done()
            if done:
                # Final responses (REJECT/INVALID to peers still waiting
                # on us) must be on the wire before this rank leaves.
                yield from self._flush_g()
                if chan is None or chan.idle():
                    if (yield from self._linger_g()):
                        break
                    continue
            self._quiet_until = None
            if progressed:
                continue
            if not done and (yield from self._coalesce_g()):
                continue
            # Nothing local to do: the next change must arrive on the
            # wire (or a retransmission fall due). Real codes spin on
            # Iprobe; we model the blocking probe (fast-forwarding the
            # clock) and account the wait. Nothing may stay buffered
            # while peers wait on us.
            yield from self._flush_g()
            yield from ctx.probe_g(deadline=self._next_deadline())
        return {"iterations": self._iterations}

    # ------------------------------------------------------------------
    # the loop's named steps (nsr-agg overrides the first four)
    # ------------------------------------------------------------------
    def _receive_g(self, state: MatchingState):
        """Evoke and process every arrived message; the loop drives the
        returned generator, whose value is the count delivered."""
        if self.channel is not None:
            return self.channel.poll_g(state.deliver)
        return self._drain_incoming_g(state)

    def _flush_g(self):
        """Ship what the push step buffered, before the rank blocks or
        leaves. NSR sends each message at once: nothing to drive."""
        return ()

    def _coalesce_g(self):
        """Out of local work, linger for traffic to coalesce with; the
        driven value is True when the rank waited. NSR never does."""
        return ()

    def _poll_again(self) -> bool:
        """A productive iteration: True to poll again before the rank may
        block or leave. NSR may leave at once."""
        return False

    def _forget_rank(self, r: int) -> None:
        """Drop transport state for a renounced dead rank."""
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
