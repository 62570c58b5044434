"""NSR-AGG — Send-Recv matching over the message-aggregation layer.

The ablation backend between NSR and NCL: it keeps NSR's asynchronous
Send-Recv semantics and purely local termination (no collectives at all),
but routes every Push through a
:class:`~repro.mpisim.aggregate.MessageAggregator`, so same-destination
triples coalesce into batched wire messages. Table I mapping: Push =
append to a per-destination coalescing lane, Evoke = probe + unpack one
*batch* at a time, Process = dispatch the coalesced triples.

Lanes accumulate across productive iterations and flush at every
*blocking* boundary — before the rank waits on the wire or leaves the
loop, so no triple ever sits buffered while its target depends on it
(the invariant NSR's local-termination argument needs). Flushing on
every iteration would shrink the coalescing window to one poll's worth
of traffic; flushing only when out of local work lets whole proposal
cascades ride one batch. Hot lanes additionally auto-flush at the
configured byte or message-count threshold
(``MatchingOptions.agg_flush_bytes`` / ``agg_flush_count``).

Comparing ``nsr-agg`` against ``nsr`` and ``ncl`` isolates how much of
NCL's advantage (paper Tables III/IV, Fig. 4) is *pure aggregation*
versus the collective machinery itself — the question the
``ablate-aggregation`` experiment quantifies.

Fault tolerance: everything but the batching is NSR's
(:class:`~repro.matching.nsr.NSRBackend`, which this backend extends).
Rank crashes are handled NSR-style (renounce the dead rank's cross edges
and finish on the survivor subgraph), and messages still buffered for a
detected-dead destination are dropped and reported via the
``agg_dropped_dead`` counter. Message-fault plans (drop/dup/delay) and
network partitions are masked by NSR's reliable channel, which carries
each flushed batch as one DATA message: a lost batch is retransmitted
whole, a duplicated batch is suppressed by its sequence number, and a
batch trapped behind a partition is re-sent after the heal — so the
backend computes the identical matching to ``nsr`` under the same fault
plan.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.nsr import NSRBackend
from repro.matching.state import MatchingState
from repro.mpisim.context import RankContext


class NSRAggBackend(NSRBackend):
    """Send-Recv with same-destination message coalescing."""

    name = "nsr-agg"
    #: batched unpacking amortizes the per-message software dispatch that
    #: costs plain NSR handle_scale=14 (paper §V-B: derived from the
    #: NSR/NCL runtime gap); one probe+recv covers a whole batch.
    handle_scale = 2.0

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        # NSR's fixed per-peer footprint too, so nsr vs nsr-agg memory
        # differences are transport-only.
        super().__init__(ctx, lg, options)
        self.flush_delay = options.agg_flush_delay
        self.agg = ctx.aggregator(
            flush_bytes=options.agg_flush_bytes,
            flush_count=options.agg_flush_count,
            channel=self.channel,
        )
        self._staged_bytes = 0
        self._lingered = False

    # ------------------------------------------------------------------
    def push_g(self, ctx_id: Ctx, target_rank: int, x: int, y: int):
        """Stage the triple in the target's coalescing lane."""
        yield from self.agg.append_g(
            target_rank, int(ctx_id), (x, y), TRIPLE_BYTES)
        self.ctx.alloc(TRIPLE_BYTES, "agg-sendbuf")
        self._staged_bytes += TRIPLE_BYTES

    def _deliver(self, src: int, user_tag: int, payload):
        # Generator handler: the aggregator's poll path drives it.
        x, y = payload
        yield from self._state.handle_g(user_tag, x, y)

    def _renounce_g(self, state: MatchingState, r: int):
        yield from super()._renounce_g(state, r)
        self.agg.drop_rank(r)

    # ------------------------------------------------------------------
    def _flush_boundary_g(self):
        """Ship every lane; runs before any block or loop exit."""
        yield from self.agg.flush_all_g()
        if self._staged_bytes:
            self.ctx.free(self._staged_bytes, "agg-sendbuf")
            self._staged_bytes = 0

    def run_g(self, state: MatchingState):
        """NSR's event loop with batch transport and boundary flushes."""
        ctx = self.ctx
        agg = self.agg
        chan = self.channel
        rc = ctx.counters()
        self._state = state
        yield from self._start_g(state)
        while True:
            yield from ctx.checkpoint_tick_g()
            self._iterations += 1
            ctx.prof_iteration(self._iterations)
            if self.fault_aware:
                yield from self._recover_g(state)
            ctx.prof_stage("evoke")
            acks_before = rc.acks_sent
            progressed = (yield from agg.poll_g(self._deliver)) > 0
            if rc.acks_sent > acks_before:
                # Any batch receipt (dups included) restarts the linger
                # clock: the sender clearly had not seen our ack yet.
                self._quiet_until = None
            if chan is not None:
                yield from chan.service_g(ctx.now,
                                          may_abandon=state.locally_done())
            if state.work:
                ctx.prof_stage("push")
                yield from state.drain_work_g()
                progressed = True
            if progressed:
                self._lingered = False
                continue
            if state.locally_done():
                # Final responses (REJECT/INVALID to peers still waiting
                # on us) must go on the wire before this rank leaves.
                yield from self._flush_boundary_g()
                if chan is None or chan.idle():
                    if (yield from self._linger_g()):
                        break
                    continue
                # Unacked batches remain: wait for their acks or the
                # retransmission timer, whichever first.
                self._quiet_until = None
                yield from ctx.probe_g(deadline=chan.next_deadline())
                continue
            self._quiet_until = None
            # Out of local work. If messages are staged, linger one timer
            # period first: in-flight traffic that lands within it gets
            # coalesced into the same batches (and resets the timer).
            if (
                self.flush_delay is not None
                and not self._lingered
                and agg.pending_messages() > 0
            ):
                self._lingered = True
                yield from ctx.probe_g(deadline=ctx.now + self.flush_delay)
                continue
            # Timer expired (or nothing staged): ship everything — nothing
            # may stay buffered while peers wait on us — then fast-forward
            # to the next arrival (bounded by the retransmission timer
            # when reliable).
            yield from self._flush_boundary_g()
            self._lingered = False
            yield from ctx.probe_g(deadline=self._next_deadline())
        return {"iterations": self._iterations}

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """NSR's loop/channel state plus the lanes and the flush timer."""
        blob = super().snapshot()
        blob["lingered"] = self._lingered
        blob["staged_bytes"] = self._staged_bytes
        blob["agg"] = self.agg.snapshot()
        return blob

    def restore_checkpoint(self, blob: dict) -> None:
        """Adopt a snapshot; the next :meth:`run_g` resumes mid-loop."""
        super().restore_checkpoint(blob)
        self._lingered = blob["lingered"]
        self._staged_bytes = blob["staged_bytes"]
        self.agg.restore(blob["agg"])
