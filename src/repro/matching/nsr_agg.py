"""NSR-AGG — Send-Recv matching over the message-aggregation layer.

The ablation backend between NSR and NCL: it keeps NSR's asynchronous
Send-Recv semantics and purely local termination (no collectives at all),
but routes every Push through a
:class:`~repro.mpisim.aggregate.MessageAggregator`, so same-destination
triples coalesce into batched wire messages. Table I mapping: Push =
append to a per-destination coalescing lane, Evoke = probe + unpack one
*batch* at a time, Process = dispatch the coalesced triples.

It has no event loop of its own: it runs
:meth:`~repro.matching.nsr.NSRBackend.run_g` and differs from ``nsr``
only in how it pushes and receives. It overrides four of that loop's
steps — the receive step (:meth:`MessageAggregator.poll_g`), the flush
before the rank blocks or leaves, the coalescing linger, and the rule
that a productive iteration polls again before it may leave.

Lanes accumulate across productive iterations and flush at every
*blocking* boundary — before the rank waits on the wire or leaves the
loop, so no triple ever sits buffered while its target depends on it
(the invariant NSR's local-termination argument needs). Flushing on
every iteration would shrink the coalescing window to one poll's worth
of traffic; flushing only when out of local work lets whole proposal
cascades ride one batch, and a rank running dry first lingers
:data:`FLUSH_DELAY` for more traffic to coalesce. Hot lanes additionally
auto-flush at the configured byte or message-count threshold
(``MatchingOptions.agg_flush_bytes`` / ``agg_flush_count``).

Comparing ``nsr-agg`` against ``nsr`` and ``ncl`` isolates how much of
NCL's advantage (paper Tables III/IV, Fig. 4) is *pure aggregation*
versus the collective machinery itself — the question the
``ablate-aggregation`` experiment quantifies.

Fault tolerance: everything but the batching is NSR's. Rank crashes are
handled NSR-style (renounce the dead rank's cross edges and finish on
the survivor subgraph), and messages still buffered for a detected-dead
destination are dropped and reported via the ``agg_dropped_dead``
counter. Message-fault plans (drop/dup/delay) and network partitions are
masked by NSR's reliable channel, which carries each flushed batch as
one DATA message: a lost batch is retransmitted whole, a duplicated
batch is suppressed by its sequence number, and a batch trapped behind a
partition is re-sent after the heal — so the backend computes the
identical matching to ``nsr`` under the same fault plan.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.nsr import NSRBackend
from repro.mpisim.context import RankContext

#: aggregation timer (virtual s): how long an idle rank lingers for more
#: coalescable traffic before flushing its lanes; a few network latencies
#: wide, so one linger spans a wave of proposals
FLUSH_DELAY = 5e-6


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

    # ------------------------------------------------------------------
    # NSR's loop steps, batched
    # ------------------------------------------------------------------
    def _receive_g(self, state):
        """Unpack every arrived batch (through the channel when there is
        one); the driven value is the coalesced messages delivered."""
        return self.agg.poll_g(state.deliver)

    def _flush_g(self):
        """Ship every lane: nothing may stay buffered while the rank
        blocks or leaves."""
        yield from self.agg.flush_all_g()
        if self._staged_bytes:
            self.ctx.free(self._staged_bytes, "agg-sendbuf")
            self._staged_bytes = 0

    def _coalesce_g(self):
        """With messages staged, linger one timer period before the
        flush: in-flight traffic that lands within it is coalesced into
        the same batches. Once per dry spell; the next dry iteration
        flushes and blocks."""
        if self._lingered or not self.agg.pending_messages():
            self._lingered = False
            return False
        self._lingered = True
        yield from self.ctx.probe_g(deadline=self.ctx.now + FLUSH_DELAY)
        return True

    def _poll_again(self) -> bool:
        """Lanes accumulate across productive iterations, so a productive
        iteration polls again before it may flush, block or leave; the
        coalescing linger starts over."""
        self._lingered = False
        return True

    def _forget_rank(self, r: int) -> None:
        super()._forget_rank(r)
        self.agg.drop_rank(r)

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
