"""MBP — a MatchBox-P-style Send-Recv baseline (paper §V, "MBP").

MatchBox-P (Catalyurek et al., 2011) predates this paper's tuned NSR
code. The paper uses it as a reference implementation and reports it
1.2-2x slower than their NSR on large graphs, and 2.5-7x slower than
NCL/RMA. The structural differences we model, all of which are documented
properties of the older queue-based design:

* **per-message acknowledgments** — every REQUEST is answered with an
  explicit ACK message even when no decision rides on it (the old
  protocol's bookkeeping), roughly doubling small-message traffic;
* **heavier per-message software path** — extra queue management and
  O(degree) bookkeeping charged per message;
* **O(p) state** — arrays sized by the full communicator, not by the
  topology neighborhood (memory model);
* **global termination rounds** — the old code established quiescence
  with communicator-wide reductions instead of the local exit rule.

The last point makes MBP a :mod:`~repro.matching.superstep` backend whose
evoke drains the incoming queue. It takes that loop's checkpoint cuts,
but has no crash recovery of its own: a crash plan needs ``spares``.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.state import MatchingState
from repro.matching.superstep import SuperstepBackend
from repro.mpisim.context import RankContext

#: extra abstract work units per message event (queue churn in the old code)
_MBP_EXTRA_WORK = 6.0


class MBPBackend(SuperstepBackend):
    """Older-generation Send-Recv with acknowledgments and global rounds."""

    name = "mbp"
    handle_scale = 20.0  #: even heavier per-message path than tuned NSR

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        super().__init__(ctx, lg, options)
        # O(p) bookkeeping arrays plus eager pools for every rank (the
        # old code opened channels communicator-wide).
        self._fixed_bytes = (96 + ctx.machine.eager_pool_per_peer_bytes // 2) * ctx.nprocs
        if not ctx.resuming:
            # Resume: the restored counters already carry this allocation.
            self.ctx.alloc(self._fixed_bytes, "mbp-tables")

    def _setup_g(self, dead):
        """Nothing to build: MBP sends point-to-point, over no topology."""
        yield from ()

    # ------------------------------------------------------------------
    def push_g(self, ctx_id: Ctx, target_rank: int, x: int, y: int):
        self.ctx.compute(_MBP_EXTRA_WORK)
        yield from self.ctx.isend_g(target_rank, (x, y), tag=int(ctx_id),
                                    nbytes=TRIPLE_BYTES)

    def _evoke_and_process_g(self, state: MatchingState):
        """Drain the incoming queue, acknowledging every REQUEST."""
        ctx = self.ctx
        handled = 0
        while True:
            msg = yield from ctx.iprobe_g(receive=True)
            if msg is None:
                return handled
            src, tag = msg.src, msg.tag
            x, y = msg.payload
            ctx.compute(_MBP_EXTRA_WORK)
            yield from state.handle_g(tag, x, y)
            if tag == int(Ctx.REQUEST):
                # Protocol acknowledgment: pure overhead traffic.
                yield from ctx.isend_g(src, (y, x), tag=int(Ctx.ACK),
                                       nbytes=TRIPLE_BYTES)
            handled += 1

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The loop state; messages in flight belong to the engine's cut."""
        return {**self._loop_state(), "topo": None}

    def restore_checkpoint(self, blob: dict) -> None:
        """Adopt a snapshot; the next :meth:`run_g` resumes mid-loop."""
        self._restore_loop_state(blob)

    def finalize(self, state: MatchingState) -> None:
        self.ctx.free(self._fixed_bytes, "mbp-tables")
