"""The superstep loop shared by every backend that ends each round on a
global reduction (rma, ncl, incl, mbp).

Each iteration: checkpoint tick -> evoke and process (the backend's
exchange) -> push the work that produced -> a global reduction on the
remaining work decides termination (paper §V-D: unlike Send-Recv, these
ranks cannot exit on local evidence alone; MatchBox-P's older code
reached quiescence the same way).

One loop serves every run. Under a crash plan (extension; see
docs/fault_model.md) the construction collectives and the termination
reduction are the survivor-safe ones (epoch-keyed topology rebuild,
:meth:`~repro.mpisim.context.RankContext.agree_g`), and a
:class:`~repro.mpisim.errors.RankCrashed` renounces the newly detected
dead ranks, revokes the stale topology scope and re-enters setup over
the survivors. Without crashes they are the plain MPI-3 collectives, so
the fault-free run is the paper's.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.state import MatchingState
from repro.mpisim.context import RankContext
from repro.mpisim.errors import RankCrashed
from repro.mpisim.topology import DistGraphTopology


class SuperstepBackend:
    """Loop, setup, recovery and loop-state checkpointing for rma, ncl,
    incl and mbp.

    A subclass supplies ``_evoke_and_process_g(state)`` and may extend
    ``_setup_g`` (window, send buffers), ``_push_g`` (when the work the
    exchange produced is pushed), ``_work_left`` (termination debt beyond
    the state machine's) and its checkpoint blob.
    """

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        self.options = options
        self.ctx = ctx
        self.lg = lg
        plan = ctx.fault_plan
        self._plan = plan
        self.fault_aware = plan is not None and plan.has_crashes()
        # The original neighbour set: after a crash the topology is
        # rebuilt over its survivors.
        self._all_nbrs = lg.neighbor_ranks
        # Setup collectives park, so they are the loop's first step
        # (nothing before it touches the clock or trace); a resumed rank
        # adopts its topology from the checkpoint instead — re-running
        # them would charge time the uninterrupted run never spent.
        self.topo: DistGraphTopology | None = None
        self.epoch: tuple[int, ...] = ()
        self._recoveries = 0
        # Loop state lives on the instance so a checkpoint provider can
        # capture it while the rank is parked at a checkpoint tick.
        self._iterations = 0
        self._started = False
        self._resumed = False

    # ------------------------------------------------------------------
    def run_g(self, state: MatchingState):
        ctx = self.ctx
        if self._resumed:
            self._resumed = False
            yield from ctx.reissue_parked_wait_g()
        while True:
            try:
                if self.topo is None:
                    yield from self._setup_g(state.dead_ranks)
                if not self._started:
                    yield from state.start_g()
                    self._started = True
                while True:
                    # Coordinated-checkpoint safepoint: parks here
                    # (charge-free) when a cut is due; a resumed run
                    # re-enters at this exact point and the tick no-ops
                    # (the next due time was advanced before the snapshot).
                    yield from ctx.checkpoint_tick_g()
                    self._iterations += 1
                    ctx.prof_iteration(self._iterations)
                    ctx.prof_stage("evoke")
                    yield from self._evoke_and_process_g(state)
                    ctx.prof_stage("push")
                    yield from self._push_g(state)
                    ctx.prof_stage("terminate")
                    left = self._work_left(state)
                    if self.fault_aware:
                        left = yield from ctx.agree_g(
                            left, epoch=self.epoch, label="loop")
                    else:
                        left = yield from ctx.allreduce_g(left)
                    if left == 0:
                        return {
                            "iterations": self._iterations,
                            "recoveries": self._recoveries,
                        }
            except RankCrashed as e:
                yield from self._recover_g(state, e.rank)

    def _push_g(self, state: MatchingState):
        """Push the work this round's exchange produced. Returns what the
        loop drives with ``yield from`` (here the state's own generator,
        without a frame of its own)."""
        return state.drain_work_g()

    def _work_left(self, state: MatchingState) -> int:
        """This rank's share of the termination reduction."""
        return state.remaining()

    def _setup_g(self, dead):
        """Build the process-graph topology over the live neighbours.

        Under a crash plan this is the epoch-keyed survivor rebuild:
        SPMD-symmetric and idempotent per failure epoch, so every
        survivor runs the same agreement sequence and per-scope
        collective sequence numbers stay aligned across ranks re-entering
        from different program points.
        """
        ctx = self.ctx
        if not self.fault_aware:
            self.topo = yield from ctx.dist_graph_create_adjacent_g(self._all_nbrs)
            return
        ctx.prof_stage("recovery")
        self.epoch = tuple(sorted(dead))
        live = [q for q in self._all_nbrs if q not in dead]
        self.topo = yield from ctx.shrink_rebuild_topology_g(live, epoch=self.epoch)

    def _recover_g(self, state: MatchingState, blame: int):
        """Renounce newly detected failures and schedule a rebuild."""
        ctx = self.ctx
        ctx.prof_stage("recovery")
        yield from state.renounce_failed_g(ctx, sorted(ctx.failed_ranks()))
        if self.topo is not None:
            # Strand-proof the abandoned scope: survivors still blocked in
            # its collectives raise instead of waiting for us.
            ctx.revoke_topology(self.topo, blame)
        self.topo = None
        self._recoveries += 1

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def _loop_state(self) -> dict:
        """The loop's half of a checkpoint blob (it leads every blob)."""
        return {
            "iterations": self._iterations,
            "started": self._started,
            "recoveries": self._recoveries,
            "epoch": self.epoch,
        }

    def _topo_ref(self):
        """The topology as ``(scope_id, adjacency, epoch)``: rebuilt
        communication-free on resume."""
        if self.topo is None:
            return None
        return (self.topo.scope_id, self.topo.adjacency, self.topo.epoch)

    def _restore_loop_state(self, blob: dict) -> None:
        """Adopt the loop half of a blob; the next :meth:`run_g` resumes
        mid-loop."""
        self._iterations = blob["iterations"]
        self._started = blob["started"]
        self._recoveries = blob["recoveries"]
        self.epoch = blob["epoch"]
        if blob["topo"] is not None:
            scope_id, adjacency, epoch = blob["topo"]
            self.topo = DistGraphTopology(self.ctx, scope_id, adjacency, epoch=epoch)
        self._resumed = True
