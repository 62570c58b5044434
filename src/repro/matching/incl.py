"""INCL — nonblocking neighborhood collectives (extension backend).

The paper's related work (§VI) cites Kandalla et al.'s study of
*nonblocking* neighborhood collectives for BFS and notes that matching's
dynamic communication is a harder case. This backend answers the implied
question: the NCL structure is kept, but each iteration's payload
exchange is issued with ``MPI_Ineighbor_alltoallv`` semantics and the
PROCESSNEIGHBORS work of the previous round executes *between issue and
wait*, hiding part of the wire time behind application compute.

What can and cannot be hidden: the per-lane CPU posting cost is charged
at issue (a CPU cannot overlap with itself); the latency walk and payload
serialization overlap with whatever local work is available. On
dense-process-graph inputs this claws back part — not all — of the
blocking-collective penalty, mirroring the partial wins reported for
nonblocking collectives on irregular workloads.
"""

from __future__ import annotations

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import TRIPLE_BYTES, Ctx
from repro.matching.ncl import handle_lanes_g, ship_lanes, stage
from repro.matching.state import MatchingState
from repro.mpisim.context import RankContext


class INCLBackend:
    """Double-buffered nonblocking neighborhood-collective communication."""

    name = "incl"

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        self.options = options
        self.ctx = ctx
        self.lg = lg
        self._staged_bytes = 0

    # ------------------------------------------------------------------
    def push(self, ctx_id: Ctx, target_rank: int, x: int, y: int) -> None:
        stage(self.send_bufs, self._active, self.nbr_index[target_rank],
              (int(ctx_id), x, y))
        self.ctx.alloc(TRIPLE_BYTES, "ncl-sendbuf")
        self._staged_bytes += TRIPLE_BYTES

    # ------------------------------------------------------------------
    def run_g(self, state: MatchingState):
        # Topology construction parks (it is a collective), so it is the
        # first step of the run; nothing before it touches the clock.
        self.topo = yield from self.ctx.dist_graph_create_adjacent_g(
            self.lg.neighbor_ranks)
        self.nbr_index = self.topo.neighbor_index
        self.send_bufs: list[list[int]] = [[] for _ in self.topo.neighbors]
        self._active: list[int] = []  # non-empty send buffers
        yield from state.start_g()
        iterations = 0
        while True:
            iterations += 1
            # Swap buffers: pushes generated during the overlap window and
            # the processing below belong to the *next* exchange.
            counts, lanes, nbytes_each = ship_lanes(self.send_bufs, self._active)
            # Counts first (cheap, blocking — receivers must size buffers).
            recv_counts = yield from self.topo.neighbor_alltoall_g(
                counts, nbytes_per_item=8)
            staged = self._staged_bytes

            recv_bytes_est = sum(recv_counts) * TRIPLE_BYTES
            self.ctx.alloc(recv_bytes_est, "ncl-recvbuf")
            req = self.topo.ineighbor_alltoallv(lanes, nbytes_each=nbytes_each)
            self._staged_bytes = 0

            # Overlap window: PROCESSNEIGHBORS work deferred from the
            # previous round executes while the wire moves this round's
            # payload. (Blocking NCL drains immediately instead, leaving
            # nothing to hide transfers behind.)
            yield from state.drain_work_g()

            items, _ = yield from req.wait_g()
            self.ctx.free(staged, "ncl-sendbuf")
            yield from handle_lanes_g(state, items)
            self.ctx.free(recv_bytes_est, "ncl-recvbuf")
            # Matches found above stay queued; they are the next overlap
            # window's work. remaining() counts them, so termination is
            # not declared while work is deferred.
            done = yield from self.ctx.allreduce_g(state.remaining())
            if done == 0:
                break
        return {"iterations": iterations}

    def finalize(self, state: MatchingState) -> None:
        if self._staged_bytes:
            self.ctx.free(self._staged_bytes, "ncl-sendbuf")
            self._staged_bytes = 0
