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

Everything but that one exchange is NCL's: the superstep loop
(:mod:`repro.matching.superstep`), the send lanes, the checkpoint blob.
Under a crash plan the backend is plain ``ncl`` — its cumulative-log
exchange and its push step — so it survives crashes the same way.
"""

from __future__ import annotations

from repro.matching.contexts import TRIPLE_BYTES
from repro.matching.ncl import NCLBackend
from repro.matching.state import MatchingState


class INCLBackend(NCLBackend):
    """Double-buffered nonblocking neighborhood-collective communication."""

    name = "incl"

    def _evoke_and_process_g(self, state: MatchingState):
        """Counts, then the payload issued nonblocking with the previous
        round's deferred work draining inside the overlap window."""
        if self.fault_aware:
            return (yield from super()._evoke_and_process_g(state))
        ctx = self.ctx
        topo = self.topo
        # Swap buffers: pushes generated during the overlap window and
        # the processing below belong to the *next* exchange.
        counts, lanes, nbytes_each = self._ship_lanes()
        # Counts first (cheap, blocking — receivers must size buffers).
        recv_counts = yield from topo.neighbor_alltoall_g(counts, nbytes_per_item=8)
        staged = self._staged_bytes
        recv_bytes = sum(recv_counts) * TRIPLE_BYTES
        ctx.alloc(recv_bytes, "ncl-recvbuf")
        req = topo.ineighbor_alltoallv(lanes, nbytes_each=nbytes_each)
        self._staged_bytes = 0
        # Overlap window: PROCESSNEIGHBORS work deferred from the previous
        # round executes while the wire moves this round's payload.
        # (Blocking NCL drains after its exchange instead, leaving
        # nothing to hide transfers behind.)
        ctx.prof_stage("push")
        yield from state.drain_work_g()
        ctx.prof_stage("evoke")
        items, _ = yield from req.wait_g()
        ctx.free(staged, "ncl-sendbuf")
        ctx.prof_stage("process")
        handled = yield from self._handle_lanes_g(state, items)
        ctx.free(recv_bytes, "ncl-recvbuf")
        return handled

    def _push_g(self, state: MatchingState):
        """Nothing: matches found this round stay queued as the next
        overlap window's work. ``remaining()`` counts them, so the loop
        declares no termination while work is deferred."""
        if self.fault_aware:
            return super()._push_g(state)
        return ()
