"""Distributed level-synchronous BFS (Graph500-style) over Send-Recv.

The paper uses Graph500 BFS only as a communication-pattern *contrast*
for matching (Figs. 2 and 11): BFS converges in a few level-synchronous
rounds with bulk frontier exchanges, whereas matching generates dynamic,
unpredictable traffic over many rounds. This module reproduces the BFS
side of that comparison with the same 1D block distribution and
nonblocking Send-Recv transport as the matching NSR backend, so the two
communication matrices are directly comparable. Its frontier goes to the
owner of each candidate, not to every neighbor rank, so it keeps its own
rank main but shares the :mod:`repro.kernels` run driver.
"""

from __future__ import annotations

import numpy as np

from repro.graph.distribution import LocalGraph
from repro.kernels import run_kernel
from repro.mpisim.context import RankContext

_FRONTIER_TAG = 10


def bfs_rank_main(
    ctx: RankContext,
    parts: list[LocalGraph],
    root: int,
) -> dict:
    """SPMD level-synchronous BFS; returns the owned level slice.

    Each round: expand the local frontier, send remote candidate vertices
    to their owners (one message per (owner, vertex batch) — Graph500
    codes batch per destination), then allreduce the global frontier size
    to decide termination.
    """
    lg = parts[ctx.rank]
    ctx.alloc(lg.memory_bytes(), "graph-csr")
    n_local = lg.num_owned
    level = np.full(n_local, -1, dtype=np.int64)
    frontier: list[int] = []
    if lg.owns(root):
        level[root - lg.lo] = 0
        frontier.append(root)

    depth = 0
    rounds = 0
    while True:
        rounds += 1
        # Expand: bucket remote candidates per owning rank.
        out: dict[int, list[int]] = {}
        next_frontier: list[int] = []
        for v in frontier:
            nbrs, _ = lg.row(v)
            ctx.compute(1.5 * max(1, len(nbrs)))
            for u in nbrs:
                u = int(u)
                if lg.owns(u):
                    i = u - lg.lo
                    if level[i] < 0:
                        level[i] = depth + 1
                        next_frontier.append(u)
                else:
                    out.setdefault(lg.dist.owner(u), []).append(u)

        # Ship candidates (batched per destination, Graph500-style).
        for q, verts in sorted(out.items()):
            yield from ctx.isend_g(q, verts, tag=_FRONTIER_TAG, nbytes=8 * len(verts))
        # Everyone agrees on how many batches are in flight this round.
        inbound = yield from ctx.alltoall_g(
            [len(out.get(q, ())) and 1 for q in range(ctx.nprocs)], nbytes_per_pair=8
        )
        for q, has_batch in enumerate(inbound):
            if has_batch:
                msg = yield from ctx.recv_g(source=q, tag=_FRONTIER_TAG)
                ctx.compute(1.0 * len(msg.payload))
                for u in msg.payload:
                    i = u - lg.lo
                    if level[i] < 0:
                        level[i] = depth + 1
                        next_frontier.append(u)

        depth += 1
        total = yield from ctx.allreduce_g(len(next_frontier))
        if total == 0:
            break
        frontier = next_frontier

    ctx.free(lg.memory_bytes(), "graph-csr")
    return {"values": level, "rounds": rounds}


def run_bfs(g, nprocs: int, root: int = 0, machine=None):
    """Partition, run the SPMD BFS; returns (level array, engine result, rounds)."""
    return run_kernel(g, nprocs, bfs_rank_main, (root,), machine)
