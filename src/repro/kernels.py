"""`repro.kernels` — how a bulk-synchronous kernel exchanges boundary values.

The paper (§IV-D) says its Send-Recv, RMA and neighborhood-collective
substrate "can be applied to any graph algorithm imitating the
owner-computes model". This module is that substrate for kernels that
run in rounds (connected components, speculative coloring): one boundary
exchange per model, the round loop :func:`kernel_rank_main`, and the run
driver :func:`run_kernel`, which BFS shares too (its frontier goes to the
owner of each candidate, so it keeps its own rank main).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import LocalGraph, partition_graph
from repro.mpisim.context import RankContext
from repro.mpisim.engine import Engine, EngineResult
from repro.mpisim.machine import MachineModel, cori_aries

_UPDATE_TAG = 21
_DONE_TAG = 22


def boundary_of(lg: LocalGraph) -> dict[int, np.ndarray]:
    """Sorted owned endpoints of the cross edges, per neighbor rank."""
    owners = lg.dist.owner_array(lg.adjncy)
    src = np.repeat(np.arange(lg.lo, lg.hi, dtype=np.int64), np.diff(lg.xadj))
    return {q: np.unique(src[owners == q]) for q in lg.neighbor_ranks}


# make(ctx, boundary, outbox, apply_update) sets one model up and returns
# the generator run once per round, exchange(changed); outbox(q, changed)
# gives the (vertices, values) arrays owed to neighbor q.

def _make_nsr_exchange(ctx, boundary, outbox, apply_update):
    """One isend per update plus one DONE sentinel per neighbor rank."""
    yield from ()  # nothing to set up; still a generator like the others

    def exchange(changed):
        for q in boundary:
            for v, x in zip(*(a.tolist() for a in outbox(q, changed))):
                yield from ctx.isend_g(q, (v, x), tag=_UPDATE_TAG, nbytes=16)
            yield from ctx.isend_g(q, None, tag=_DONE_TAG, nbytes=8)
        waiting = set(boundary)
        while waiting:
            msg = yield from ctx.recv_g(tag=ctx.ANY_TAG)
            if msg.tag == _DONE_TAG:
                waiting.discard(msg.src)
            else:
                apply_update(*msg.payload)

    return exchange


def _make_ncl_exchange(ctx, boundary, outbox, apply_update):
    """Flat int64 (vertex, value) pairs through ``neighbor_alltoallv``."""
    topo = yield from ctx.dist_graph_create_adjacent_g(list(boundary))

    def exchange(changed):
        items = [np.column_stack(outbox(q, changed)).ravel() for q in topo.neighbors]
        received, _ = yield from topo.neighbor_alltoallv_g(
            items, nbytes_each=[int(a.nbytes) for a in items])
        for arr in received:
            for s in range(0, len(arr), 2):
                apply_update(int(arr[s]), int(arr[s + 1]))

    return exchange


def _make_rma_exchange(ctx, boundary, outbox, apply_update):
    """Puts into per-neighbor window regions + counts exchange (Fig. 1)."""
    topo = yield from ctx.dist_graph_create_adjacent_g(list(boundary))
    nbrs = topo.neighbors
    # Unlike matching (hard 2-messages-per-pair bound), a boundary vertex
    # may change once per round indefinitely, so regions are *reused* per
    # round: the counts collective separates rounds, making overwrites of
    # already-consumed slots safe. Capacity = one round's worst case.
    caps = [2 * max(1, len(boundary[q])) for q in nbrs]
    starts = np.zeros(len(nbrs) + 1, dtype=np.int64)
    np.cumsum(caps, out=starts[1:])
    win = yield from ctx.win_allocate_g(int(starts[-1]) * 2, dtype=np.int64)
    region_start = starts * 2
    remote_base = yield from topo.neighbor_alltoall_g(
        [int(s) for s in region_start[:-1]], nbytes_per_item=8)

    def exchange(changed):
        written = [0] * len(nbrs)
        for k, q in enumerate(nbrs):
            for v, x in zip(*(a.tolist() for a in outbox(q, changed))):
                if written[k] >= caps[k]:
                    raise RuntimeError("boundary RMA region overflow")
                off = remote_base[k] + written[k] * 2
                yield from win.put_g(q, np.array([v, x], dtype=np.int64), off)
                written[k] += 1
        yield from win.flush_all_g()
        counts = yield from topo.neighbor_alltoall_g(written, nbytes_per_item=8)
        yield from win.sync_local_g()
        buf = win.local
        # Each region is consumed whole; next round rewrites it from the start.
        for k in range(len(nbrs)):
            base = int(region_start[k])
            for s in range(base, base + 2 * int(counts[k]), 2):
                apply_update(int(buf[s]), int(buf[s + 1]))

    return exchange


_EXCHANGES = {"nsr": _make_nsr_exchange, "rma": _make_rma_exchange,
              "ncl": _make_ncl_exchange}


def kernel_rank_main(ctx: RankContext, parts: list[LocalGraph], make_state,
                     model: str) -> dict:
    """SPMD rounds of the kernel ``make_state(ctx, lg)`` under ``model``.

    Each round: ``changed = state.step()`` (a bool mask over the owned
    vertices), the changed boundary values go to every neighbor rank
    that holds them as ghosts (landing through ``state.apply_update(v,
    x)``), and the global sum of ``state.settle(changed)`` ends the run
    when it reaches 0.
    """
    lg = parts[ctx.rank]
    ctx.alloc(lg.memory_bytes(), "graph-csr")
    state = make_state(ctx, lg)
    if model not in _EXCHANGES:
        raise KeyError(f"unknown model {model!r}; have {'/'.join(_EXCHANGES)}")
    boundary = boundary_of(lg)

    def outbox(q, changed):
        v = boundary[q][changed[boundary[q] - lg.lo]]
        return v, state.values[v - lg.lo]

    exchange = yield from _EXCHANGES[model](ctx, boundary, outbox, state.apply_update)
    rounds = 0
    while True:
        rounds += 1
        changed = state.step()
        yield from exchange(changed)
        if (yield from ctx.allreduce_g(state.settle(changed))) == 0:
            break
    ctx.free(lg.memory_bytes(), "graph-csr")
    return {"values": state.values, "rounds": rounds}


def run_kernel(g: CSRGraph, nprocs: int, rank_main, args: tuple = (),
               machine: MachineModel | None = None
               ) -> tuple[np.ndarray, EngineResult, int]:
    """Run ``rank_main(ctx, parts, *args)`` on a block partition of ``g``.

    Every rank returns ``{"values": owned slice, "rounds": n}``; the
    result is the slices concatenated in rank order, the engine result
    and the largest round count.
    """
    parts = partition_graph(g, nprocs)
    res = Engine(nprocs, machine or cori_aries()).run(rank_main, args=(parts, *args))
    values = np.concatenate([rr["values"] for rr in res.rank_results])
    return values, res, max(rr["rounds"] for rr in res.rank_results)
