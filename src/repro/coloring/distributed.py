"""Distributed speculative graph coloring over the three MPI models.

Gebremedhin-Manne style rounds, as parallelized for distributed memory by
Catalyurek et al. (the paper's ref [5]):

1. every rank first-fit colors its currently-uncolored owned vertices
   *speculatively*, treating the last-known ghost colors as truth;
2. boundary color updates are exchanged with neighbor ranks — this is the
   step where the communication model is interchangeable, exactly like
   the matching code's Push/Evoke/Process (paper Table I);
3. cross-edge conflicts (both endpoints picked the same color) are
   detected; the deterministic loser (larger edge-hash side) uncolors
   itself and retries next round;
4. a global reduction of the uncolored count decides termination.

Because rounds are bulk-synchronous and the loser rule is deterministic,
every communication backend produces the *identical* coloring — the same
cross-implementation oracle idea the matching tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import LocalGraph, partition_graph
from repro.mpisim.context import RankContext
from repro.mpisim.engine import Engine
from repro.mpisim.machine import MachineModel, cori_aries
from repro.util.hashing import vertex_hash

NO_COLOR = -1
_UPDATE_TAG = 21
_DONE_TAG = 22

#: abstract work units
_COST_COLOR = 3.0  #: first-fit scan per neighbor
_COST_UPDATE = 2.0  #: applying one received boundary update


class _ColoringState:
    """Rank-local coloring state shared by all backends."""

    def __init__(self, ctx: RankContext, lg: LocalGraph):
        self.ctx = ctx
        self.lg = lg
        self.colors = np.full(lg.num_owned, NO_COLOR, dtype=np.int64)
        self.ghost_colors: dict[int, int] = {}
        # Owned boundary vertices per neighbor rank (cross-edge endpoints).
        self.boundary: dict[int, list[int]] = {q: [] for q in lg.neighbor_ranks}
        owners = lg.dist.owner_array(lg.adjncy)
        src = np.repeat(np.arange(lg.lo, lg.hi, dtype=np.int64), np.diff(lg.xadj))
        for v, u, q in zip(src, lg.adjncy, owners):
            if q != lg.rank:
                self.boundary[int(q)].append(int(v))
        for q in self.boundary:
            self.boundary[q] = sorted(set(self.boundary[q]))
        self.uncolored = list(range(lg.num_owned))

    # -- local phases ---------------------------------------------------
    def color_speculatively(self) -> list[int]:
        """First-fit the uncolored owned vertices; returns their local ids."""
        lg = self.lg
        colored_now = []
        for i in sorted(self.uncolored):
            v = lg.lo + i
            nbrs, _ = lg.row(v)
            self.ctx.compute(_COST_COLOR * max(1, len(nbrs)))
            used = set()
            for u in nbrs:
                u = int(u)
                c = (
                    int(self.colors[u - lg.lo])
                    if lg.owns(u)
                    else self.ghost_colors.get(u, NO_COLOR)
                )
                if c != NO_COLOR:
                    used.add(c)
            c = 0
            while c in used:
                c += 1
            self.colors[i] = c
            colored_now.append(i)
        self.uncolored = []
        return colored_now

    def updates_for(self, q: int, colored_now: list[int]) -> list[tuple[int, int]]:
        """(vertex, color) updates this rank owes neighbor q this round."""
        recolored = {self.lg.lo + i for i in colored_now}
        return [
            (v, int(self.colors[v - self.lg.lo]))
            for v in self.boundary[q]
            if v in recolored
        ]

    def apply_update(self, vertex: int, color: int) -> None:
        self.ctx.compute(_COST_UPDATE)
        self.ghost_colors[vertex] = color

    def resolve_conflicts(self) -> int:
        """Uncolor the deterministic loser of every conflicted cross edge."""
        lg = self.lg
        losers = set()
        for i in range(lg.num_owned):
            v = lg.lo + i
            c = int(self.colors[i])
            if c == NO_COLOR:
                continue
            nbrs, _ = lg.row(v)
            for u in nbrs:
                u = int(u)
                if lg.owns(u):
                    continue
                if self.ghost_colors.get(u, NO_COLOR) == c:
                    # deterministic loser: the endpoint with the larger
                    # vertex hash backs off (both sides agree without
                    # communicating).
                    if vertex_hash(v) > vertex_hash(u):
                        losers.add(i)
        for i in losers:
            self.colors[i] = NO_COLOR
        self.uncolored = sorted(losers)
        return len(losers)


# ----------------------------------------------------------------------
# per-model exchange implementations
# ----------------------------------------------------------------------

def _exchange_nsr(ctx, state, colored_now):
    """One isend per boundary update plus per-neighbor DONE sentinels."""
    lg = state.lg
    for q in lg.neighbor_ranks:
        for v, c in state.updates_for(q, colored_now):
            yield from ctx.isend_g(q, (v, c), tag=_UPDATE_TAG, nbytes=16)
        yield from ctx.isend_g(q, None, tag=_DONE_TAG, nbytes=8)
    waiting = set(lg.neighbor_ranks)
    while waiting:
        msg = yield from ctx.recv_g(tag=ctx.ANY_TAG)
        if msg.tag == _DONE_TAG:
            waiting.discard(msg.src)
        else:
            state.apply_update(*msg.payload)


def _make_ncl_exchange(ctx, state):
    topo = yield from ctx.dist_graph_create_adjacent_g(state.lg.neighbor_ranks)

    def exchange(colored_now):
        items = []
        nbytes = []
        for q in topo.neighbors:
            ups = state.updates_for(q, colored_now)
            flat = np.array([x for vc in ups for x in vc], dtype=np.int64)
            items.append(flat)
            nbytes.append(int(flat.nbytes))
        received, _ = yield from topo.neighbor_alltoallv_g(
            items, nbytes_each=nbytes)
        for arr in received:
            for s in range(0, len(arr), 2):
                state.apply_update(int(arr[s]), int(arr[s + 1]))

    return exchange


def _make_rma_exchange(ctx, state):
    """Puts into per-neighbor window regions + counts exchange (Fig. 1)."""
    lg = state.lg
    topo = yield from ctx.dist_graph_create_adjacent_g(lg.neighbor_ranks)
    nbrs = topo.neighbors
    # Unlike matching (hard 2-messages-per-pair bound), a boundary vertex
    # may recolor once per round indefinitely, so regions are *reused* per
    # round: the counts collective separates rounds, making overwrites of
    # already-consumed slots safe. Capacity = one round's worst case.
    caps = [2 * max(1, len(state.boundary[q])) for q in nbrs]
    starts = np.zeros(len(nbrs) + 1, dtype=np.int64)
    np.cumsum(caps, out=starts[1:])
    win = yield from ctx.win_allocate_g(int(starts[-1]) * 2, dtype=np.int64)
    region_start = starts * 2
    remote_base = yield from topo.neighbor_alltoall_g(
        [int(s) for s in region_start[:-1]], nbytes_per_item=8)
    write_cursor = [0] * len(nbrs)
    read_cursor = [0] * len(nbrs)

    def exchange(colored_now):
        for k, q in enumerate(nbrs):
            for v, c in state.updates_for(q, colored_now):
                if write_cursor[k] >= caps[k]:
                    raise RuntimeError("coloring RMA region overflow")
                off = remote_base[k] + write_cursor[k] * 2
                yield from win.put_g(q, np.array([v, c], dtype=np.int64), off)
                write_cursor[k] += 1
        yield from win.flush_all_g()
        counts = yield from topo.neighbor_alltoall_g(
            [int(c) for c in write_cursor], nbytes_per_item=8)
        yield from win.sync_local_g()
        buf = win.local
        for k in range(len(nbrs)):
            base = int(region_start[k])
            while read_cursor[k] < int(counts[k]):
                s = base + read_cursor[k] * 2
                state.apply_update(int(buf[s]), int(buf[s + 1]))
                read_cursor[k] += 1
            # Region consumed; next round rewrites it from the start.
            read_cursor[k] = 0
            write_cursor[k] = 0

    return exchange


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def coloring_rank_main(ctx: RankContext, parts: list[LocalGraph], model: str) -> dict:
    """SPMD entry point for one coloring run."""
    lg = parts[ctx.rank]
    ctx.alloc(lg.memory_bytes(), "graph-csr")
    state = _ColoringState(ctx, lg)

    if model == "nsr":
        exchange = lambda colored: _exchange_nsr(ctx, state, colored)  # noqa: E731
    elif model == "ncl":
        exchange = yield from _make_ncl_exchange(ctx, state)
    elif model == "rma":
        exchange = yield from _make_rma_exchange(ctx, state)
    else:
        raise KeyError(f"unknown coloring model {model!r}; have nsr/rma/ncl")

    rounds = 0
    while True:
        rounds += 1
        colored_now = state.color_speculatively()
        yield from exchange(colored_now)
        conflicts = state.resolve_conflicts()
        if (yield from ctx.allreduce_g(conflicts)) == 0:
            break
    ctx.free(lg.memory_bytes(), "graph-csr")
    return {"lo": lg.lo, "hi": lg.hi, "colors": state.colors, "rounds": rounds}


@dataclass
class ColoringRunResult:
    model: str
    nprocs: int
    colors: np.ndarray
    num_colors: int
    rounds: int
    makespan: float
    counters: object


def run_coloring(
    g: CSRGraph,
    nprocs: int,
    model: str = "ncl",
    machine: MachineModel | None = None,
    dist=None,
) -> ColoringRunResult:
    """Partition ``g`` and color it distributedly under ``model``."""
    machine = machine or cori_aries()
    parts = partition_graph(g, nprocs, dist=dist)
    engine = Engine(nprocs, machine)
    res = engine.run(coloring_rank_main, args=(parts, model))
    colors = np.full(g.num_vertices, NO_COLOR, dtype=np.int64)
    for rr in res.rank_results:
        colors[rr["lo"] : rr["hi"]] = rr["colors"]
    from repro.coloring.serial import num_colors as _nc

    return ColoringRunResult(
        model=model,
        nprocs=nprocs,
        colors=colors,
        num_colors=_nc(colors),
        rounds=max(rr["rounds"] for rr in res.rank_results),
        makespan=res.makespan,
        counters=res.counters,
    )
