"""Distributed label-propagation connected components.

Bulk-synchronous rounds: each rank sweeps its owned vertices, adopting
the minimum label over the closed neighborhood (ghost labels from the
last exchange); changed boundary labels are shipped to neighbor ranks;
an allreduce of the change count decides termination. Rounds are
proportional to the graph diameter in partition hops.

The exchange step is implemented over NSR (per-update sends + DONE
sentinels) and NCL (aggregated ``neighbor_alltoallv``) — the same two
poles of the paper's communication-model spectrum, for a third kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import LocalGraph, partition_graph
from repro.mpisim.context import RankContext
from repro.mpisim.engine import Engine
from repro.mpisim.machine import MachineModel, cori_aries

_UPDATE_TAG = 31
_DONE_TAG = 32
_COST_SWEEP = 1.5  #: per neighbor examined
_COST_UPDATE = 1.5  #: per boundary update applied


class _CCState:
    def __init__(self, ctx: RankContext, lg: LocalGraph):
        self.ctx = ctx
        self.lg = lg
        # initial label = own global id
        self.labels = np.arange(lg.lo, lg.hi, dtype=np.int64)
        self.ghost_labels: dict[int, int] = {}
        self.boundary: dict[int, list[int]] = {q: [] for q in lg.neighbor_ranks}
        owners = lg.dist.owner_array(lg.adjncy)
        src = np.repeat(np.arange(lg.lo, lg.hi, dtype=np.int64), np.diff(lg.xadj))
        for v, u, q in zip(src, lg.adjncy, owners):
            if q != lg.rank:
                self.boundary[int(q)].append(int(v))
                self.ghost_labels[int(u)] = int(u)  # ghost starts as itself
        for q in self.boundary:
            self.boundary[q] = sorted(set(self.boundary[q]))

    def sweep(self) -> set[int]:
        """Adopt minimum closed-neighborhood labels; returns changed ids."""
        lg = self.lg
        changed: set[int] = set()
        # Iterate until the local sweep stabilizes (propagates labels
        # across the whole partition in one round, like real codes do).
        dirty = True
        while dirty:
            dirty = False
            for i in range(lg.num_owned):
                v = lg.lo + i
                nbrs, _ = lg.row(v)
                self.ctx.compute(_COST_SWEEP * max(1, len(nbrs)))
                best = int(self.labels[i])
                for u in nbrs:
                    u = int(u)
                    lab = (
                        int(self.labels[u - lg.lo])
                        if lg.owns(u)
                        else self.ghost_labels[u]
                    )
                    if lab < best:
                        best = lab
                if best < self.labels[i]:
                    self.labels[i] = best
                    changed.add(v)
                    dirty = True
        return changed

    def updates_for(self, q: int, changed: set[int]) -> list[tuple[int, int]]:
        return [
            (v, int(self.labels[v - self.lg.lo]))
            for v in self.boundary[q]
            if v in changed
        ]

    def apply_update(self, vertex: int, label: int) -> None:
        self.ctx.compute(_COST_UPDATE)
        if label < self.ghost_labels.get(vertex, vertex):
            self.ghost_labels[vertex] = label


def _exchange_nsr(ctx, state, changed):
    lg = state.lg
    for q in lg.neighbor_ranks:
        for v, lab in state.updates_for(q, changed):
            yield from ctx.isend_g(q, (v, lab), tag=_UPDATE_TAG, nbytes=16)
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

    def exchange(changed):
        items, nbytes = [], []
        for q in topo.neighbors:
            flat = np.array(
                [x for vl in state.updates_for(q, changed) for x in vl],
                dtype=np.int64,
            )
            items.append(flat)
            nbytes.append(int(flat.nbytes))
        received, _ = yield from topo.neighbor_alltoallv_g(
            items, nbytes_each=nbytes)
        for arr in received:
            for s in range(0, len(arr), 2):
                state.apply_update(int(arr[s]), int(arr[s + 1]))

    return exchange


def cc_rank_main(ctx: RankContext, parts: list[LocalGraph], model: str) -> dict:
    lg = parts[ctx.rank]
    ctx.alloc(lg.memory_bytes(), "graph-csr")
    state = _CCState(ctx, lg)
    if model == "nsr":
        exchange = lambda ch: _exchange_nsr(ctx, state, ch)  # noqa: E731
    elif model == "ncl":
        exchange = yield from _make_ncl_exchange(ctx, state)
    else:
        raise KeyError(f"unknown cc model {model!r}; have nsr/ncl")

    rounds = 0
    while True:
        rounds += 1
        changed = state.sweep()
        yield from exchange(changed)
        if (yield from ctx.allreduce_g(len(changed))) == 0:
            break
    ctx.free(lg.memory_bytes(), "graph-csr")
    return {"lo": lg.lo, "hi": lg.hi, "labels": state.labels, "rounds": rounds}


@dataclass
class CCRunResult:
    model: str
    nprocs: int
    labels: np.ndarray
    num_components: int
    rounds: int
    makespan: float
    counters: object


def run_cc(
    g: CSRGraph,
    nprocs: int,
    model: str = "ncl",
    machine: MachineModel | None = None,
) -> CCRunResult:
    """Distributed connected components of ``g``."""
    machine = machine or cori_aries()
    parts = partition_graph(g, nprocs)
    engine = Engine(nprocs, machine)
    res = engine.run(cc_rank_main, args=(parts, model))
    labels = np.empty(g.num_vertices, dtype=np.int64)
    for rr in res.rank_results:
        labels[rr["lo"] : rr["hi"]] = rr["labels"]
    return CCRunResult(
        model=model,
        nprocs=nprocs,
        labels=labels,
        num_components=len(np.unique(labels)),
        rounds=max(rr["rounds"] for rr in res.rank_results),
        makespan=res.makespan,
        counters=res.counters,
    )
