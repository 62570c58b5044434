"""Distributed label-propagation connected components.

Bulk-synchronous rounds: each rank sweeps its owned vertices, adopting
the minimum label over the closed neighborhood (ghost labels from the
last exchange); changed boundary labels are shipped to neighbor ranks;
an allreduce of the change count decides termination. Rounds are
proportional to the graph diameter in partition hops.

The exchange step and the round loop are :mod:`repro.kernels`, so CC
runs over NSR, RMA and NCL like the other owner-computes kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import LocalGraph
from repro.kernels import kernel_rank_main, run_kernel
from repro.mpisim.context import RankContext
from repro.mpisim.machine import MachineModel
from repro.util.arrays import distinct

_COST_SWEEP = 1.5  #: per neighbor examined
_COST_UPDATE = 1.5  #: per boundary update applied


class _CCState:
    def __init__(self, ctx: RankContext, lg: LocalGraph):
        self.ctx = ctx
        self.lg = lg
        # initial label = own global id; a ghost starts as itself too
        self.values = np.arange(lg.lo, lg.hi, dtype=np.int64)
        self.ghost_labels: dict[int, int] = {}

    def step(self) -> np.ndarray:
        """Adopt minimum closed-neighborhood labels; returns the changed mask."""
        lg = self.lg
        changed = np.zeros(lg.num_owned, dtype=bool)
        # Iterate until the local sweep stabilizes (propagates labels
        # across the whole partition in one round, like real codes do).
        dirty = True
        while dirty:
            dirty = False
            for i in range(lg.num_owned):
                nbrs, _ = lg.row(lg.lo + i)
                self.ctx.compute(_COST_SWEEP * max(1, len(nbrs)))
                best = min(
                    (int(self.values[u - lg.lo]) if lg.owns(u)
                     else self.ghost_labels.get(u, u) for u in nbrs.tolist()),
                    default=int(self.values[i]),
                )
                if best < self.values[i]:
                    self.values[i] = best
                    changed[i] = dirty = True
        return changed

    def apply_update(self, vertex: int, label: int) -> None:
        self.ctx.compute(_COST_UPDATE)
        if label < self.ghost_labels.get(vertex, vertex):
            self.ghost_labels[vertex] = label

    def settle(self, changed: np.ndarray) -> int:
        return int(np.count_nonzero(changed))


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
    labels, res, rounds = run_kernel(
        g, nprocs, kernel_rank_main, (_CCState, model), machine)
    return CCRunResult(
        model=model,
        nprocs=nprocs,
        labels=labels,
        num_components=len(distinct(labels)),
        rounds=rounds,
        makespan=res.makespan,
        counters=res.counters,
    )
