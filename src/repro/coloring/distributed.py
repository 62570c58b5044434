"""Distributed speculative graph coloring over the three MPI models.

Gebremedhin-Manne style rounds, as parallelized for distributed memory by
Catalyurek et al. (the paper's ref [5]):

1. every rank first-fit colors its currently-uncolored owned vertices
   *speculatively*, treating the last-known ghost colors as truth;
2. boundary color updates are exchanged with neighbor ranks — this is the
   step where the communication model is interchangeable, exactly like
   the matching code's Push/Evoke/Process (paper Table I). The exchange
   and the round loop are :mod:`repro.kernels`, shared with CC;
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

from repro.coloring.serial import NO_COLOR, num_colors
from repro.graph.csr import CSRGraph
from repro.graph.distribution import LocalGraph
from repro.kernels import kernel_rank_main, run_kernel
from repro.mpisim.context import RankContext
from repro.mpisim.machine import MachineModel
from repro.util.hashing import vertex_hash

#: abstract work units
_COST_COLOR = 3.0  #: first-fit scan per neighbor
_COST_UPDATE = 2.0  #: applying one received boundary update


class _ColoringState:
    """Rank-local coloring state shared by all backends."""

    def __init__(self, ctx: RankContext, lg: LocalGraph):
        self.ctx = ctx
        self.lg = lg
        self.values = np.full(lg.num_owned, NO_COLOR, dtype=np.int64)
        self.ghost_colors: dict[int, int] = {}

    def step(self) -> np.ndarray:
        """First-fit the uncolored owned vertices; returns them as a mask."""
        lg = self.lg
        changed = self.values == NO_COLOR
        for i in np.flatnonzero(changed).tolist():
            nbrs, _ = lg.row(lg.lo + i)
            self.ctx.compute(_COST_COLOR * max(1, len(nbrs)))
            used = {
                int(self.values[u - lg.lo]) if lg.owns(u)
                else self.ghost_colors.get(u, NO_COLOR) for u in nbrs.tolist()
            }
            c = 0
            while c in used:
                c += 1
            self.values[i] = c
        return changed

    def apply_update(self, vertex: int, color: int) -> None:
        self.ctx.compute(_COST_UPDATE)
        self.ghost_colors[vertex] = color

    def settle(self, changed: np.ndarray) -> int:
        """Uncolor the deterministic loser of every conflicted cross edge."""
        lg = self.lg
        # deterministic loser: the endpoint with the larger vertex hash
        # backs off (both sides agree without communicating).
        losers = [
            i for i, c in enumerate(self.values.tolist())
            if c != NO_COLOR and any(
                self.ghost_colors.get(u, NO_COLOR) == c
                and vertex_hash(lg.lo + i) > vertex_hash(u)
                for u in lg.row(lg.lo + i)[0].tolist() if not lg.owns(u))
        ]
        self.values[losers] = NO_COLOR
        return len(losers)


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
) -> ColoringRunResult:
    """Partition ``g`` and color it distributedly under ``model``."""
    colors, res, rounds = run_kernel(
        g, nprocs, kernel_rank_main, (_ColoringState, model), machine)
    return ColoringRunResult(
        model=model,
        nprocs=nprocs,
        colors=colors,
        num_colors=num_colors(colors),
        rounds=rounds,
        makespan=res.makespan,
        counters=res.counters,
    )
