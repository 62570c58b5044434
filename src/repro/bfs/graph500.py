"""Graph500-style BFS benchmark harness.

The Graph500 benchmark procedure, scaled to the simulator: generate an
R-MAT graph at a given scale, pick a set of random roots with nonzero
degree, run the distributed BFS from each, validate every search, and
report the TEPS (traversed edges per second) statistics — here in
*simulated* seconds, which is what makes BFS a calibrated communication
contrast for the matching study (Figs. 2 and 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.distributed import run_bfs
from repro.bfs.serial import validate_bfs_levels
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.mpisim.machine import MachineModel
from repro.util.rng import make_rng


@dataclass(frozen=True)
class Graph500Result:
    scale: int
    nprocs: int
    num_roots: int
    harmonic_mean_teps: float
    min_time: float
    max_time: float
    mean_rounds: float

    def summary(self) -> str:
        return (
            f"graph500 scale={self.scale} p={self.nprocs}: "
            f"{self.num_roots} searches, "
            f"harmonic-mean TEPS={self.harmonic_mean_teps:.3e} (simulated), "
            f"time {self.min_time:.2e}-{self.max_time:.2e}s, "
            f"avg rounds {self.mean_rounds:.1f}"
        )


def pick_search_roots(g: CSRGraph, count: int, seed: int = 0) -> list[int]:
    """Random roots with degree > 0 (Graph500 requirement), no repeats."""
    degrees = g.degrees()
    candidates = np.nonzero(degrees > 0)[0]
    if len(candidates) == 0:
        raise ValueError("graph has no non-isolated vertices")
    rng = make_rng(seed, "g500-roots")
    count = min(count, len(candidates))
    return [int(v) for v in rng.choice(candidates, size=count, replace=False)]


def run_graph500(
    scale: int,
    nprocs: int,
    num_roots: int = 4,
    *,
    seed: int = 0,
    machine: MachineModel | None = None,
    validate: bool = True,
) -> Graph500Result:
    """The kernel-2 phase of Graph500 on the simulated runtime."""
    g = rmat_graph(scale, seed=seed)
    roots = pick_search_roots(g, num_roots, seed=seed)
    times: list[float] = []
    rounds_seen: list[int] = []
    teps: list[float] = []
    src = np.repeat(np.arange(g.num_vertices), np.diff(g.xadj))
    for root in roots:
        level, res, rounds = run_bfs(g, nprocs, root=root, machine=machine)
        if validate:
            validate_bfs_levels(g, root, level)
        # Graph500 counts edges within the traversed component.
        reached = level >= 0
        traversed = int(np.count_nonzero(reached[src])) // 2
        times.append(res.makespan)
        rounds_seen.append(rounds)
        teps.append(traversed / res.makespan if res.makespan > 0 else 0.0)
    harmonic = len(teps) / sum(1.0 / t for t in teps if t > 0)
    return Graph500Result(
        scale=scale,
        nprocs=nprocs,
        num_roots=len(roots),
        harmonic_mean_teps=harmonic,
        min_time=min(times),
        max_time=max(times),
        mean_rounds=float(np.mean(rounds_seen)),
    )
