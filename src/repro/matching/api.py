"""High-level one-call API for distributed half-approximate matching.

>>> from repro.graph.generators import rmat_graph
>>> from repro.matching import run_matching
>>> g = rmat_graph(10, seed=1)
>>> res = run_matching(g, nprocs=8, model="ncl")
>>> res.weight, res.makespan  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import partition_graph
from repro.matching.config import RunConfig
from repro.matching.driver import (
    CRASH_SURVIVING_BACKENDS,
    SEND_RECV_BACKENDS,
    MatchingOptions,
    matching_rank_main,
)
from repro.matching.serial import matching_weight
from repro.mpisim.counters import RunCounters
from repro.mpisim.engine import Engine, EngineResult
from repro.mpisim.machine import cori_aries
from repro.mpisim.resilience import RecoveryConfig


@dataclass
class MatchingRunResult:
    """Everything one distributed matching run produced."""

    model: str
    nprocs: int
    mate: np.ndarray  #: global mate array (survivor-projected on crashes)
    weight: float  #: total matched weight
    makespan: float  #: simulated runtime (seconds)
    iterations: int  #: max backend iterations over surviving ranks
    counters: RunCounters  #: per-rank op counters + comm matrices
    engine: EngineResult
    rank_results: list[dict]  #: surviving ranks only (crashed yield none)
    crashed_ranks: tuple[int, ...] = ()
    dead_ranges: list[tuple[int, int]] = field(default_factory=list)
    #: [lo, hi) vertex ranges owned by crashed ranks
    recovery: dict | None = None  #: rollback-recovery report when the run
    #: had ``spares > 0`` (recoveries, spares used, rollback vtime, cuts
    #: lost to buddy death, mean recovery latency, replica traffic)

    @property
    def num_matched_edges(self) -> int:
        return int(np.count_nonzero(self.mate >= 0)) // 2

    def total_messages(self) -> int:
        c = self.counters
        return (
            c.p2p.total_messages()
            + c.rma.total_messages()
            + c.ncl.total_messages()
        )

    def fault_totals(self) -> dict[str, int]:
        """Run-wide fault/reliability counter sums (all zero when clean)."""
        return self.counters.fault_totals()

    @property
    def profile(self):
        """The span profile, when the run had ``profile=True`` (else None)."""
        return self.engine.profile


def run_matching(
    g: CSRGraph,
    nprocs: int,
    model: str = "nsr",
    *,
    config: RunConfig | None = None,
) -> MatchingRunResult:
    """Partition ``g`` over ``nprocs`` simulated ranks and match it.

    ``model`` is one of ``nsr`` / ``rma`` / ``ncl`` / ``mbp`` / ``incl``
    / ``nsr-agg``; everything else about the run lives in ``config``, a
    :class:`~repro.matching.config.RunConfig` (``None`` = all defaults):

    * ``config.dist`` overrides the 1D block distribution (e.g.
      :func:`repro.graph.distribution.edge_balanced_distribution`).
    * ``config.faults`` injects a deterministic fault plan — see
      docs/fault_model.md. Message faults and partitions require a
      Send-Recv model (``nsr`` / ``nsr-agg``, whose reliable channel
      masks them) and put fates require ``rma``. Crashes without
      rollback-recovery (``config.spares == 0``) require a backend that
      survives them (``CRASH_SURVIVING_BACKENDS``: all but ``mbp``). Any
      other pairing raises ``ValueError`` before the run starts. When
      ranks crash, the returned mate array is projected onto the
      surviving subgraph.
    * ``config.profile=True`` turns on the span profiler
      (docs/profiling.md): the result's
      :attr:`MatchingRunResult.profile` then carries a phase-attributed
      :class:`~repro.mpisim.tracing.RunProfile`.
    """
    if config is None:
        config = RunConfig()
    faults = config.faults
    if faults is not None:
        if faults.needs_reliability() and model not in SEND_RECV_BACKENDS:
            raise ValueError(
                "message faults and partitions (drop/dup/delay/--partition) "
                "require -m nsr or -m nsr-agg — only the Send-Recv backends "
                "carry a reliable-delivery shim"
            )
        if faults.has_rma_faults() and model != "rma":
            raise ValueError(
                "put fates (--rma-drop-rate/--rma-corrupt-rate) require "
                "-m rma — only the one-sided backend uses windows"
            )
        if (faults.has_crashes() and config.spares == 0
                and model not in CRASH_SURVIVING_BACKENDS):
            raise ValueError(
                "rank crashes (--crash) require -m "
                f"{', '.join(CRASH_SURVIVING_BACKENDS)}, or rollback-recovery "
                f"(--spares) — {model} cannot finish the matching on the "
                "survivors"
            )
    machine = config.machine or cori_aries()
    options = config.options or MatchingOptions()
    recovery = None
    if config.spares > 0:
        if config.checkpoint is None:
            raise ValueError(
                "RunConfig(spares=...) turns on rollback-recovery, which "
                "needs coordinated checkpoints to roll back to; also set "
                "checkpoint=CheckpointConfig(interval=...)"
            )
        recovery = RecoveryConfig(spares=config.spares, replicas=config.replicas)
    parts = partition_graph(g, nprocs, dist=config.dist)
    engine = Engine(
        nprocs,
        machine,
        max_ops=config.max_ops,
        trace=config.trace,
        profile=config.profile,
        faults=config.faults,
        checkpoint=config.checkpoint,
        kill_at=config.kill_at,
        restore=config.restore,
        recovery=recovery,
    )
    result = engine.run(matching_rank_main, args=(parts, model, options))

    from repro.matching.verify import assemble_global_mate, restrict_mate_to_survivors

    crashed = tuple(result.crashed_ranks)
    survivors = [rr for rr in result.rank_results if rr is not None]
    mate = assemble_global_mate(survivors, g.num_vertices)
    dead_ranges = [(parts[r].lo, parts[r].hi) for r in crashed]
    if dead_ranges:
        mate = restrict_mate_to_survivors(mate, dead_ranges)
    weight = matching_weight(g, mate) if config.compute_weight else float("nan")
    iterations = max((rr["iterations"] for rr in survivors), default=0)
    return MatchingRunResult(
        model=model,
        nprocs=nprocs,
        mate=mate,
        weight=weight,
        makespan=result.makespan,
        iterations=iterations,
        counters=result.counters,
        engine=result,
        rank_results=survivors,
        crashed_ranks=crashed,
        dead_ranges=dead_ranges,
        recovery=result.recovery,
    )
