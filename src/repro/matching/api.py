"""High-level one-call API for distributed half-approximate matching.

>>> from repro.graph.generators import rmat_graph
>>> from repro.matching import run_matching
>>> g = rmat_graph(10, seed=1)
>>> res = run_matching(g, nprocs=8, model="ncl")
>>> res.weight, res.makespan  # doctest: +SKIP
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import partition_graph
from repro.matching.config import RunConfig
from repro.matching.driver import MatchingOptions, matching_rank_main
from repro.matching.serial import matching_weight
from repro.mpisim.counters import RunCounters
from repro.mpisim.engine import Engine, EngineResult
from repro.mpisim.faults import FaultPlan
from repro.mpisim.machine import MachineModel, cori_aries
from repro.mpisim.recovery import RecoveryConfig


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


class _Unset:
    """Sentinel distinguishing "kwarg not passed" from an explicit None."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()

#: legacy run_matching kwargs and their RunConfig field names (identical)
_LEGACY_KWARGS = (
    "machine",
    "options",
    "dist",
    "max_ops",
    "faults",
    "trace",
    "profile",
    "compute_weight",
    "scheduler",
)


def run_matching(
    g: CSRGraph,
    nprocs: int,
    model: str = "nsr",
    machine: MachineModel | None | _Unset = _UNSET,
    options: MatchingOptions | None | _Unset = _UNSET,
    *,
    config: RunConfig | None = None,
    dist=_UNSET,
    max_ops: int | None | _Unset = _UNSET,
    faults: FaultPlan | None | _Unset = _UNSET,
    trace: bool | _Unset = _UNSET,
    profile: bool | _Unset = _UNSET,
    compute_weight: bool | _Unset = _UNSET,
    scheduler: str | _Unset = _UNSET,
) -> MatchingRunResult:
    """Partition ``g`` over ``nprocs`` simulated ranks and match it.

    ``model`` is one of ``nsr`` / ``rma`` / ``ncl`` / ``mbp`` / ``incl``
    / ``nsr-agg``; everything else about the run lives in ``config``, a
    :class:`~repro.matching.config.RunConfig`:

    * ``config.dist`` overrides the 1D block distribution (e.g.
      :func:`repro.graph.distribution.edge_balanced_distribution`).
    * ``config.faults`` injects a deterministic fault plan (message
      faults require ``model="nsr"``, whose reliable-delivery shim masks
      them — see docs/fault_model.md). When ranks crash, the returned
      mate array is projected onto the surviving subgraph.
    * ``config.scheduler`` selects the engine scheduling implementation
      (``"heap"`` or ``"reference"``; see docs/engine_scheduling.md) —
      both are bit-identical in virtual time.
    * ``config.profile=True`` turns on the span profiler
      (docs/profiling.md): the result's
      :attr:`MatchingRunResult.profile` then carries a phase-attributed
      :class:`~repro.mpisim.tracing.RunProfile`.

    The pre-RunConfig keyword arguments (``machine=``, ``options=``,
    ``dist=``, ...) still work and produce bit-identical results — the
    shim just packs them into a :class:`RunConfig` — but emit a
    :class:`DeprecationWarning`; see docs/api.md for the migration
    guide. Mixing them with ``config=`` is an error.
    """
    passed = {
        name: value
        for name, value in (
            ("machine", machine),
            ("options", options),
            ("dist", dist),
            ("max_ops", max_ops),
            ("faults", faults),
            ("trace", trace),
            ("profile", profile),
            ("compute_weight", compute_weight),
            ("scheduler", scheduler),
        )
        if value is not _UNSET
    }
    if passed:
        if config is not None:
            raise TypeError(
                "run_matching: cannot mix config= with legacy keyword "
                f"argument(s) {sorted(passed)}; fold them into the RunConfig"
            )
        warnings.warn(
            "run_matching keyword arguments "
            f"{sorted(passed)} are deprecated; pass "
            "config=RunConfig(...) instead (see docs/api.md)",
            DeprecationWarning,
            stacklevel=2,
        )
        config = RunConfig(**passed)
    elif config is None:
        config = RunConfig()

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
        max_ops=config.max_ops if config.max_ops is not None else options.max_ops,
        max_vtime=options.max_vtime,
        trace=config.trace,
        profile=config.profile,
        faults=config.faults,
        scheduler=config.scheduler,
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
