"""Run configuration for :func:`repro.matching.api.run_matching`.

One frozen dataclass holds everything about a run but the problem:
build a :class:`RunConfig` once, pass it everywhere, derive variants
with :meth:`RunConfig.evolve`. ``run_matching`` takes it as ``config=``
and no other keyword.

>>> from repro.matching import RunConfig, run_matching
>>> cfg = RunConfig(machine=cori_aries(), profile=True)    # doctest: +SKIP
>>> res = run_matching(g, 16, "ncl", config=cfg)           # doctest: +SKIP
>>> res2 = run_matching(g, 16, "ncl", config=cfg.evolve(trace=True))  # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.matching.driver import MatchingOptions
from repro.mpisim.checkpoint import CheckpointConfig, EngineSnapshot
from repro.mpisim.faults import FaultPlan
from repro.mpisim.machine import MachineModel

@dataclass(frozen=True)
class RunConfig:
    """Everything configurable about one matching run except the problem.

    The problem is ``(g, nprocs, model)`` — positional arguments of
    :func:`~repro.matching.api.run_matching`; this object is the rest.
    ``None`` fields mean "use the standard default" (``cori-aries``
    machine, default :class:`~repro.matching.driver.MatchingOptions`,
    1D block distribution, no budget, no faults).
    """

    machine: MachineModel | None = None  #: cost model; None = cori-aries
    options: MatchingOptions | None = None  #: algorithm/backend tunables
    dist: Any = None  #: vertex distribution override (e.g.
    #: :func:`repro.graph.distribution.edge_balanced_distribution`)
    max_ops: int | None = None  #: engine operation budget (overrides
    #: ``options.max_ops`` when set)
    faults: FaultPlan | None = None  #: deterministic fault plan
    trace: bool = False  #: record per-op trace events
    profile: bool = False  #: span profiler (docs/profiling.md)
    compute_weight: bool = True  #: weigh the matching (skip for timing
    #: sweeps that only need the makespan)

    # -- checkpoint/restart (docs/fault_model.md) ---------------------
    checkpoint: CheckpointConfig | None = None  #: take coordinated
    #: checkpoints at the configured virtual-time interval
    kill_at: float | None = None  #: abort the run (``SimKilled``) once
    #: any rank's clock passes this virtual time — the chaos harness's
    #: crash-the-whole-job lever for restart testing
    restore: EngineSnapshot | None = None  #: resume from this snapshot
    #: instead of starting at virtual time 0 (bit-identical completion)

    # -- automatic rollback-recovery (docs/fault_model.md, "Recovery") -
    spares: int = 0  #: warm-standby rank budget; > 0 turns on automatic
    #: rollback-recovery (requires ``checkpoint``): each crash consumes
    #: one spare, which is substituted into the dead slot so P and the
    #: topology stay constant across recovery epochs
    replicas: int = 2  #: buddy-replication degree k for the diskless
    #: replicated checkpoint store (only meaningful with ``spares > 0``)

    def evolve(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return dataclasses.replace(self, **changes)
