"""Self-healing matching runs: golden pins for rollback-recovery.

The contract (docs/fault_model.md, "Recovery"): with ``spares > 0`` a
matching run survives rank crashes — including continuous Poisson churn
— and still produces **bit-identical mate and weight** to the fault-free
run, on every fault-capable backend and under every engine name.
Matching is confluent: recovery shifts the schedule (rollback, recovery
charges, replication traffic), which moves the makespan but can never
move the matching. ``WEIGHT_PIN`` keeps the reference from drifting
silently.

Also here (restore-under-faults edge cases): a crash landing while the
previous recovery's restore phase is still replaying, and a partition
window spanning a recovery epoch — the healed rank must never be
misdetected as dead (``spurious_detections == 0`` extends to recovery
runs).
"""

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.mpisim.checkpoint import CheckpointConfig
from repro.mpisim.errors import RecoveryFailed
from repro.mpisim.faults import FaultPlan, PartitionWindow

BACKENDS = ["nsr", "nsr-agg", "rma", "ncl", "incl"]
# Retired engine names, kept as test ids only: every leg runs the one
# engine against the same pins.
ENGINES = ["threaded", "coroutine"]

# Same reference instance as tests/matching/test_restart.py: rmat scale
# 8, seed 7, p=4, cori-aries, heap scheduler — and the same per-backend
# checkpoint intervals, chosen so several cuts assemble per run.
WEIGHT_PIN = 61.21528815737458
INTERVAL = {
    "nsr": 6.7e-4,
    "nsr-agg": 9.5e-5,
    "rma": 1.35e-4,
    "ncl": 1.15e-4,
    "incl": 1.15e-4,
}
# Churn survival pins: FaultPlan.churn(mtbf=makespan, horizon=4*makespan,
# seed=7) on each backend's own fault-free makespan. The recovery counts
# are exact functions of the deterministic simulation — drift means the
# churn stream or the recovery controller moved.
CHURN_SEED = 7
CHURN_RECOVERIES = {"nsr": 2, "nsr-agg": 3, "rma": 8, "ncl": 2, "incl": 2}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, seed=7)


@pytest.fixture(scope="module")
def clean(graph):
    """Fault-free checkpointed reference per backend."""
    out = {}
    for b in BACKENDS:
        out[b] = run_matching(
            g=graph, nprocs=4, model=b,
            config=RunConfig(
                checkpoint=CheckpointConfig(interval=INTERVAL[b]),
            ),
        )
        assert out[b].weight == WEIGHT_PIN
    return out


def recovered_run(graph, backend, faults, spares=4, replicas=2,
                  interval=None):
    return run_matching(
        g=graph, nprocs=4, model=backend,
        config=RunConfig(
            faults=faults,
            checkpoint=CheckpointConfig(
                interval=INTERVAL[backend] if interval is None else interval
            ),
            spares=spares, replicas=replicas,
        ),
    )


def assert_healed_to_clean(res, ref):
    """Recovery left no observable fault: same matching, no dead ranks,
    no misdetections. The makespan is *not* compared — rollback and
    recovery charges reshuffle the schedule, and the reshuffled run may
    finish earlier or later; only the matching is invariant."""
    assert res.crashed_ranks == ()
    assert res.dead_ranges == []
    assert np.array_equal(res.mate, ref.mate)
    assert res.weight == ref.weight == WEIGHT_PIN
    assert res.fault_totals()["spurious_detections"] == 0
    assert res.recovery is not None
    assert res.recovery["recoveries"] >= 1


class TestEpochBoundaryCrash:
    """Scripted scenario: rank 1 dies exactly at the third epoch
    boundary — the instant a fresh cut has just been replicated."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_recovery(self, graph, clean, backend, engine):
        tcrash = 3 * INTERVAL[backend]
        res = recovered_run(graph, backend, FaultPlan(crashes={1: tcrash}))
        assert_healed_to_clean(res, clean[backend])
        assert res.recovery["recoveries"] == 1
        assert res.recovery["spares_used"] == 1
        assert res.recovery["crashes_survived"] == ((1, tcrash),)

    def test_engines_agree_on_recovery_cost(self, graph, clean):
        # One engine: two runs of the same plan price recovery alike.
        co, ve = (
            recovered_run(
                graph, "ncl", FaultPlan(crashes={1: 3 * INTERVAL["ncl"]}))
            for _ in range(2)
        )
        assert co.makespan == ve.makespan
        assert co.recovery == ve.recovery
        assert np.array_equal(co.mate, ve.mate)


class TestChurn:
    """Continuous Poisson crash churn through whole runs."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_survives_bit_identical(self, graph, clean, backend):
        ref = clean[backend]
        plan = FaultPlan.churn(
            mtbf=ref.makespan, horizon=ref.makespan * 4, seed=CHURN_SEED,
        )
        res = recovered_run(graph, backend, plan, spares=24)
        assert_healed_to_clean(res, ref)
        assert res.recovery["recoveries"] == CHURN_RECOVERIES[backend]
        assert res.recovery["spares_used"] == CHURN_RECOVERIES[backend]

    @pytest.mark.parametrize("backend", ["nsr", "ncl"])
    def test_engines_agree(self, graph, clean, backend):
        ref = clean[backend]
        plan = FaultPlan.churn(
            mtbf=ref.makespan, horizon=ref.makespan * 4, seed=CHURN_SEED,
        )
        co, ve = (recovered_run(graph, backend, plan, spares=24)
                  for _ in range(2))
        assert co.makespan == ve.makespan
        assert co.recovery == ve.recovery
        assert np.array_equal(co.mate, ve.mate)


@pytest.mark.parametrize("backend", BACKENDS + ["mbp"])
def test_unfired_crash_plan_runs_the_clean_schedule(graph, backend):
    # Under rollback recovery no rank can see a crash, so a crash that
    # never fires leaves every backend on its fault-free schedule: the
    # survivor topology, window and agreement paths stay unused.
    clean = run_matching(graph, 4, backend)
    res = run_matching(graph, 4, backend, config=RunConfig(
        faults=FaultPlan(crashes={1: 10.0}), spares=2,
        checkpoint=CheckpointConfig(interval=1.0),
    ))
    assert res.makespan == clean.makespan
    assert res.engine.total_ops == clean.engine.total_ops
    assert np.array_equal(res.mate, clean.mate)


class TestRestoreUnderFaults:
    """Edge cases where faults overlap the recovery machinery itself."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_landing_in_restore_replay(self, graph, clean, backend):
        # The second crash time sits barely past the first: after the
        # first rollback the revived ranks are still replaying the
        # pre-crash window (pre-park restore phase) when the second
        # crash fires. Both must be healed exactly once — a rewound
        # clock never refires crash 1 — and the matching is unmoved.
        t1 = 3 * INTERVAL[backend]
        t2 = t1 + INTERVAL[backend] * 0.01
        res = recovered_run(
            graph, backend, FaultPlan(crashes={1: t1, 2: t2}),
        )
        assert_healed_to_clean(res, clean[backend])
        assert res.recovery["recoveries"] == 2
        assert res.recovery["crashes_survived"] == ((1, t1), (2, t2))

    def test_partition_window_spanning_recovery_epoch(self, graph, clean):
        # A network partition opens before rank 1's crash and heals well
        # after the recovery completes. The partitioned-but-alive peers
        # must never be misdetected as dead (spurious_detections == 0
        # extends to recovery runs), the healed rank must rejoin the
        # reliable transport, and the matching stays bit-identical.
        tcrash = 3 * INTERVAL["nsr"]
        plan = FaultPlan(
            crashes={1: tcrash},
            partitions=(
                PartitionWindow(
                    t_start=tcrash - INTERVAL["nsr"],
                    t_end=tcrash + INTERVAL["nsr"],
                    groups=((0, 1), (2, 3)),
                ),
            ),
        )
        res = recovered_run(graph, "nsr", plan)
        assert_healed_to_clean(res, clean["nsr"])
        assert res.recovery["recoveries"] == 1
        totals = res.fault_totals()
        assert totals["spurious_detections"] == 0
        assert totals["msgs_partitioned"] > 0  # the window really cut


class TestRecoveryFailureSurface:
    def test_spares_without_checkpoint_rejected(self, graph):
        with pytest.raises(ValueError, match="rollback-recovery"):
            run_matching(
                g=graph, nprocs=4, model="nsr",
                config=RunConfig(spares=2),
            )

    def test_unsurvivable_run_fails_classified(self, graph):
        # replicas=0: the crash wipes the only copy of rank 1's slice,
        # so no complete cut survives — a deterministic, classified
        # failure, never a hang.
        with pytest.raises(RecoveryFailed) as exc:
            recovered_run(
                graph, "ncl", FaultPlan(crashes={1: 3 * INTERVAL["ncl"]}),
                replicas=0,
            )
        assert exc.value.reason == "no-complete-cut"
        assert "slice 1 lost" in exc.value.report
