"""Automatic rollback-recovery at the engine level.

Contract (docs/fault_model.md, "Recovery"): with a RecoveryConfig the
engine heals rank crashes transparently — survivors agree on the newest
complete buddy-replicated cut, roll back to it through the restore
machinery, and a warm spare adopts the dead slot under the same rank id
— so the run completes with the same per-rank results as a fault-free
run and ``crashed_ranks`` stays empty. When recovery is impossible the
engine raises a *classified* :class:`RecoveryFailed` deterministically,
never a hang. The matching-level bit-identity pins live in
``tests/matching/test_recovery_golden.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpisim.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    ReplicatedCheckpointStore,
)
from repro.mpisim.engine import Engine
from repro.mpisim.errors import RecoveryFailed
from repro.mpisim.faults import ChurnPlan, FaultPlan
from repro.mpisim.machine import cori_aries
from repro.mpisim.recovery import RecoveryConfig


def program(ctx):
    total = 0
    for it in range(40):
        yield from ctx.checkpoint_tick_g()
        total += (yield from ctx.allreduce_g(ctx.rank + it))
    yield from ctx.barrier_g()
    return total


# Legacy engine names, kept as test ids: every leg runs the one engine.
ENGINES = ["threaded", "coroutine"]
P = 4


def run(faults=None, recovery=None, interval=None, store=None, nprocs=P,
        **kw):
    ckpt = None
    if interval is not None:
        ckpt = CheckpointConfig(
            interval=interval,
            store=store if store is not None else CheckpointStore(),
        )
    eng = Engine(
        nprocs, cori_aries(), faults=faults,
        checkpoint=ckpt, recovery=recovery, **kw,
    )
    return eng, eng.run(program)


@pytest.fixture(scope="module")
def clean():
    """Fault-free reference run (per-rank totals + makespan)."""
    _, res = run()
    return res


class TestValidation:
    def test_recovery_config_rejects_negatives(self):
        with pytest.raises(ValueError, match="spares"):
            RecoveryConfig(spares=-1)
        with pytest.raises(ValueError, match="replicas"):
            RecoveryConfig(replicas=-1)

    def test_recovery_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            Engine(P, cori_aries(), recovery=RecoveryConfig())

    def test_churn_requires_recovery(self):
        with pytest.raises(ValueError, match="churn"):
            Engine(
                P, cori_aries(),
                faults=FaultPlan.churn(mtbf=1e-3, horizon=1e-2),
                checkpoint=CheckpointConfig(interval=1e-4),
            )

    def test_profile_cannot_combine_with_recovery(self):
        with pytest.raises(ValueError, match="profile"):
            Engine(
                P, cori_aries(), profile=True,
                checkpoint=CheckpointConfig(interval=1e-4),
                recovery=RecoveryConfig(),
            )

    def test_plain_store_is_upgraded_to_replicated(self, clean):
        plain = CheckpointStore(keep=3)
        eng, _ = run(
            faults=FaultPlan(crashes={1: clean.makespan * 0.6}),
            recovery=RecoveryConfig(spares=2, replicas=2),
            interval=clean.makespan / 8,
            store=plain,
        )
        adopted = eng._ckpt.store
        assert isinstance(adopted, ReplicatedCheckpointStore)
        assert adopted.replicas == 2
        assert adopted.keep == 3  # caller's retention bound carried over

    def test_report_is_none_without_recovery(self, clean):
        assert clean.recovery is None
        assert clean.crashed_ranks == ()


class TestStaticCrashHealed:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_crash_is_transparent(self, engine, clean):
        tcrash = clean.makespan * 0.6
        _, res = run(
            faults=FaultPlan(crashes={1: tcrash}),
            recovery=RecoveryConfig(spares=2, replicas=2),
            interval=clean.makespan / 8,
        )
        assert res.crashed_ranks == ()
        assert res.rank_results == clean.rank_results
        rep = res.recovery
        assert rep["recoveries"] == 1
        assert rep["spares_used"] == 1
        assert rep["spares_left"] == 1
        assert rep["crashes_survived"] == ((1, tcrash),)
        assert rep["cuts_lost"] == 0
        assert rep["rollback_vtime"] > 0.0
        assert rep["mean_recovery_latency"] > 0.0
        assert rep["replica_msgs"] > 0
        assert rep["replica_bytes"] > 0
        # Rollback + recovery charges push the makespan past fault-free.
        assert res.makespan > clean.makespan

    def test_two_crashes_in_quick_succession(self, clean):
        # The second crash lands barely after the first (well inside the
        # first recovery's rolled-back window): both must be healed
        # exactly once each — rewound clocks never refire a crash.
        t1 = clean.makespan * 0.6
        t2 = t1 + clean.makespan * 0.01
        _, res = run(
            faults=FaultPlan(crashes={1: t1, 2: t2}),
            recovery=RecoveryConfig(spares=2, replicas=2),
            interval=clean.makespan / 8,
        )
        assert res.rank_results == clean.rank_results
        assert res.recovery["recoveries"] == 2
        assert res.recovery["spares_left"] == 0
        assert res.recovery["crashes_survived"] == ((1, t1), (2, t2))

    def test_runs_are_deterministic(self, clean):
        kw = dict(
            faults=FaultPlan(crashes={2: clean.makespan * 0.5}),
            recovery=RecoveryConfig(spares=1, replicas=1),
            interval=clean.makespan / 6,
        )
        _, a = run(**kw)
        _, b = run(**kw)
        assert a.makespan == b.makespan
        assert a.rank_results == b.rank_results
        assert a.recovery == b.recovery

    def test_engines_agree_bit_for_bit(self, clean):
        kw = dict(
            faults=FaultPlan(crashes={3: clean.makespan * 0.55}),
            recovery=RecoveryConfig(spares=1, replicas=2),
            interval=clean.makespan / 8,
        )
        _, a = run(**kw)
        _, b = run(**kw)
        assert a.makespan == b.makespan
        assert a.rank_results == b.rank_results
        assert a.recovery == b.recovery
        assert a.final_clocks == b.final_clocks


class TestRecoveryFailed:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_cut_taken(self, engine, clean):
        # The crash fires before the first checkpoint interval elapses:
        # there is nothing to roll back to, and the engine must say so.
        with pytest.raises(RecoveryFailed) as exc:
            run(
                    faults=FaultPlan(crashes={0: clean.makespan * 0.05}),
                recovery=RecoveryConfig(spares=2),
                interval=clean.makespan,  # first cut due at the very end
            )
        e = exc.value
        assert e.reason == "no-cut-taken"
        assert e.rank == 0
        assert e.t == clean.makespan * 0.05
        assert "no checkpoint cut" in e.report
        assert "no-cut-taken" in str(e)

    def test_no_complete_cut_with_zero_replicas(self, clean):
        # replicas=0 means the only copy of each slice dies with its
        # owner — any crash after the first cut leaves it incomplete.
        with pytest.raises(RecoveryFailed) as exc:
            run(
                faults=FaultPlan(crashes={1: clean.makespan * 0.6}),
                recovery=RecoveryConfig(spares=2, replicas=0),
                interval=clean.makespan / 8,
            )
        e = exc.value
        assert e.reason == "no-complete-cut"
        assert "slice 1 lost" in e.report
        assert "incomplete" in e.report

    def test_spares_exhausted(self, clean):
        with pytest.raises(RecoveryFailed) as exc:
            run(
                faults=FaultPlan(crashes={1: clean.makespan * 0.6}),
                recovery=RecoveryConfig(spares=0, replicas=2),
                interval=clean.makespan / 8,
            )
        assert exc.value.reason == "spares-exhausted"

    def test_failure_is_deterministic(self, clean):
        kw = dict(
            faults=FaultPlan(crashes={1: clean.makespan * 0.6}),
            recovery=RecoveryConfig(spares=2, replicas=0),
            interval=clean.makespan / 8,
        )
        outcomes = []
        for _ in range(2):
            with pytest.raises(RecoveryFailed) as exc:
                run(**kw)
            e = exc.value
            outcomes.append((e.reason, e.rank, e.t, e.report))
        assert outcomes[0] == outcomes[1]


class TestChurn:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_churn_run_heals_to_clean_results(self, engine, clean):
        # mtbf ~ makespan over 4 ranks with a 4x horizon: a handful of
        # churn kills stream through; every one must be healed and the
        # per-rank results must match the fault-free run exactly.
        plan = FaultPlan.churn(
            mtbf=clean.makespan, horizon=clean.makespan * 4, seed=1,
            detect_latency=clean.makespan / 100,
        )
        _, res = run(
            faults=plan,
            recovery=RecoveryConfig(spares=16, replicas=2),
            interval=clean.makespan / 8,
        )
        assert res.crashed_ranks == ()
        assert res.rank_results == clean.rank_results
        assert res.recovery["recoveries"] >= 1
        assert res.recovery["spares_used"] == res.recovery["recoveries"]
        assert len(res.recovery["crashes_survived"]) == res.recovery["recoveries"]

    def test_churn_engines_agree(self, clean):
        plan = FaultPlan.churn(
            mtbf=clean.makespan, horizon=clean.makespan * 4, seed=1,
            detect_latency=clean.makespan / 100,
        )
        kw = dict(
            faults=plan,
            recovery=RecoveryConfig(spares=16, replicas=2),
            interval=clean.makespan / 8,
        )
        _, a = run(**kw)
        _, b = run(**kw)
        assert a.makespan == b.makespan
        assert a.recovery == b.recovery

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_churn_survives_or_fails_classified(self, seed, clean):
        """Any churn seed either completes bit-identical to fault-free
        or raises a deterministically classified RecoveryFailed."""
        plan = FaultPlan.churn(
            mtbf=clean.makespan / 2, horizon=clean.makespan * 4, seed=seed,
            detect_latency=clean.makespan / 100,
        )
        kw = dict(
            faults=plan,
            recovery=RecoveryConfig(spares=32, replicas=2),
            interval=clean.makespan / 8,
        )
        try:
            _, res = run(**kw)
        except RecoveryFailed as e:
            with pytest.raises(RecoveryFailed) as again:
                run(**kw)
            assert (again.value.reason, again.value.rank, again.value.t) == (
                e.reason, e.rank, e.t,
            )
        else:
            assert res.rank_results == clean.rank_results
            assert res.crashed_ranks == ()


class TestChurnPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="mtbf"):
            ChurnPlan(mtbf=0.0, horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            ChurnPlan(mtbf=1.0, horizon=0.0)

    def test_expected_events(self):
        assert ChurnPlan(mtbf=1.0, horizon=3.0).expected_events(4) == 12.0

    @settings(max_examples=50, deadline=None)
    @given(
        mtbf=st.floats(min_value=1e-5, max_value=1e-2),
        mult=st.floats(min_value=0.5, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rank=st.integers(min_value=0, max_value=63),
    )
    def test_events_deterministic_sorted_bounded(self, mtbf, mult, seed, rank):
        plan = ChurnPlan(mtbf=mtbf, horizon=mtbf * mult, seed=seed)
        ev = plan.events_for(rank)
        # Pure function of (seed, rank, index): a fresh plan agrees.
        again = ChurnPlan(mtbf=mtbf, horizon=mtbf * mult, seed=seed)
        assert again.events_for(rank) == ev
        # Cached: the same tuple object comes back.
        assert plan.events_for(rank) is ev
        assert all(0.0 < t < plan.horizon for t in ev)
        assert all(a < b for a, b in zip(ev, ev[1:]))  # strictly sorted

    def test_streams_are_rank_independent(self):
        plan = ChurnPlan(mtbf=1e-3, horizon=1e-2, seed=11)
        assert plan.events_for(0) != plan.events_for(1)
