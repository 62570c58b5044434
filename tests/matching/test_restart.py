"""Coordinated checkpoint/restart: bit-identical resume on every backend.

The contract under test (docs/fault_model.md):

* A run resumed from any coordinated cut reproduces the uninterrupted
  *checkpointed* run bit-for-bit — same mate array, weight, makespan,
  trace suffix, and fault counters. Golden pins keep the reference runs
  from drifting silently.
* For the superstep backends (rma, ncl, incl, mbp), checkpointing is
  pure instrumentation: the checkpointed run is itself bit-identical to
  the uncheckpointed one. For the
  Send-Recv family (nsr, nsr-agg), the coordination ticks deterministically
  reshuffle the token-grant schedule, so only the *matching* is invariant
  — which is why a from-scratch restart must rerun with the same
  checkpoint config to reproduce its reference.
* A healed network partition is masked by the reliable transports and
  never misclassified as a rank failure.
* nsr-agg under drop/dup/delay plans computes the same matching as nsr
  under the same plan (the aggregator's batch ack/retry masks them).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.mpisim.checkpoint import CheckpointConfig, CheckpointStore
from repro.mpisim.errors import SimKilled
from repro.mpisim.faults import FaultPlan, PartitionWindow

BACKENDS = ["nsr", "nsr-agg", "rma", "ncl", "incl", "mbp"]

# Golden pins for the reference instance: rmat scale 8, seed 7, p=4,
# cori-aries, heap scheduler, checkpointed at the per-backend interval.
# Makespan and epoch count are exact functions of the deterministic
# simulation — any drift means checkpoint coordination moved.
WEIGHT_PIN = 61.21528815737458
# kill_frac positions the whole-job kill (as a fraction of the pinned
# makespan) late enough that at least one cut was *assembled* before any
# rank's clock passed it: the kill fires on rank-local clocks while cut
# assembly waits for every rank to park, so with heavy run-ahead (nsr, mbp) a
# mid-run kill outraces cuts whose virtual time is long past.
PIN = {
    #          interval   epochs  makespan                kill_frac
    "nsr":     (6.7e-4,   4,      0.0026952819999999916,  0.90),
    "nsr-agg": (9.5e-5,   4,      0.0004026850000000012,  0.75),
    "rma":     (1.35e-4,  3,      0.0005416549999999987,  0.75),
    "ncl":     (1.15e-4,  3,      0.00046338400000000044, 0.75),
    "incl":    (1.15e-4,  4,      0.0005352918000000014,  0.75),
    "mbp":     (1.2e-3,   4,      0.004863012499999973,   0.90),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, seed=7)


def checkpointed_run(g, model, interval, store=None, **cfg):
    store = CheckpointStore() if store is None else store
    res = run_matching(
        g, 4, model,
        config=RunConfig(
            checkpoint=CheckpointConfig(interval=interval, store=store),
            trace=True, **cfg,
        ),
    )
    return res, store


def assert_bit_identical_suffix(resumed, reference, snap):
    """The resumed run equals the reference from the cut onward."""
    assert np.array_equal(resumed.mate, reference.mate)
    assert resumed.weight == reference.weight
    assert resumed.makespan == reference.makespan
    trace_len = snap.state()["trace_len"]
    assert resumed.engine.trace == reference.engine.trace[trace_len:]
    assert resumed.fault_totals() == reference.fault_totals()


class TestGoldenPins:
    @pytest.mark.parametrize("model", BACKENDS)
    def test_checkpointed_reference_is_pinned(self, graph, model):
        interval, epochs, makespan, _ = PIN[model]
        res, store = checkpointed_run(graph, model, interval)
        assert len(store) == epochs
        assert res.makespan == makespan
        assert res.weight == WEIGHT_PIN
        # Every cut is strictly ordered in (epoch, vtime).
        for i, snap in enumerate(store):
            assert snap.epoch == i
            assert snap.nprocs == 4
            if i:
                assert snap.vtime > store[i - 1].vtime

    @pytest.mark.parametrize("model", BACKENDS)
    def test_resume_from_every_epoch_bit_identical(self, graph, model):
        interval = PIN[model][0]
        ref, store = checkpointed_run(graph, model, interval)
        for snap in store:
            res = run_matching(
                graph, 4, model,
                config=RunConfig(
                    checkpoint=CheckpointConfig(
                        interval=interval, store=CheckpointStore()
                    ),
                    restore=snap, trace=True,
                ),
            )
            assert_bit_identical_suffix(res, ref, snap)

    @pytest.mark.parametrize("model", ["rma", "ncl", "incl", "mbp"])
    def test_checkpointing_is_pure_instrumentation(self, graph, model):
        """Superstep backends: ckpt-on is bit-identical to ckpt-off."""
        interval = PIN[model][0]
        base = run_matching(graph, 4, model, config=RunConfig(trace=True))
        res, store = checkpointed_run(graph, model, interval)
        assert len(store) > 0
        assert np.array_equal(res.mate, base.mate)
        assert res.makespan == base.makespan
        assert res.engine.trace == base.engine.trace

    @pytest.mark.parametrize("model", ["nsr", "nsr-agg"])
    def test_sendrecv_schedule_shift_preserves_matching(self, graph, model):
        """Send-Recv family: coordination ticks may reshuffle the
        schedule, but the matching is invariant (documented contract)."""
        interval = PIN[model][0]
        base = run_matching(graph, 4, model)
        res, _ = checkpointed_run(graph, model, interval)
        assert np.array_equal(res.mate, base.mate)
        assert res.weight == base.weight


class TestKillResume:
    @pytest.mark.parametrize("model", BACKENDS)
    def test_kill_then_resume_completes_identically(self, graph, model):
        interval, _, makespan, kill_frac = PIN[model]
        ref, store = checkpointed_run(graph, model, interval)
        kill_t = kill_frac * makespan
        kstore = CheckpointStore()
        with pytest.raises(SimKilled) as exc:
            checkpointed_run(graph, model, interval, store=kstore,
                             kill_at=kill_t)
        assert exc.value.t >= kill_t
        snap = kstore.latest_before(kill_t)
        assert snap is not None, "kill point must lie past the first cut"
        # The killed run's prefix of cuts matches the reference run's.
        assert snap.sha256 == store.at_epoch(snap.epoch).sha256
        res = run_matching(
            graph, 4, model,
            config=RunConfig(
                checkpoint=CheckpointConfig(interval=interval,
                                            store=CheckpointStore()),
                restore=snap, trace=True,
            ),
        )
        assert_bit_identical_suffix(res, ref, snap)

    def test_kill_before_first_cut_restarts_from_scratch(self, graph):
        """No snapshot to resume from: rerun from zero *with the same
        checkpoint config* — the Send-Recv schedule depends on it."""
        model = "nsr"
        interval = PIN[model][0]
        ref, _ = checkpointed_run(graph, model, interval)
        kstore = CheckpointStore()
        with pytest.raises(SimKilled):
            checkpointed_run(graph, model, interval, store=kstore,
                             kill_at=interval / 2)
        assert kstore.latest_before(interval / 2) is None
        scratch, _ = checkpointed_run(graph, model, interval)
        assert np.array_equal(scratch.mate, ref.mate)
        assert scratch.makespan == ref.makespan
        assert scratch.engine.trace == ref.engine.trace


class TestPartitionMasking:
    """A healed partition is a transport problem, never a membership one."""

    @pytest.mark.parametrize("model", ["nsr", "nsr-agg"])
    def test_healed_partition_never_shrinks_the_job(self, model):
        g = rmat_graph(7, seed=3)
        base = run_matching(g, 4, model)
        window = PartitionWindow(
            t_start=0.15 * base.makespan,
            t_end=0.55 * base.makespan,
            groups=((0, 1), (2, 3)),
        )
        res = run_matching(
            g, 4, model,
            config=RunConfig(faults=FaultPlan(seed=2, partitions=(window,))),
        )
        totals = res.fault_totals()
        # The cut actually bit: traffic was lost and retries deferred.
        assert totals["msgs_partitioned"] > 0
        assert totals["partition_deferrals"] > 0
        # ...but nobody was declared dead and nothing was renounced.
        assert totals["spurious_detections"] == 0
        assert not res.crashed_ranks
        assert np.array_equal(res.mate, base.mate)
        assert res.weight == base.weight

    def test_unlisted_ranks_are_unaffected(self):
        w = PartitionWindow(t_start=0.0, t_end=1.0, groups=((0,), (1,)))
        plan = FaultPlan(seed=0, partitions=(w,))
        assert plan.partitioned(0, 1, 0.5)
        assert not plan.partitioned(0, 2, 0.5)  # rank 2 not in any group
        assert not plan.partitioned(2, 1, 0.5)
        assert not plan.partitioned(0, 1, 1.0)  # healed at t_end


class TestAggUnderMessageFaults:
    """nsr-agg accepts drop/dup/delay plans and matches nsr under the
    same plan — the batch-level ack/retry protocol masks every fate."""

    PLANS = {
        "drop": FaultPlan(seed=5, drop_rate=0.08),
        "dup": FaultPlan(seed=6, dup_rate=0.10),
        "delay": FaultPlan(seed=7, delay_rate=0.20, delay_max=30e-6),
        "mixed": FaultPlan(seed=8, drop_rate=0.04, dup_rate=0.04,
                           delay_rate=0.10),
    }

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_matches_nsr_under_same_plan(self, kind):
        g = rmat_graph(7, seed=3)
        plan = self.PLANS[kind]
        agg = run_matching(g, 4, "nsr-agg", config=RunConfig(faults=plan))
        nsr = run_matching(g, 4, "nsr", config=RunConfig(faults=plan))
        clean = run_matching(g, 4, "nsr-agg")
        assert np.array_equal(agg.mate, nsr.mate)
        assert np.array_equal(agg.mate, clean.mate)
        assert agg.weight == clean.weight
        assert agg.fault_totals()["spurious_detections"] == 0


# ----------------------------------------------------------------------
# Hypothesis: snapshot -> restore -> run-to-completion is bit-identical
# to the straight (checkpointed) run, for any backend, graph, interval,
# and cut choice in the sampled space.
# ----------------------------------------------------------------------

RESTART_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    model=st.sampled_from(BACKENDS),
    gseed=st.integers(min_value=0, max_value=4),
    frac=st.floats(min_value=0.15, max_value=0.6),
    pick=st.integers(min_value=0, max_value=7),
)
@RESTART_SETTINGS
def test_property_restore_roundtrip_bit_identical(model, gseed, frac, pick):
    g = rmat_graph(6, seed=gseed)
    base = run_matching(g, 4, model, config=RunConfig(compute_weight=False))
    interval = frac * base.makespan
    store = CheckpointStore()
    cfg = RunConfig(
        checkpoint=CheckpointConfig(interval=interval, store=store),
        trace=True,
    )
    ref = run_matching(g, 4, model, config=cfg)
    if not len(store):
        return  # interval exceeded the checkpointed run's makespan
    snap = store[pick % len(store)]
    res = run_matching(
        g, 4, model,
        config=RunConfig(
            checkpoint=CheckpointConfig(interval=interval,
                                        store=CheckpointStore()),
            restore=snap, trace=True,
        ),
    )
    assert_bit_identical_suffix(res, ref, snap)
