"""Crash-survivable RMA and NCL backends, RMA put-fate repair, and
per-backend golden pins for one canonical crash plan.

The canonical instance mirrors ``test_golden_regression.py`` (R-MAT
scale 7, seed 3, p=4, cori-aries) with rank 1 killed at t=1e-4. Exact
float equality is intentional — see the golden-regression module
docstring; if a pin trips after an *intentional* semantic change,
re-record and say so in the commit message.
"""

import numpy as np
import pytest

from repro.graph.distribution import partition_graph
from repro.graph.generators import rgg_graph, rmat_graph
from repro.matching import run_matching, RunConfig
from repro.matching.driver import MatchingOptions, matching_rank_main
from repro.matching.verify import check_matching_valid
from repro.mpisim.checkpoint import CheckpointConfig, CheckpointStore
from repro.mpisim.collectives import NeighborhoodCollective
from repro.mpisim.engine import Engine
from repro.mpisim.errors import SimKilled
from repro.mpisim.faults import FaultPlan
from repro.mpisim.machine import cori_aries

# model -> (makespan, weight, matched edges, crashed ranks)
GOLDEN_CRASH = {
    "nsr": (0.0009365654999999977, 22.723514399910133, 29, [1]),
    "rma": (0.0003278700000000007, 23.626562698807945, 30, [1]),
    "ncl": (0.0002704848000000009, 22.723514399910133, 29, [1]),
}

CRASH_PLAN = FaultPlan(seed=3, crashes={1: 1e-4}, detect_latency=1e-5)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, seed=3)


@pytest.fixture(scope="module")
def rgg():
    return rgg_graph(1024, target_avg_degree=8.0, seed=2)


@pytest.mark.parametrize("model", sorted(GOLDEN_CRASH))
@pytest.mark.parametrize("scheduler", ["heap", "reference"])
def test_golden_crash_pins(graph, model, scheduler, use_scheduler):
    makespan, weight, edges, crashed = GOLDEN_CRASH[model]
    use_scheduler(scheduler)
    res = run_matching(graph, 4, model, config=RunConfig(machine=cori_aries(), faults=CRASH_PLAN))
    check_matching_valid(graph, res.mate)
    assert sorted(res.crashed_ranks) == crashed
    assert res.makespan == makespan
    assert res.weight == weight
    assert res.num_matched_edges == edges


@pytest.mark.parametrize("model", ["rma", "ncl"])
class TestCrashRecovery:
    def test_single_crash_valid_survivor_matching(self, rgg, model):
        plan = FaultPlan(seed=3, crashes={2: 5e-5}, detect_latency=2e-6)
        res = run_matching(rgg, 6, model, config=RunConfig(faults=plan))
        assert sorted(res.crashed_ranks) == [2]
        check_matching_valid(rgg, res.mate)
        # Recovery actually ran (the crash fired mid-algorithm).
        assert max(rr["recoveries"] for rr in res.rank_results if rr) >= 1

    def test_multi_crash_converges(self, rgg, model):
        plan = FaultPlan(
            seed=5, crashes={1: 2e-5, 2: 2.1e-5, 5: 6e-5}, detect_latency=2e-6
        )
        res = run_matching(rgg, 6, model, config=RunConfig(faults=plan))
        assert sorted(res.crashed_ranks) == [1, 2, 5]
        check_matching_valid(rgg, res.mate)

    def test_crash_run_deterministic_across_schedulers(self, rgg, model, use_scheduler):
        plan = FaultPlan(seed=4, crashes={0: 3e-5, 3: 9e-5}, detect_latency=2e-6)
        a = run_matching(rgg, 6, model, config=RunConfig(faults=plan))
        use_scheduler("reference")
        b = run_matching(rgg, 6, model, config=RunConfig(faults=plan))
        assert a.makespan == b.makespan
        assert np.array_equal(a.mate, b.mate)

    def test_null_plan_byte_identical_to_no_plan(self, rgg, model):
        clean = run_matching(rgg, 4, model)
        null = run_matching(rgg, 4, model, config=RunConfig(faults=FaultPlan(seed=99)))
        assert null.makespan == clean.makespan
        assert np.array_equal(null.mate, clean.mate)

    def test_survivor_topology_retires_its_collectives(self, model):
        # The ranks of a survivor topology's failure epoch never enter its
        # neighbourhood collectives; an op whose survivors have all
        # collected must still leave the engine, or every later
        # checkpoint cut carries it.
        eng = Engine(8, cori_aries(), faults=CRASH_PLAN)
        res = eng.run(matching_rank_main, args=(
            partition_graph(rmat_graph(9, seed=3), 8), model, MatchingOptions()))
        assert res.crashed_ranks == (1,)
        assert max(rr["recoveries"] for rr in res.rank_results if rr) >= 1
        leaked = [op.key for op in eng.coll_ops().values()
                  if isinstance(op, NeighborhoodCollective)]
        assert leaked == []

    def test_kill_resume_then_recover_bit_identical(self, graph, model):
        # The last cut the killed run assembled precedes the crash's
        # detection. It carries the survivor-safe topology and the loop
        # state; resumed from it, the run detects the crash, recovers and
        # finishes exactly as the uninterrupted one.
        def cfg(store, **kw):
            return RunConfig(faults=CRASH_PLAN, trace=True, checkpoint=CheckpointConfig(
                interval=2e-5, store=store), **kw)

        ref = run_matching(graph, 4, model, config=cfg(CheckpointStore()))
        kill_t = 0.9 * ref.makespan
        kstore = CheckpointStore()
        with pytest.raises(SimKilled):
            run_matching(graph, 4, model, config=cfg(kstore, kill_at=kill_t))
        snap = kstore.latest_before(kill_t)
        assert snap.vtime < CRASH_PLAN.crashes[1] + CRASH_PLAN.detect_latency
        res = run_matching(graph, 4, model,
                           config=cfg(CheckpointStore(), restore=snap))
        assert res.makespan == ref.makespan
        assert np.array_equal(res.mate, ref.mate)
        assert res.engine.trace == ref.engine.trace[snap.state()["trace_len"]:]
        assert [rr["recoveries"] for rr in res.rank_results] == [
            rr["recoveries"] for rr in ref.rank_results] == [1, 1, 1]


class TestRMAPutFates:
    def test_drops_repaired_bit_identical(self, rgg):
        clean = run_matching(rgg, 4, "rma")
        plan = FaultPlan(seed=7, rma_drop_rate=0.05)
        res = run_matching(rgg, 4, "rma", config=RunConfig(faults=plan))
        ft = res.fault_totals()
        assert ft["puts_dropped"] > 0
        assert ft["put_retries"] >= ft["puts_dropped"]
        assert np.array_equal(res.mate, clean.mate)
        # Repair costs time, never data.
        assert res.makespan > clean.makespan
        assert res.weight == clean.weight

    def test_corruption_repaired_bit_identical(self, rgg):
        clean = run_matching(rgg, 4, "rma")
        plan = FaultPlan(seed=8, rma_corrupt_rate=0.05)
        res = run_matching(rgg, 4, "rma", config=RunConfig(faults=plan))
        ft = res.fault_totals()
        assert ft["puts_corrupted"] > 0
        assert np.array_equal(res.mate, clean.mate)

    def test_drop_and_corrupt_with_crash(self, rgg):
        plan = FaultPlan(
            seed=9, rma_drop_rate=0.08, rma_corrupt_rate=0.04,
            crashes={3: 5e-5}, detect_latency=2e-6,
        )
        res = run_matching(rgg, 6, "rma", config=RunConfig(faults=plan))
        assert sorted(res.crashed_ranks) == [3]
        check_matching_valid(rgg, res.mate)
        ft = res.fault_totals()
        assert ft["puts_dropped"] > 0 or ft["puts_corrupted"] > 0

    def test_put_fates_deterministic(self, rgg):
        plan = FaultPlan(seed=7, rma_drop_rate=0.05, rma_corrupt_rate=0.03)
        a = run_matching(rgg, 4, "rma", config=RunConfig(faults=plan))
        b = run_matching(rgg, 4, "rma", config=RunConfig(faults=plan))
        assert a.makespan == b.makespan
        assert a.fault_totals() == b.fault_totals()
        assert np.array_equal(a.mate, b.mate)

    def test_put_fate_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(rma_drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rma_corrupt_rate=-0.1)

    def test_null_rma_plan_is_null(self):
        assert FaultPlan(seed=1).is_null()
        assert not FaultPlan(seed=1, rma_drop_rate=0.01).is_null()
        assert FaultPlan(seed=1, rma_drop_rate=0.01).has_rma_faults()
