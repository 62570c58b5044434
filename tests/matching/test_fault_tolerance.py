"""Fault-tolerant matching: reliable delivery masks message faults,
crashes degrade gracefully to a valid matching on the survivors."""

import numpy as np
import pytest

from repro.graph.generators import rmat_graph, rgg_graph
from repro.matching.api import run_matching
from repro.matching.config import RunConfig
from repro.matching.verify import (
    check_matching_valid,
    check_cross_rank_consistency,
    restrict_mate_to_survivors,
)
from repro.mpisim import FaultPlan, SimLimitExceeded
from repro.mpisim.checkpoint import CheckpointConfig
from repro.mpisim.faults import PartitionWindow
from repro.mpisim.machine import cori_aries


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, seed=3)


@pytest.fixture(scope="module")
def clean(graph):
    return run_matching(graph, 4, "nsr")


class TestMessageFaults:
    def test_ten_percent_drops_same_matching(self, graph, clean):
        plan = FaultPlan(seed=5, drop_rate=0.10)
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan))
        check_matching_valid(graph, r.mate)
        check_cross_rank_consistency(r.mate)
        assert np.array_equal(r.mate, clean.mate)
        assert r.weight == clean.weight
        ft = r.fault_totals()
        assert ft["msgs_dropped"] > 0
        assert ft["retransmits"] >= ft["msgs_dropped"] // 2

    def test_dup_and_delay_suppressed(self, graph, clean):
        plan = FaultPlan(seed=6, dup_rate=0.2, delay_rate=0.3)
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan))
        assert np.array_equal(r.mate, clean.mate)
        ft = r.fault_totals()
        assert ft["msgs_duplicated"] > 0
        assert ft["dup_suppressed"] >= ft["msgs_duplicated"]

    def test_same_seed_runs_identical(self, graph):
        plan = lambda: FaultPlan(seed=9, drop_rate=0.1, dup_rate=0.05, delay_rate=0.1)
        a = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan()))
        b = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan()))
        assert a.makespan == b.makespan
        assert np.array_equal(a.mate, b.mate)
        assert a.fault_totals() == b.fault_totals()

    def test_null_plan_matches_no_plan_exactly(self, graph, clean):
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=FaultPlan(seed=1)))
        assert r.makespan == clean.makespan
        assert np.array_equal(r.mate, clean.mate)

    def test_forced_reliable_on_clean_network(self, graph, clean):
        # The shim itself must not change the matching, only the timing.
        # A delay-only plan arms it and loses no message.
        delay_only = FaultPlan(seed=1, delay_rate=0.1)
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=delay_only))
        check_matching_valid(graph, r.mate)
        assert np.array_equal(r.mate, clean.mate)
        assert r.fault_totals()["acks_sent"] > 0

    def test_drops_on_rgg(self):
        g = rgg_graph(2048, target_avg_degree=8.0, seed=2)
        base = run_matching(g, 8, "nsr")
        r = run_matching(g, 8, "nsr", config=RunConfig(faults=FaultPlan(seed=2, drop_rate=0.15)))
        check_matching_valid(g, r.mate)
        assert np.array_equal(r.mate, base.mate)


class TestCrashes:
    def test_crash_yields_valid_survivor_matching(self, graph, clean):
        plan = FaultPlan(
            seed=1,
            crashes={2: clean.makespan * 0.3},
            detect_latency=clean.makespan * 0.02,
        )
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan))
        assert r.crashed_ranks == (2,)
        assert len(r.dead_ranges) == 1
        check_matching_valid(graph, r.mate)
        check_cross_rank_consistency(r.mate)
        # dead range must be fully unmatched in the projected mate
        lo, hi = r.dead_ranges[0]
        assert np.all(r.mate[lo:hi] == -1)
        assert 0 < r.weight < clean.weight
        widowed = sum(rr["stats"].widowed for rr in r.rank_results)
        renounced = sum(rr["stats"].renounced_pairs for rr in r.rank_results)
        assert renounced > 0 and widowed >= 0

    def test_crash_plus_drops(self, graph, clean):
        plan = FaultPlan(
            seed=4,
            drop_rate=0.08,
            crashes={1: clean.makespan * 0.4},
            detect_latency=clean.makespan * 0.02,
        )
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan))
        assert r.crashed_ranks == (1,)
        check_matching_valid(graph, r.mate)
        check_cross_rank_consistency(r.mate)

    def test_early_crash_removes_whole_rank(self, graph):
        # Crash before any message arrives: survivors match among themselves.
        plan = FaultPlan(seed=1, crashes={3: 1e-12}, detect_latency=1e-9)
        r = run_matching(graph, 4, "nsr", config=RunConfig(faults=plan))
        assert r.crashed_ranks == (3,)
        check_matching_valid(graph, r.mate)

    def test_restrict_mate_helper(self):
        mate = np.array([3, -1, 5, 0, -1, 2], dtype=np.int64)
        out = restrict_mate_to_survivors(mate, [(2, 4)])
        # vertices 2,3 dead: 0 (mated to 3) widowed, 2/3 cleared, 5 kept? no —
        # 5's mate is 2 (dead) so 5 is widowed too
        assert out.tolist() == [-1, -1, -1, -1, -1, -1]
        out2 = restrict_mate_to_survivors(mate, [(4, 5)])
        assert out2.tolist() == [3, -1, 5, 0, -1, 2]


class TestBudgets:
    def test_max_ops_budget_via_options(self, graph):
        with pytest.raises(SimLimitExceeded):
            run_matching(graph, 4, "nsr", config=RunConfig(max_ops=50))

    def test_generous_budgets_pass(self, graph, clean):
        r = run_matching(graph, 4, "nsr", config=RunConfig(max_ops=10**9))
        assert np.array_equal(r.mate, clean.mate)


@pytest.mark.parametrize(
    "model, plan",
    [
        ("mbp", FaultPlan(seed=1, drop_rate=0.05)),
        ("ncl", FaultPlan(seed=1, drop_rate=0.05)),
        ("rma", FaultPlan(seed=1, partitions=(
            PartitionWindow(t_start=1e-5, t_end=5e-5, groups=((0, 1), (2, 3))),
        ))),
        ("ncl", FaultPlan(seed=1, rma_drop_rate=0.05)),
    ],
    ids=["mbp-drop", "ncl-drop", "rma-partition", "ncl-putfate"],
)
def test_fault_plan_backend_mismatch_rejected(model, plan):
    """A plan the backend cannot honour is refused before the run starts.
    Message faults and partitions need a reliable channel (nsr, nsr-agg
    only): under drops mbp would retry forever — the small budget turns
    that into SimLimitExceeded — and ncl / rma would inject nothing.
    Put fates need rma's windows."""
    g = rmat_graph(7, seed=3)
    with pytest.raises(ValueError, match="require -m"):
        run_matching(g, 4, model,
                     config=RunConfig(faults=plan, max_ops=20_000))


@pytest.mark.parametrize("model", ["mbp"])
def test_crash_plan_backend_mismatch_rejected(model):
    """Without rollback-recovery a crash must be survived by the backend
    itself, and mbp cannot: the run used to end in a RankFailure raised
    from inside a survivor. It is now refused before it starts. With
    spares the engine heals the crash instead: mbp takes the superstep
    loop's checkpoint cuts, so a crash after the first cut rolls back to
    it and the run ends with the fault-free matching."""
    g = rmat_graph(7, seed=3)
    with pytest.raises(ValueError, match="require -m"):
        run_matching(g, 4, model, config=RunConfig(
            faults=FaultPlan(crashes={1: 1e-5})))
    clean = run_matching(g, 4, model)
    res = run_matching(g, 4, model, config=RunConfig(
        faults=FaultPlan(crashes={1: 5e-5}), spares=1,
        checkpoint=CheckpointConfig(interval=1e-5)))
    assert res.crashed_ranks == ()
    assert res.recovery["recoveries"] == 1
    assert np.array_equal(res.mate, clean.mate)
    assert res.weight == clean.weight
