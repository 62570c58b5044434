"""The nsr-agg backend: NSR semantics over the aggregation layer.

The headline pin is the acceptance criterion for the aggregation layer:
on a dense R-MAT at p=64, nsr-agg must compute the *identical* matching
(same mate array, same weight) as nsr while sending at least 5x fewer
wire messages. Message counts are pinned exactly — they are a pure
function of the deterministic simulation, so any drift means the
transport changed behavior.
"""

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.matching.driver import MatchingOptions
from repro.matching.verify import check_matching_valid
from repro.mpisim.errors import RankFailure
from repro.mpisim.faults import FaultPlan
from repro.mpisim.machine import cori_aries

# Pinned wire-message counts for the p=64 acceptance instance
# (rmat scale 12, edgefactor 32, seed 3, cori-aries, default flush policy).
PIN_P64 = {"nsr": 97161, "nsr-agg": 19350}


def test_p64_identical_matching_5x_fewer_messages():
    """Acceptance pin: same matching as nsr, >=5x fewer wire messages."""
    g = rmat_graph(12, 32, seed=3)
    cfg = RunConfig(machine=cori_aries(), compute_weight=True)
    base = run_matching(g, 64, "nsr", config=cfg)
    agg = run_matching(g, 64, "nsr-agg", config=cfg)

    assert np.array_equal(base.mate, agg.mate)
    assert agg.weight == base.weight
    check_matching_valid(g, agg.mate)

    assert base.total_messages() == PIN_P64["nsr"]
    assert agg.total_messages() == PIN_P64["nsr-agg"]
    ratio = base.total_messages() / agg.total_messages()
    assert ratio >= 5.0, f"aggregation ratio regressed: {ratio:.2f}x"

    totals = agg.counters.aggregation_totals()
    # Local termination allows final REJECT/INVALID batches to land after
    # their destination exits (exactly as in plain NSR), so delivered can
    # trail coalesced slightly — but never exceed it.
    undelivered = totals["agg_msgs_coalesced"] - totals["agg_msgs_delivered"]
    assert 0 <= undelivered < 100
    assert totals["agg_dropped_dead"] == 0
    # Aggregation must also win on simulated time, not just message count.
    assert agg.makespan < base.makespan


@pytest.mark.parametrize("scheduler", ["heap", "reference"])
def test_small_instance_matches_nsr(scheduler, use_scheduler):
    g = rmat_graph(7, seed=3)
    use_scheduler(scheduler)
    cfg = RunConfig(machine=cori_aries())
    base = run_matching(g, 4, "nsr", config=cfg)
    agg = run_matching(g, 4, "nsr-agg", config=cfg)
    assert np.array_equal(base.mate, agg.mate)
    assert agg.weight == base.weight
    assert agg.total_messages() < base.total_messages()


def test_flush_policy_does_not_change_matching():
    """Any flush policy is pure transport: the matching never moves."""
    g = rmat_graph(8, seed=5)
    results = []
    for opts in (
        MatchingOptions(),  # default byte threshold + linger
        MatchingOptions(agg_flush_bytes=None, agg_flush_count=4),
    ):
        res = run_matching(g, 8, "nsr-agg",
                           config=RunConfig(options=opts))
        check_matching_valid(g, res.mate)
        results.append(res)
    first = results[0]
    for other in results[1:]:
        assert np.array_equal(first.mate, other.mate)
        assert other.weight == first.weight


def test_crash_yields_valid_survivor_matching():
    g = rmat_graph(8, seed=5)
    plan = FaultPlan(seed=3, crashes={2: 5e-5}, detect_latency=2e-6)
    res = run_matching(g, 8, "nsr-agg", config=RunConfig(faults=plan))
    assert sorted(res.crashed_ranks) == [2]
    check_matching_valid(g, res.mate)
    # Crashed-owned vertices are unmatched in the survivor projection.
    lo, hi = res.dead_ranges[0]
    assert np.all(res.mate[lo:hi] == -1)


def test_message_fault_plan_masked_by_reliable_batches():
    """Drop/dup/delay plans are masked by the reliable channel, which
    carries each batch as one DATA message: the matching equals nsr's
    under the same plan (and the fault-free one), with retransmissions
    actually exercised and counted where nsr counts them."""
    g = rmat_graph(7, seed=3)
    plan = FaultPlan(seed=1, drop_rate=0.05)
    res = run_matching(g, 4, "nsr-agg", config=RunConfig(faults=plan))
    ref = run_matching(g, 4, "nsr", config=RunConfig(faults=plan))
    clean = run_matching(g, 4, "nsr-agg")
    assert np.array_equal(res.mate, ref.mate)
    assert np.array_equal(res.mate, clean.mate)
    assert res.weight == clean.weight
    totals = res.fault_totals()
    assert totals["msgs_dropped"] > 0
    assert totals["retransmits"] > 0
    assert totals["spurious_detections"] == 0
