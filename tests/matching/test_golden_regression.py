"""Golden regression pins: exact makespans and weights per backend.

One small instance (R-MAT scale 7, seed 3, p=4, the cori-aries machine)
is pinned to the *exact* float produced at the time the heap scheduler
landed, for every communication backend. Any change to the engine's
timing arithmetic, the scheduler, the machine model defaults, or the
matching backends that perturbs virtual time or the matching itself
trips these immediately.

Exact float equality is safe here: the whole seed path runs on
splitmix64-derived numpy generators (no builtin ``hash``), and IEEE-754
arithmetic on a fixed operation order is reproducible across platforms
and Python versions. If a test fails after an *intentional* semantic
change, re-record the constants and say so in the commit message.
"""

import time

import pytest

from repro.graph.generators import rmat_graph
from repro.matching import run_matching, RunConfig
from repro.mpisim.machine import cori_aries

# model -> (makespan, weight, matched edges, iterations,
#           heap-scheduler switches, total ops, total messages)
# The last three columns were recorded by the thread-per-rank engine in
# its final commit, so the generator engine is held to every scheduling
# decision it made, not only to the clocks.
GOLDEN = {
    "nsr": (0.0011927654999999962, 33.23161028286712, 40, 51, 2073, 3583, 867),
    "rma": (0.00040368000000000055, 33.23161028286712, 40, 8, 916, 2190, 1127),
    "ncl": (0.0003901130000000003, 33.23161028286712, 40, 8, 108, 104, 192),
    "mbp": (0.002519747499999989, 33.23161028286712, 40, 6, 1780, 4184, 1036),
    "nsr-agg": (0.0002336318000000013, 33.23161028286712, 40, 32, 211, 488, 60),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, seed=3)


@pytest.mark.parametrize("engine", ["threaded", "coroutine", "vector"])
@pytest.mark.parametrize("model", sorted(GOLDEN))
@pytest.mark.parametrize("scheduler", ["heap", "reference"])
def test_golden_pins(graph, model, scheduler, engine, use_scheduler):
    # The retired engine names stay test ids only: every leg runs the
    # one engine and must hit the very same pins. The "reference" legs
    # run on the test-side scan oracle.
    makespan, weight, edges, iters, switches, ops, messages = GOLDEN[model]
    use_scheduler(scheduler)
    res = run_matching(graph, 4, model, config=RunConfig(machine=cori_aries()))
    assert res.makespan == makespan
    assert res.weight == weight
    assert res.num_matched_edges == edges
    assert res.iterations == iters
    assert res.engine.total_ops == ops
    assert res.total_messages() == messages
    if scheduler == "heap":
        # the scan oracle takes different keep-running shortcuts
        assert res.engine.scheduler_switches == switches


# Many empty lanes: R-MAT scale 9, seed 3 over P=64 (8 vertices a rank).
# Close to nine lanes in ten of every ncl payload exchange carry nothing,
# the shape where a neighbourhood superstep's host work must follow the
# lanes with data. Recorded before that work went in. The same instance
# gives every Send-Recv rank up to 63 aggregator lanes (the P=4 GOLDEN
# instance has at most three), so the nsr / nsr-agg rows, recorded before
# the aggregator tracked its non-empty lanes, catch a flush-order change.
# model -> (makespan, weight, heap-scheduler switches, total ops,
#           total messages)
SPARSE_LANES_GOLDEN = {
    "rma": (0.0025480959999999763, 118.6372479397408, 9237, 16398, 41817),
    "ncl": (0.004009104299999996, 118.6372479397408, 2112, 2048, 63800),
    "incl": (0.0059065511999999995, 118.6372479397408, 3264, 4045, 102080),
    "nsr": (0.0013262029999999959, 118.6372479397408, 19995, 25925, 5832),
    "nsr-agg": (0.00047531660000000003, 118.6372479397408, 17497, 28626, 3732),
}


@pytest.mark.parametrize("model", sorted(SPARSE_LANES_GOLDEN))
def test_sparse_lanes_pins(model):
    makespan, weight, switches, ops, messages = SPARSE_LANES_GOLDEN[model]
    res = run_matching(
        rmat_graph(9, seed=3), 64, model, config=RunConfig(machine=cori_aries())
    )
    assert res.makespan == makespan
    assert res.weight == weight
    assert res.engine.scheduler_switches == switches
    assert res.engine.total_ops == ops
    assert res.total_messages() == messages


def test_all_backends_agree_on_weight(graph):
    # Every backend computes the same half-approximate matching here —
    # a cross-backend consistency pin on top of the per-backend ones.
    weights = {GOLDEN[m][1] for m in GOLDEN}
    assert len(weights) == 1


# ----------------------------------------------------------------------
# weak-scaling pins: P=1024..16384
# ----------------------------------------------------------------------
# Not weak scaling in the Fig. 4 sense: the graph doubles (R-MAT scale
# 13 over 1024 ranks, 14 over 4096, 15 over 16384) while P quadruples,
# so a rank holds 8, 4 and 2 vertices and the per-rank size halves at
# each step. P=16384 took 46 s on a
# 2-core x86-64 box. Deselected by default via the `scale` marker — CI's
# scale-smoke job and `pytest -m scale` opt in.
#
# nprocs -> (rmat scale, makespan, weight, matched edges, iterations,
#            wall-clock smoke budget in seconds)
SCALE_GOLDEN = {
    1024: (13, 0.007511103000000276, 1402.7828826796542, 1743, 319, 180.0),
    4096: (14, 0.0112379500000005, 2568.706089974792, 3178, 328, 420.0),
    16384: (15, 0.018549557000002454, 4837.256738620221, 6030, 389, 600.0),
}


@pytest.mark.scale
@pytest.mark.parametrize("nprocs", sorted(SCALE_GOLDEN))
def test_weak_scaling_pins(nprocs):
    scale, makespan, weight, edges, iters, budget = SCALE_GOLDEN[nprocs]
    g = rmat_graph(scale, seed=3)
    t0 = time.perf_counter()
    res = run_matching(g, nprocs, "nsr", config=RunConfig(machine=cori_aries()))
    wall = time.perf_counter() - t0
    assert res.makespan == makespan
    assert res.weight == weight
    assert res.num_matched_edges == edges
    assert res.iterations == iters
    # Smoke budget: generous vs what these take on a laptop, tight enough
    # that an accidental O(P^2) in the engine core blows it.
    assert wall < budget, f"P={nprocs} took {wall:.1f}s (budget {budget}s)"
