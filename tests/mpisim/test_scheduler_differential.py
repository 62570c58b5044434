"""Differential tests: the heap scheduler and the scan oracle agree.

The engine has one scheduler, an indexed candidate-time heap; the O(P)
scan it replaced lives on in ``tests/mpisim/scan_oracle.py`` as the
executable specification (see docs/engine_scheduling.md). This suite runs
a matrix of (program x machine x seed x fault plan) on both and asserts
that every *virtual* observable agrees exactly:

* the canonically ordered event trace, byte-for-byte as CSV;
* per-rank final clocks and the makespan;
* every per-rank counter (op counts, byte volumes, the
  compute/comm/idle time split, memory accounting, fault counters);
* the communication matrices;
* rank results and crashed-rank sets.

``scheduler_switches`` is deliberately excluded from the comparison: the
two take different keep-running shortcuts in ``yield_ready_g``, which
changes how often the token physically moves but nothing a rank program
can observe in virtual time.

The matrix is still parametrized over the retired engine names, as
test ids only: every leg runs the one engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.mpisim import Engine, FaultPlan, cori_aries, trace_to_csv
from repro.mpisim.engine import run_inline
from repro.mpisim.errors import RankFailure
from repro.mpisim.machine import commodity_cluster, get_machine, zero_latency
from repro.mpisim.tracing import time_ordered
from repro.util.rng import make_rng
from repro.matching.config import RunConfig

from tests.mpisim.scan_oracle import ScanEngine

MACHINES = ["cori-aries", "commodity", "zero-latency"]


# ----------------------------------------------------------------------
# equivalence harness
# ----------------------------------------------------------------------
def _counters_dict(rc) -> dict:
    """RankCounters as a plain dict (dataclass fields are all comparable)."""
    return dataclasses.asdict(rc)


def assert_equivalent(a, ta, b, tb) -> None:
    """Assert two (EngineResult, trace) pairs agree on every virtual fact."""
    assert a.makespan == b.makespan
    assert a.final_clocks == b.final_clocks
    assert a.rank_results == b.rank_results
    assert a.total_ops == b.total_ops
    assert a.crashed_ranks == b.crashed_ranks
    # Canonical order: (time, rank) with a stable sort, so each rank's
    # same-time events keep program order. Physical append order may
    # differ (the schedulers park at different moments), virtual order
    # may not.
    assert trace_to_csv(time_ordered(ta)) == trace_to_csv(time_ordered(tb))
    for rca, rcb in zip(a.counters.ranks, b.counters.ranks):
        assert _counters_dict(rca) == _counters_dict(rcb)
    for name in ("p2p", "rma", "ncl"):
        ma = getattr(a.counters, name)
        mb = getattr(b.counters, name)
        np.testing.assert_array_equal(ma.counts, mb.counts)
        np.testing.assert_array_equal(ma.bytes, mb.bytes)


# Retired engine names, kept as test ids: every leg runs the one engine.
ENGINES = ["threaded", "coroutine", "vector"]


def run_both(prog, nprocs, machine, faults=None, expect_crashes=False):
    """Run on the scan oracle and on the engine; assert equivalence."""
    out = []
    for engine in (ScanEngine, Engine):
        eng = engine(nprocs, machine, trace=True, faults=faults)
        out.append((eng.run(prog), eng.trace))
    (a, ta), (b, tb) = out
    if expect_crashes:
        assert a.crashed_ranks  # the plan must actually bite
    assert_equivalent(a, ta, b, tb)
    return b


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
def scripted(seed: int, rounds: int):
    """Seeded many-to-many sends + allreduce + exact receives per round."""

    def prog(ctx):
        rng = make_rng(seed, "diff", ctx.rank)
        shared = make_rng(seed, "diff-shared")
        dests = shared.integers(0, ctx.nprocs, size=(ctx.nprocs, rounds))
        for k in range(rounds):
            ctx.compute(units=float(rng.integers(0, 40)))
            d = int(dests[ctx.rank, k])
            if d != ctx.rank:
                yield from ctx.isend_g(d, (ctx.rank, k), nbytes=48)
            expected = int(np.sum(dests[:, k] == ctx.rank)) - int(
                dests[ctx.rank, k] == ctx.rank
            )
            got = []
            for _ in range(expected):
                msg = yield from ctx.recv_g()
                got.append(msg.payload)
            got.sort()
            total = yield from ctx.allreduce_g(len(got))
            assert total == int(np.sum(dests[:, k] != np.arange(ctx.nprocs)))
        return ctx.rank

    return prog


def tolerant_ring(rounds: int):
    """Ring chatter that only receives what arrives (drop/dup tolerant)."""

    def prog(ctx):
        nxt = (ctx.rank + 1) % ctx.nprocs
        for i in range(rounds):
            yield from ctx.isend_g(nxt, i, tag=1, nbytes=24)
        ctx.compute(seconds=1e-3)
        n = 0
        while (yield from ctx.iprobe_g()) is not None:
            yield from ctx.recv_g(tag=1)
            n += 1
        return n

    return prog


def rma_mix(ctx):
    """Puts, accumulates, sync_local polling, get, and a flush fence."""
    p = ctx.nprocs
    win = yield from ctx.win_allocate_g(p)
    yield from win.put_g((ctx.rank + 1) % p, np.array([ctx.rank + 1]), ctx.rank)
    yield from win.accumulate_g((ctx.rank + 2) % p, np.array([10]), ctx.rank)
    yield from win.flush_all_g()
    yield from ctx.barrier_g()
    applied = yield from win.sync_local_g()
    snapshot = win.local.tolist()
    remote = (yield from win.get_g((ctx.rank + 1) % p, 0, p)).tolist()
    yield from ctx.barrier_g()
    return (applied, snapshot, remote)


def neighbor_ring(rounds: int):
    def prog(ctx):
        p = ctx.nprocs
        topo = yield from ctx.dist_graph_create_adjacent_g(
            sorted({(ctx.rank - 1) % p, (ctx.rank + 1) % p})
        )
        acc = 0
        for k in range(rounds):
            got, _ = yield from topo.neighbor_alltoallv_g(
                [[ctx.rank, k]] * topo.degree
            )
            acc += sum(x[0] for x in got)
            ctx.compute(units=3.0)
        return acc

    return prog


def crash_survivor(ctx):
    """Send-only + probe-drain loop that outlives peer crashes."""
    from repro.mpisim.errors import RankCrashed

    nxt = (ctx.rank + 1) % ctx.nprocs
    sent = 0
    for i in range(6):
        try:
            yield from ctx.isend_g(nxt, i, tag=5, nbytes=16)
            sent += 1
        except RankCrashed:
            pass  # peer detected dead; keep going
        ctx.compute(seconds=2e-5)
    n = 0
    while (yield from ctx.iprobe_g()) is not None:
        yield from ctx.recv_g(tag=5)
        n += 1
    return (sent, n, sorted(ctx.failed_ranks()))


# ----------------------------------------------------------------------
# fault-free matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("nprocs", [2, 5, 9])
def test_scripted_matrix(machine, seed, nprocs, engine):
    run_both(scripted(seed, rounds=4), nprocs, get_machine(machine))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("machine", MACHINES)
def test_rma_mix(machine, engine):
    res = run_both(rma_mix, 4, get_machine(machine))
    # sanity: every rank saw both incoming one-sided ops after the barrier
    for applied, _, _ in res.rank_results:
        assert applied == 2


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("nprocs", [3, 8])
def test_neighborhood_collectives(nprocs, engine):
    run_both(neighbor_ring(5), nprocs, cori_aries())


@pytest.mark.parametrize("engine", ENGINES)
def test_single_rank_degenerate(engine):
    def prog(ctx):
        ctx.compute(units=10.0)
        yield from ctx.barrier_g()
        return (yield from ctx.allreduce_g(ctx.rank))

    run_both(prog, 1, cori_aries())


# ----------------------------------------------------------------------
# faulty matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fault_seed", [3, 19])
@pytest.mark.parametrize(
    "rates",
    [
        dict(drop_rate=0.2),
        dict(dup_rate=0.15),
        dict(delay_rate=0.3),
        dict(drop_rate=0.1, dup_rate=0.1, delay_rate=0.1),
    ],
    ids=["drop", "dup", "delay", "mixed"],
)
def test_message_fault_plans(fault_seed, rates, engine):
    plan = FaultPlan(seed=fault_seed, **rates)
    run_both(tolerant_ring(10), 4, cori_aries(), faults=plan)


@pytest.mark.parametrize("engine", ENGINES)
def test_nic_degradation_plan(engine):
    from repro.mpisim.faults import NicDegradation

    plan = FaultPlan(
        degradations=(NicDegradation(rank=1, t_start=0.0, t_end=1e-3, factor=8.0),)
    )
    run_both(tolerant_ring(8), 4, cori_aries(), faults=plan)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("crash_rank,crash_t", [(1, 5e-5), (0, 1e-4)])
def test_crash_plans(crash_rank, crash_t, engine):
    plan = FaultPlan(crashes={crash_rank: crash_t})
    run_both(crash_survivor, 4, cori_aries(), faults=plan, expect_crashes=True)


# ----------------------------------------------------------------------
# end-to-end: the matching application under every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("model", ["nsr", "rma", "ncl", "mbp", "incl", "nsr-agg"])
def test_matching_backends_bit_identical(model, engine, use_scheduler):
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    g = rmat_graph(7, seed=2)
    runs = {}
    for sched in ("reference", "heap"):
        use_scheduler(sched)
        runs[sched] = run_matching(
            g, 4, model, config=RunConfig(trace=True)
        )
    a, b = runs["reference"], runs["heap"]
    assert a.makespan == b.makespan
    assert a.weight == b.weight
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.mate, b.mate)
    assert a.engine.final_clocks == b.engine.final_clocks
    assert trace_to_csv(time_ordered(a.engine.trace)) == trace_to_csv(
        time_ordered(b.engine.trace)
    )
    for rca, rcb in zip(a.counters.ranks, b.counters.ranks):
        assert _counters_dict(rca) == _counters_dict(rcb)


@pytest.mark.parametrize("engine", ENGINES)
def test_matching_under_faults_bit_identical(engine, use_scheduler):
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    g = rmat_graph(7, seed=2)
    plan = FaultPlan(seed=5, drop_rate=0.05, dup_rate=0.05)
    runs = {}
    for sched in ("reference", "heap"):
        use_scheduler(sched)
        runs[sched] = run_matching(
            g, 4, "nsr", config=RunConfig(faults=plan)
        )
    a, b = runs["reference"], runs["heap"]
    assert (a.makespan, a.weight) == (b.makespan, b.weight)
    assert a.fault_totals() == b.fault_totals()
    np.testing.assert_array_equal(a.mate, b.mate)


def test_nsr_agg_matching_under_faults_bit_identical(use_scheduler):
    """The batch path under lossy plans: reliable batches retransmitted
    and deduplicated by the channel schedule identically under both
    schedulers."""
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    g = rmat_graph(7, seed=2)
    plan = FaultPlan(seed=5, drop_rate=0.05, dup_rate=0.05)
    runs = {}
    for sched in ("reference", "heap"):
        use_scheduler(sched)
        runs[sched] = run_matching(g, 4, "nsr-agg", config=RunConfig(faults=plan))
    a, b = runs["reference"], runs["heap"]
    assert (a.makespan, a.weight) == (b.makespan, b.weight)
    assert a.fault_totals() == b.fault_totals()
    assert a.fault_totals()["retransmits"] > 0
    np.testing.assert_array_equal(a.mate, b.mate)


# ----------------------------------------------------------------------
# engine API guards
# ----------------------------------------------------------------------
def test_unknown_scheduler_rejected():
    # The scheduler is no longer a choice: neither the Engine nor
    # RunConfig has the field, so any name, a legacy one included, fails.
    with pytest.raises(TypeError):
        Engine(2, cori_aries(), scheduler="heap")
    for name in ("heap", "reference", "banana"):
        with pytest.raises(TypeError, match="scheduler"):
            RunConfig(scheduler=name)


def test_unknown_engine_rejected():
    # Nor is the engine: RunConfig, evolve(), api.run and the Engine
    # refuse the retired keyword whatever it names.
    from repro.api import run

    for name in ("coroutine", "fibers"):
        with pytest.raises(TypeError, match="engine"):
            RunConfig(engine=name)
        with pytest.raises(TypeError, match="engine"):
            RunConfig().evolve(engine=name)
    with pytest.raises(TypeError, match="engine"):
        run(None, 2, "nsr", engine="coroutine")
    with pytest.raises(TypeError):
        Engine(2, cori_aries(), engine="vector")


def test_plain_blocking_call_rejected_under_coroutine():
    # run_inline drives a simulator-call generator without a scheduler;
    # one that reaches a park point cannot be suspended there, and the
    # failure must be a clear diagnostic, not a hang.
    def prog(ctx):
        yield from ()
        run_inline(ctx.barrier_g())

    eng = Engine(2, cori_aries())
    with pytest.raises(RankFailure, match="park point") as exc:
        eng.run(prog)
    assert "threaded" not in str(exc.value)


def test_plain_target_that_never_parks_still_runs():
    # A rank program need not be a generator as long as it never blocks.
    def prog(ctx):
        ctx.compute(seconds=1e-6 * (ctx.rank + 1))
        return ctx.rank * 2

    res = Engine(3, cori_aries()).run(prog)
    assert res.rank_results == [0, 2, 4]
    assert res.makespan == 3e-6


def _small_matching(config):
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    res = run_matching(rmat_graph(6, seed=2), 4, "nsr", config=config)
    return (res.makespan, res.weight, res.engine.total_ops,
            res.engine.scheduler_switches, res.engine.final_clocks)


def test_default_engine_is_coroutine_and_threaded_is_its_alias():
    # One engine and no name for it: the config carries no engine or
    # scheduler field, and a run repeats exactly.
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert not names & {"engine", "scheduler"}
    assert _small_matching(RunConfig()) == _small_matching(RunConfig())


def test_repro_engine_env(monkeypatch):
    # $REPRO_ENGINE is not read: no value, "fibers" included, changes
    # the default config or a run.
    base_cfg, base_run = RunConfig(), _small_matching(RunConfig())
    for value in ("", "vector", "threaded", "fibers"):
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert RunConfig() == base_cfg
        assert _small_matching(RunConfig()) == base_run


def test_machines_importable():
    # keep the direct imports honest (and the MACHINES list in sync)
    assert {m().name for m in (cori_aries, commodity_cluster, zero_latency)} == {
        get_machine(n).name for n in MACHINES
    }
