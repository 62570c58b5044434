"""Property-based proofs of the heap scheduler's core invariants.

``AuditedEngine`` (tests/mpisim/scan_oracle.py) checks every answer of
the heap — each scheduling decision and each keep-running peek in
``yield_ready_g`` — against a fresh O(P) scan and raises if they differ,
i.e. it machine-checks, per decision, that

* no wake-up is ever lost (a rank whose wake potential appeared or
  decreased is always re-indexed before it matters), and
* no non-minimal rank ever runs (conservative DES safety).

Hypothesis drives randomized SPMD programs, machine variations, and
fault plans through audited runs, and additionally asserts the heap and
the scan oracle agree on every virtual outcome and that per-rank trace
times are monotone (a rank's clock never goes backwards).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpisim import FaultPlan, cori_aries
from repro.mpisim.tracing import events_for_rank
from repro.util.rng import make_rng

from tests.mpisim.scan_oracle import AuditedEngine, ScanEngine

SLOWISH = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def scripted(seed: int, rounds: int, collective_every: int):
    """Seeded sends/recvs/computes with an occasional allreduce barrier."""

    def prog(ctx):
        rng = make_rng(seed, "sched-prop", ctx.rank)
        shared = make_rng(seed, "sched-prop-shared")
        dests = shared.integers(0, ctx.nprocs, size=(ctx.nprocs, rounds))
        for k in range(rounds):
            ctx.compute(units=float(rng.integers(0, 60)))
            d = int(dests[ctx.rank, k])
            if d != ctx.rank:
                yield from ctx.isend_g(d, (ctx.rank, k), nbytes=32)
            expected = int(np.sum(dests[:, k] == ctx.rank)) - int(
                dests[ctx.rank, k] == ctx.rank
            )
            for _ in range(expected):
                yield from ctx.recv_g()
            if collective_every and k % collective_every == 0:
                yield from ctx.allreduce_g(1)
        yield from ctx.barrier_g()
        return ctx.rank

    return prog


def drain_prog(seed: int, rounds: int):
    """Fault-tolerant variant: receive only what actually arrives."""

    def prog(ctx):
        shared = make_rng(seed, "sched-prop-drain")
        dests = shared.integers(0, ctx.nprocs, size=(ctx.nprocs, rounds))
        for k in range(rounds):
            d = int(dests[ctx.rank, k])
            if d != ctx.rank:
                yield from ctx.isend_g(d, k, tag=2, nbytes=24)
        ctx.compute(seconds=2e-3)
        n = 0
        while (yield from ctx.iprobe_g()) is not None:
            yield from ctx.recv_g(tag=2)
            n += 1
        return n

    return prog


def run_audited(prog, nprocs, machine, faults=None):
    """Run under the audited heap and the scan oracle; assert agreement."""
    heap = AuditedEngine(nprocs, machine, trace=True, faults=faults)
    rh = heap.run(prog)
    rr = ScanEngine(nprocs, machine, trace=True, faults=faults).run(prog)
    assert rh.makespan == rr.makespan
    assert rh.final_clocks == rr.final_clocks
    assert rh.rank_results == rr.rank_results
    assert rh.crashed_ranks == rr.crashed_ranks
    for rank in range(nprocs):
        times = [e.time for e in events_for_rank(heap.trace, rank)]
        assert times == sorted(times), f"rank {rank} clock went backwards"
    return rh


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    nprocs=st.integers(2, 7),
    rounds=st.integers(1, 6),
    collective_every=st.integers(0, 3),
)
def test_audited_random_programs(seed, nprocs, rounds, collective_every):
    run_audited(scripted(seed, rounds, collective_every), nprocs, cori_aries())


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    nprocs=st.integers(2, 6),
    alpha_scale=st.sampled_from([0.01, 1.0, 100.0]),
)
def test_audited_across_latency_regimes(seed, nprocs, alpha_scale):
    m = cori_aries()
    run_audited(
        scripted(seed, rounds=3, collective_every=2),
        nprocs,
        m.with_overrides(alpha=m.alpha * alpha_scale),
    )


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    fault_seed=st.integers(0, 1000),
    drop=st.floats(0.0, 0.4),
    dup=st.floats(0.0, 0.3),
    delay=st.floats(0.0, 0.4),
)
def test_audited_under_message_faults(seed, fault_seed, drop, dup, delay):
    plan = FaultPlan(seed=fault_seed, drop_rate=drop, dup_rate=dup, delay_rate=delay)
    run_audited(drain_prog(seed, rounds=6), 4, cori_aries(), faults=plan)


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    crash_rank=st.integers(0, 3),
    crash_t=st.floats(1e-6, 2e-3),
)
def test_audited_under_crashes(seed, crash_rank, crash_t):
    from repro.mpisim.errors import RankCrashed

    def prog(ctx):
        shared = make_rng(seed, "sched-prop-crash")
        dests = shared.integers(0, ctx.nprocs, size=8)
        for i, d in enumerate(map(int, dests)):
            try:
                if d != ctx.rank:
                    yield from ctx.isend_g(d, i, tag=3, nbytes=16)
            except RankCrashed:
                pass
            ctx.compute(seconds=1.5e-4)
        n = 0
        while (yield from ctx.iprobe_g()) is not None:
            yield from ctx.recv_g(tag=3)
            n += 1
        return n

    plan = FaultPlan(crashes={crash_rank: crash_t})
    res = run_audited(prog, 4, cori_aries(), faults=plan)
    # A rank that finishes before its scheduled crash time never dies;
    # either way both schedulers agreed (checked in run_audited).
    assert res.crashed_ranks in ((), (crash_rank,))


def test_audit_catches_a_lost_wake_up(monkeypatch):
    # Rank 0 runs first, enters the barrier at t=1e-3 and parks with no
    # wake time; rank 1's entry (at t=0) completes it, and only
    # notify_ranks re-indexes rank 0. With that call gone the heap misses
    # the wake-up, and the audit must say so.
    def prog(ctx):
        if ctx.rank == 0:
            ctx.compute(seconds=1e-3)
        yield from ctx.barrier_g()
        ctx.compute(seconds=1e-6)
        yield from ctx.allreduce_g(ctx.rank)

    monkeypatch.setattr(AuditedEngine, "notify_ranks", lambda self, ranks: None)
    with pytest.raises(AssertionError, match="scan minimum"):
        AuditedEngine(2, cori_aries()).run(prog)
