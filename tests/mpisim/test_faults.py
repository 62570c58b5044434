"""Fault-injection layer: determinism, fate independence, crashes,
degradation windows, and the enriched deadlock dump."""

import pytest

from repro.mpisim import (
    DeadlockError,
    Engine,
    FaultPlan,
    RankCrashed,
    cori_aries,
    fault_summary,
    trace_to_csv,
)
from repro.mpisim.faults import NicDegradation


def chatter(ctx):
    """Each rank sends 20 messages to the next rank and receives 20."""
    nxt = (ctx.rank + 1) % ctx.nprocs
    for i in range(20):
        yield from ctx.isend_g(nxt, i, tag=1, nbytes=24)
    got = []
    for _ in range(20):
        got.append((yield from ctx.recv_g(tag=1)).payload)
    yield from ctx.barrier_g()
    return got


FAULTY = dict(seed=11, drop_rate=0.15, dup_rate=0.1, delay_rate=0.2)


def ring_with_plan(plan, nprocs=4):
    """Ring chatter tolerant of drops: receive only what arrives.

    Returns (EngineResult, trace event list).
    """

    def prog(ctx):
        nxt = (ctx.rank + 1) % ctx.nprocs
        for i in range(10):
            yield from ctx.isend_g(nxt, i, tag=1, nbytes=24)
        ctx.compute(seconds=1e-3)  # let everything arrive
        n = 0
        while (yield from ctx.iprobe_g()) is not None:
            yield from ctx.recv_g(tag=1)
            n += 1
        return n

    eng = Engine(nprocs, cori_aries(), trace=True, faults=plan)
    return eng.run(prog), eng.trace


class TestDeterminism:
    def test_same_seed_byte_identical_trace(self):
        a, ta = ring_with_plan(FaultPlan(**FAULTY))
        b, tb = ring_with_plan(FaultPlan(**FAULTY))
        assert a.makespan == b.makespan
        assert trace_to_csv(ta) == trace_to_csv(tb)
        assert a.rank_results == b.rank_results

    def test_different_seed_differs(self):
        _, ta = ring_with_plan(FaultPlan(**FAULTY))
        _, tb = ring_with_plan(FaultPlan(**{**FAULTY, "seed": 12}))
        assert trace_to_csv(ta) != trace_to_csv(tb)

    def test_null_plan_identical_to_no_plan(self):
        clean, tc = ring_with_plan(None)
        null, tn = ring_with_plan(FaultPlan(seed=5))  # all rates zero
        assert clean.makespan == null.makespan
        assert trace_to_csv(tc) == trace_to_csv(tn)

    def test_fate_is_pure_function_of_index(self):
        plan = FaultPlan(**FAULTY)
        fates = [plan.message_fate(0, 1, i) for i in range(50)]
        again = [plan.message_fate(0, 1, i) for i in reversed(range(50))]
        assert fates == list(reversed(again))

    def test_fault_events_traced(self):
        res, trace = ring_with_plan(FaultPlan(**FAULTY))
        summary = fault_summary(trace)
        totals = res.counters.fault_totals()
        assert summary.get("drop", 0) == totals["msgs_dropped"] > 0
        assert summary.get("dup", 0) == totals["msgs_duplicated"]


class TestMessageFaults:
    def test_drops_counted(self):
        res, _ = ring_with_plan(FaultPlan(seed=3, drop_rate=0.5))
        totals = res.counters.fault_totals()
        assert totals["msgs_dropped"] > 0
        # 4 ranks x 10 sends minus drops were received
        assert sum(res.rank_results) == 40 - totals["msgs_dropped"]

    def test_dups_deliver_extra_copies(self):
        res, _ = ring_with_plan(FaultPlan(seed=3, dup_rate=0.5))
        totals = res.counters.fault_totals()
        assert totals["msgs_duplicated"] > 0
        assert sum(res.rank_results) == 40 + totals["msgs_duplicated"]

    def test_delay_can_reorder(self):
        plan = FaultPlan(seed=1, delay_rate=0.6, delay_min=1e-5, delay_max=1e-4)

        def prog(ctx):
            if ctx.rank == 0:
                for i in range(30):
                    yield from ctx.isend_g(1, i, tag=1, nbytes=24)
                return None
            ctx.compute(seconds=1e-2)
            got = []
            while (yield from ctx.iprobe_g()) is not None:
                got.append((yield from ctx.recv_g(tag=1)).payload)
            return got

        res = Engine(2, cori_aries(), faults=plan).run(prog)
        got = res.rank_results[1]
        assert len(got) == 30  # nothing lost
        assert got != sorted(got)  # delays broke FIFO ordering

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_min=2.0, delay_max=1.0, delay_rate=0.1)
        with pytest.raises(ValueError):
            Engine(2, cori_aries(), faults=FaultPlan(crashes={7: 1.0}))


class TestCrashes:
    def test_crash_records_and_blackholes(self):
        # Detection lags the crash by 1 ms: rank 0's sends depart before
        # it learns of the failure, but arrive after rank 1 is dead.
        plan = FaultPlan(crashes={1: 1e-6}, detect_latency=1e-3)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.compute(seconds=1e-7)
                for i in range(5):
                    yield from ctx.isend_g(1, i, tag=1, nbytes=24)
                return "sent"
            ctx.compute(seconds=1.0)  # never finishes: crashes first
            return "unreachable"

        eng = Engine(2, cori_aries(), faults=plan, trace=True)
        res = eng.run(prog)
        assert res.crashed_ranks == (1,)
        assert res.rank_results[1] is None
        assert res.counters.fault_totals()["crash_blackholed"] == 5
        assert fault_summary(eng.trace).get("crash") == 1

    def test_send_to_detected_dead_raises(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-8)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-3)  # well past detection
            assert ctx.failed_ranks() == frozenset({1})
            with pytest.raises(RankCrashed):
                yield from ctx.isend_g(1, "hi", tag=1, nbytes=8)
            return "ok"

        res = Engine(2, cori_aries(), faults=plan).run(prog)
        assert res.rank_results[0] == "ok"

    def test_directed_recv_from_dead_raises(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-8)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            with pytest.raises(RankCrashed):
                yield from ctx.recv_g(source=1, tag=1)
            return "ok"

        res = Engine(2, cori_aries(), faults=plan).run(prog)
        assert res.rank_results[0] == "ok"

    def test_blocked_rank_wakes_on_notification(self):
        plan = FaultPlan(crashes={1: 1e-6}, detect_latency=1e-7)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            yield from ctx.probe_g(deadline=None)  # woken by the failure event
            return sorted(ctx.failed_ranks())

        res = Engine(2, cori_aries(), faults=plan).run(prog)
        assert res.rank_results[0] == [1]


class TestDegradation:
    def test_degradation_window_slows_traffic(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(50):
                    yield from ctx.isend_g(1, i, tag=1, nbytes=1000)
                return None
            for _ in range(50):
                yield from ctx.recv_g(tag=1)
            return ctx.now

        m = cori_aries()
        clean = Engine(2, m).run(prog)
        slow = Engine(
            2,
            m,
            faults=FaultPlan(
                degradations=(NicDegradation(rank=0, t_start=0.0, t_end=1.0, factor=8.0),)
            ),
        ).run(prog)
        assert slow.makespan > clean.makespan

    def test_nic_factor_outside_window_is_one(self):
        plan = FaultPlan(
            degradations=(NicDegradation(rank=0, t_start=1.0, t_end=2.0, factor=8.0),)
        )
        assert plan.nic_factor(0, 0.5) == 1.0
        assert plan.nic_factor(0, 1.5) == 8.0
        assert plan.nic_factor(1, 1.5) == 1.0


class TestDeadlockDump:
    def test_dump_has_queue_depth_and_last_event(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.isend_g(1, "x", tag=9, nbytes=8)
            yield from ctx.recv_g(tag=5)  # wrong tag on both ranks: deadlock
            return None

        with pytest.raises(DeadlockError) as ei:
            Engine(2, cori_aries(), trace=True).run(prog)
        err = ei.value
        assert err.details is not None
        assert err.details[1]["queue_depth"] == 1  # the tag-9 message sits queued
        assert "queue depth" in str(err)
        assert err.details[0]["last_event"] is not None
