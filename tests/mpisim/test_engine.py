"""Engine-level tests: scheduling, determinism, failures, limits."""

import pytest

from repro.mpisim import (
    DeadlockError,
    Engine,
    RankFailure,
    SimLimitExceeded,
    cori_aries,
    zero_latency,
)


def test_single_rank_runs():
    res = Engine(1, zero_latency()).run(lambda ctx: ctx.rank * 10)
    assert res.rank_results == [0]
    assert res.nprocs == 1


def test_rank_results_in_order():
    res = Engine(5, zero_latency()).run(lambda ctx: ctx.rank)
    assert res.rank_results == [0, 1, 2, 3, 4]


def test_per_rank_args():
    res = Engine(3, zero_latency()).run(
        lambda ctx, shared, mine: (shared, mine),
        args=("s",),
        per_rank_args=[("a",), ("b",), ("c",)],
    )
    assert res.rank_results == [("s", "a"), ("s", "b"), ("s", "c")]


def test_compute_advances_clock():
    def prog(ctx):
        ctx.compute(seconds=1.5)
        return ctx.now

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results == [1.5, 1.5]
    assert res.makespan == pytest.approx(1.5)


def test_determinism_across_runs():
    def prog(ctx):
        total = 0
        for i in range(20):
            yield from ctx.isend_g((ctx.rank + 1) % ctx.nprocs, i)
            total += (yield from ctx.recv_g()).payload
        return (total, ctx.now)

    r1 = Engine(4, cori_aries()).run(prog)
    r2 = Engine(4, cori_aries()).run(prog)
    assert r1.rank_results == r2.rank_results
    assert r1.makespan == r2.makespan


def test_rank_exception_propagates():
    def prog(ctx):
        if ctx.rank == 2:
            raise ValueError("boom")
        yield from ctx.barrier_g()

    with pytest.raises(RankFailure) as ei:
        Engine(4, zero_latency()).run(prog)
    assert ei.value.rank == 2
    assert isinstance(ei.value.original, ValueError)


def test_deadlock_detected_on_missing_sender():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.recv_g(source=1)

    with pytest.raises(DeadlockError) as ei:
        Engine(2, zero_latency()).run(prog)
    assert 0 in ei.value.rank_states


def test_deadlock_detected_on_partial_collective():
    def prog(ctx):
        if ctx.rank != 3:
            yield from ctx.barrier_g()

    with pytest.raises(DeadlockError):
        Engine(4, zero_latency()).run(prog)


def test_max_ops_limit():
    def prog(ctx):
        while True:
            yield from ctx.isend_g((ctx.rank + 1) % 2, 0)
            yield from ctx.recv_g()

    with pytest.raises(SimLimitExceeded):
        Engine(2, zero_latency(), max_ops=500).run(prog)


def test_max_vtime_limit():
    def prog(ctx):
        ctx.compute(seconds=100.0)

    with pytest.raises(SimLimitExceeded):
        Engine(2, zero_latency(), max_vtime=1.0).run(prog)


# ----------------------------------------------------------------------
# diagnostic parity: every run fails the same way with the same dump
# ----------------------------------------------------------------------
class TestEngineFailureParity:
    """Deadlock dumps and budget aborts are deterministic: two runs of
    the same failing program report exactly the same stall info."""

    @staticmethod
    def _deadlock_dump():
        def prog(ctx):  # two-rank recv/recv: classic head-to-head deadlock
            yield from ctx.recv_g(source=(ctx.rank + 1) % 2, tag=9)

        eng = Engine(2, zero_latency(), trace=True)
        with pytest.raises(DeadlockError) as ei:
            eng.run(prog)
        return ei.value

    def test_recv_recv_deadlock_dump_identical(self):
        a = self._deadlock_dump()
        b = self._deadlock_dump()
        assert a.rank_states == b.rank_states
        assert a.details == b.details
        assert a.collectives == b.collectives
        assert str(a) == str(b)
        assert set(a.rank_states) == {0, 1}  # both ranks reported stuck

    def test_partial_collective_dump_identical(self):
        def prog(ctx):
            yield from ()
            if ctx.rank != 2:
                yield from ctx.barrier_g()

        dumps = []
        for _ in range(2):
            with pytest.raises(DeadlockError) as ei:
                Engine(3, zero_latency(), trace=True).run(prog)
            dumps.append(ei.value)
        a, b = dumps
        assert a.collectives == b.collectives
        assert a.collectives and a.collectives[0]["missing"] == [2]
        assert str(a) == str(b)

    @pytest.mark.parametrize(
        "limits", [dict(max_ops=500), dict(max_vtime=1e-4)],
        ids=["max_ops", "max_vtime"],
    )
    def test_budget_abort_identical(self, limits):
        def prog(ctx):  # unbounded ping-pong: trips any budget eventually
            peer = (ctx.rank + 1) % 2
            while True:
                yield from ctx.isend_g(peer, 0)
                yield from ctx.recv_g()

        msgs = []
        for _ in range(2):
            with pytest.raises(SimLimitExceeded) as ei:
                Engine(2, cori_aries(), **limits).run(prog)
            msgs.append(str(ei.value))
        assert msgs[0] == msgs[1]


def test_engine_single_use():
    eng = Engine(2, zero_latency())
    eng.run(lambda ctx: None)
    with pytest.raises(RuntimeError):
        eng.run(lambda ctx: None)


def test_nprocs_validation():
    with pytest.raises(ValueError):
        Engine(0, zero_latency())


def test_alpha_must_be_positive():
    m = zero_latency().with_overrides(alpha=0.0)
    with pytest.raises(ValueError):
        Engine(2, m)


def test_idle_time_accounted():
    """A rank waiting in recv accumulates idle time, not comm time."""

    def prog(ctx):
        if ctx.rank == 0:
            ctx.compute(seconds=1.0)
            yield from ctx.isend_g(1, "late")
        else:
            yield from ctx.recv_g(source=0)

    res = Engine(2, cori_aries()).run(prog)
    rc1 = res.counters.ranks[1]
    assert rc1.idle_time == pytest.approx(1.0, rel=0.01)


def test_makespan_is_max_clock():
    def prog(ctx):
        ctx.compute(seconds=float(ctx.rank))

    res = Engine(4, zero_latency()).run(prog)
    assert res.makespan == pytest.approx(3.0)
