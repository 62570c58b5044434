"""Unit tests for the vector engine's burst primitives.

``Context.isend_burst`` and ``Context.recv_burst`` batch whole runs of
homogeneous operations under the token-retention guard: one guard check
and one epilogue amortised over many messages, with the per-message
float arithmetic (clock, comm time, NIC serialization, pair ordering)
replayed in the exact order the scalar path charges it. Their contract
has three faces, each pinned here:

* **opportunism** — they may send/drain *fewer* operations than asked
  (or none at all) whenever the guard cannot prove the rank stays
  minimal; the caller loops with scalar fallbacks. On the scalar
  engine, and under any gate that disables the fast path (tracing,
  operation budgets, faults), they must decline entirely and return
  0 / [].
* **bit-identity** — a program written against the burst API must
  produce exactly the simulation the scalar engine produces: same
  makespan, clocks, op counts, *and switch count* (batching elides
  scheduler work, never scheduler decisions).
* **invisibility** — ``Engine.try_arm_guard`` replays the scheduler's
  own minimality test; arming (or declining to) has no observable
  effect on virtual time or counters.
"""

import pytest

from repro.harness.bench import _drain_storm
from repro.mpisim import Engine, cori_aries

ENGINES = ("coroutine", "vector")


def _run(prog, nprocs, mode, **kw):
    eng = Engine(nprocs, cori_aries(), engine=mode, **kw)
    res = eng.run(prog)
    return res, eng


def _observables(res):
    return (
        res.makespan,
        tuple(res.final_clocks),
        res.total_ops,
        res.scheduler_switches,
        tuple(repr(r) for r in res.rank_results),
    )


@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_drain_storm_bit_identical_across_engines(nprocs):
    # The bench's retention workload, shrunk: bursts engage on the
    # vector engine, scalar generators replay it elsewhere — one
    # simulation, two execution strategies.
    prog = _drain_storm(rounds=3, fan=16, stagger=4e-4)
    fps = {m: _observables(_run(prog, nprocs, m)[0]) for m in ENGINES}
    assert fps["coroutine"] == fps["vector"]


def test_drain_storm_traced_identical_across_engines():
    # Tracing disables the burst fast path (each event must be traced
    # individually); the program must degrade to fused/scalar ops and
    # still match the other engines event for event.
    from repro.mpisim.tracing import time_ordered, trace_to_csv

    prog = _drain_storm(rounds=2, fan=8, stagger=4e-4)
    csvs = set()
    fps = set()
    for m in ENGINES:
        res, eng = _run(prog, 4, m, trace=True)
        fps.add(_observables(res))
        csvs.add(trace_to_csv(time_ordered(eng.trace)))
    assert len(fps) == 1
    assert len(csvs) == 1


def _counting_storm(rounds: int, fan: int, stagger: float):
    """The drain-storm staircase, but ranks report how many operations
    the burst primitives actually absorbed."""

    def prog(ctx):
        peer = ctx.rank ^ 1
        big = ctx.nprocs * stagger
        ctx.compute(seconds=(ctx.rank + 1) * stagger)
        burst_sent = burst_recvd = 0

        def send_all(k):
            nonlocal burst_sent
            payloads = [(k, j) for j in range(fan)]
            i = 0
            while i < fan:
                n = ctx.isend_burst(peer, payloads[i:], nbytes=64)
                burst_sent += n
                i += n
                if i >= fan:
                    break
                yield from ctx.isend_g(peer, payloads[i], nbytes=64)
                i += 1

        def drain(n):
            # recv_burst charges probe+recv per message; the scalar
            # fallback must replay the same sequence (iprobe then recv),
            # or the engines' clocks diverge.
            nonlocal burst_recvd
            while n:
                got = len(ctx.recv_burst(source=peer, limit=n))
                burst_recvd += got
                n -= got
                if not n:
                    break
                hdr = yield from ctx.iprobe_g(source=peer)
                if hdr is not None:
                    yield from ctx.recv_g(source=peer)
                    n -= 1

        for k in range(rounds):
            yield from send_all(k)
            if k:
                yield from drain(fan)
            ctx.compute(seconds=big)
        yield from drain(fan)
        return (burst_sent, burst_recvd)

    return prog


def test_bursts_engage_on_vector_only():
    prog = _counting_storm(rounds=3, fan=16, stagger=4e-4)

    res_v, _ = _run(prog, 4, "vector")
    sent = sum(s for s, _ in res_v.rank_results)
    recvd = sum(r for _, r in res_v.rank_results)
    # The staircase keeps each rank minimal through its bursts: the
    # guard must absorb the overwhelming majority of the traffic.
    total = 4 * 3 * 16
    assert sent > total // 2, (sent, total)
    assert recvd > total // 4, (recvd, total)

    # Scalar engine: the same program text, zero burst absorption.
    res, _ = _run(prog, 4, "coroutine")
    assert res.rank_results == [(0, 0)] * 4
    assert res.makespan == res_v.makespan
    assert res.total_ops == res_v.total_ops
    assert res.scheduler_switches == res_v.scheduler_switches


def test_bursts_decline_under_trace_and_budgets():
    # Every fast-path gate forces the burst calls to return 0/[] so the
    # scalar fallbacks keep the run well-defined.
    prog = _counting_storm(rounds=2, fan=8, stagger=4e-4)
    res, _ = _run(prog, 4, "vector", trace=True)
    assert res.rank_results == [(0, 0)] * 4

    res2, _ = _run(prog, 4, "vector", max_ops=10**9)
    assert res2.rank_results == [(0, 0)] * 4
    assert res2.makespan == res.makespan


def test_try_arm_guard_is_scheduler_invisible():
    # Interleave explicit try_arm_guard probes into an ordinary program:
    # arming must never perturb clocks, counters, or switch counts.
    def prog(ctx):
        peer = ctx.rank ^ 1
        eng = ctx._engine
        for k in range(4):
            eng.try_arm_guard(ctx.rank)
            yield from ctx.isend_g(peer, k, nbytes=32)
            eng.try_arm_guard(ctx.rank)
            ctx.compute(seconds=1e-5 * (ctx.rank + 1))
            yield from ctx.recv_g(source=peer)
        return ctx.rank

    probing, _ = _run(prog, 4, "vector")

    def plain(ctx):
        peer = ctx.rank ^ 1
        for k in range(4):
            yield from ctx.isend_g(peer, k, nbytes=32)
            ctx.compute(seconds=1e-5 * (ctx.rank + 1))
            yield from ctx.recv_g(source=peer)
        return ctx.rank

    base, _ = _run(plain, 4, "vector")
    assert _observables(probing) == _observables(base)
    # ...and on a non-vector engine the probe is a guaranteed no-op.
    scalar, _ = _run(prog, 4, "coroutine")
    assert _observables(scalar) == _observables(base)
