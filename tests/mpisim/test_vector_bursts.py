"""The drain storm: bursty pairwise traffic on the heap and the scan oracle.

Ranks pair up (``rank ^ 1``). An initial per-rank stagger spreads the
clocks into a ladder with spacing ``stagger``; each round a rank sends
``fan`` messages to its partner, drains ``fan`` from it, then charges
``nprocs * stagger`` of compute — jumping from the bottom of the ladder
back to the top. Every send+drain burst therefore runs while the rank is
minimal with a ``stagger``-wide margin: the engine's keep-running
shortcut decides nearly every yield, and the drain busy-polls ``iprobe``
whenever the partner's next message is still in flight. This is the
drain-after-compute pattern of the paper's Send-Recv matching backend,
distilled, and it pins:

* the heap scheduler and the scan oracle (tests/mpisim/scan_oracle.py)
  agree on every virtual observable of the storm;
* tracing is pure instrumentation: a traced storm is the untraced one,
  switch count included, and both schedulers trace it identically.

(The file keeps its name for its test ids; the fast paths it once
exercised are gone.)
"""

import pytest

from repro.mpisim import Engine, cori_aries
from repro.mpisim.tracing import time_ordered, trace_to_csv

from tests.mpisim.scan_oracle import ScanEngine


def drain_storm(rounds: int, fan: int, stagger: float):
    def prog(ctx):
        peer = ctx.rank ^ 1
        big = ctx.nprocs * stagger
        ctx.compute(seconds=(ctx.rank + 1) * stagger)

        def drain(n):
            while n:
                if (yield from ctx.iprobe_g(source=peer)) is not None:
                    yield from ctx.recv_g(source=peer)
                    n -= 1

        for k in range(rounds):
            for j in range(fan):
                yield from ctx.isend_g(peer, (k, j), nbytes=64)
            if k:
                yield from drain(fan)
            ctx.compute(seconds=big)
        yield from drain(fan)
        return ctx.now

    return prog


def _run(prog, nprocs, engine=Engine, **kw):
    eng = engine(nprocs, cori_aries(), **kw)
    return eng.run(prog), eng.trace


def _observables(res):
    return (
        res.makespan,
        tuple(res.final_clocks),
        res.total_ops,
        tuple(res.rank_results),
        res.counters.total("sends"),
        res.counters.total("recvs"),
        res.counters.total("probes"),
    )


# The ids keep the legacy wording: "across engines" now means the heap
# and the scan oracle.
@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_drain_storm_bit_identical_across_engines(nprocs):
    prog = drain_storm(rounds=3, fan=16, stagger=4e-4)
    heap, _ = _run(prog, nprocs)
    ref, _ = _run(prog, nprocs, engine=ScanEngine)
    assert _observables(heap) == _observables(ref)
    assert heap.counters.total("recvs") == nprocs * 3 * 16


def test_drain_storm_traced_identical_across_engines():
    prog = drain_storm(rounds=2, fan=8, stagger=4e-4)
    plain, _ = _run(prog, 4)
    traced, trace = _run(prog, 4, trace=True)
    assert _observables(traced) == _observables(plain)
    assert traced.scheduler_switches == plain.scheduler_switches
    ref, ref_trace = _run(prog, 4, engine=ScanEngine, trace=True)
    assert _observables(ref) == _observables(plain)
    assert trace_to_csv(time_ordered(ref_trace)) == trace_to_csv(
        time_ordered(trace)
    )
