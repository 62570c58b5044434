"""Tracing and nonblocking neighborhood collectives."""

import pytest

from repro.mpisim import (
    Engine,
    cori_aries,
    events_for_rank,
    summarize_ops,
    time_ordered,
    trace_to_csv,
    zero_latency,
)


def _ring(rank, p):
    return sorted({(rank - 1) % p, (rank + 1) % p})


# -- tracing ----------------------------------------------------------------

def test_trace_records_ops():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, "x")
        elif ctx.rank == 1:
            yield from ctx.recv_g()
        yield from ctx.allreduce_g(1)
        yield from ctx.barrier_g()

    eng = Engine(3, zero_latency(), trace=True)
    eng.run(prog)
    ops = summarize_ops(eng.trace)
    assert ops["send"] == 1
    assert ops["recv"] == 1
    assert ops["allreduce"] == 3
    assert ops["barrier"] == 3


def test_trace_disabled_by_default():
    eng = Engine(2, zero_latency())
    eng.run(lambda ctx: ctx.barrier_g())
    assert eng.trace is None


def test_trace_csv_and_filters():
    def prog(ctx):
        yield from ctx.isend_g((ctx.rank + 1) % 2, ctx.rank)
        yield from ctx.recv_g()

    eng = Engine(2, cori_aries(), trace=True)
    eng.run(prog)
    csv = trace_to_csv(eng.trace)
    assert csv.startswith("time,rank,op,detail")
    assert "send" in csv and "recv" in csv
    r0 = events_for_rank(eng.trace, 0)
    assert all(e.rank == 0 for e in r0)
    ordered = time_ordered(eng.trace)
    times = [e.time for e in ordered]
    assert times == sorted(times)


def test_trace_records_rma_and_ncl():
    import numpy as np

    def prog(ctx):
        win = yield from ctx.win_allocate_g(2)
        if ctx.rank == 0:
            yield from win.put_g(1, np.array([5]), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        topo = yield from ctx.dist_graph_create_adjacent_g(_ring(ctx.rank, ctx.nprocs))
        yield from topo.neighbor_alltoall_g([0] * topo.degree)

    eng = Engine(3, zero_latency(), trace=True)
    eng.run(prog)
    ops = summarize_ops(eng.trace)
    assert ops.get("put") == 1
    assert ops.get("flush") == 1
    assert ops.get("neighbor_alltoall") == 3


# -- nonblocking neighborhood collectives ------------------------------------

def test_ineighbor_alltoallv_semantics():
    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(_ring(ctx.rank, ctx.nprocs))
        req = topo.ineighbor_alltoallv([[ctx.rank] * (q + 1) for q in topo.neighbors])
        ctx.compute(seconds=1e-6)  # overlap window
        items, nbytes = yield from req.wait_g()
        for q, item in zip(topo.neighbors, items):
            assert item == [q] * (ctx.rank + 1)
        return True

    res = Engine(5, zero_latency()).run(prog)
    assert all(res.rank_results)


def test_ineighbor_wait_twice_rejected():
    from repro.mpisim.errors import RankFailure

    def prog(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(_ring(ctx.rank, ctx.nprocs))
        req = topo.ineighbor_alltoallv([[1]] * topo.degree)
        yield from req.wait_g()
        yield from req.wait_g()

    with pytest.raises(RankFailure):
        Engine(3, zero_latency()).run(prog)


def test_overlap_hides_wire_time():
    """With enough local compute between issue and wait, the nonblocking
    exchange completes (almost) for free compared to the blocking one."""
    m = cori_aries()
    payload = [list(range(512))] * 2  # 4 KiB per neighbor

    def blocking(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(_ring(ctx.rank, ctx.nprocs))
        for _ in range(20):
            ctx.compute(seconds=50e-6)
            yield from topo.neighbor_alltoallv_g([payload[0]] * topo.degree)
        return ctx.now

    def nonblocking(ctx):
        topo = yield from ctx.dist_graph_create_adjacent_g(_ring(ctx.rank, ctx.nprocs))
        for _ in range(20):
            req = topo.ineighbor_alltoallv([payload[0]] * topo.degree)
            ctx.compute(seconds=50e-6)
            yield from req.wait_g()
        return ctx.now

    t_block = Engine(4, m).run(blocking).makespan
    t_nonblock = Engine(4, m).run(nonblocking).makespan
    assert t_nonblock < t_block


def test_incl_backend_listed():
    from repro.matching import BACKENDS

    assert "incl" in BACKENDS


def test_trace_csv_escapes_adversarial_detail():
    """Regression: detail values with CSV/key=value structure characters
    (commas, semicolons, '=', newlines, '%') used to break the row
    format; now they are percent-escaped and round-trip exactly."""
    from repro.mpisim.tracing import TraceEvent, trace_from_csv, trace_to_csv

    events = [
        TraceEvent(0.125, 0, "agree", {"members": (0, 1, 2), "note": "a,b"}),
        TraceEvent(0.25, 1, "deadlock", {"dump": "r0=wait;\nr1=x%25,y"}),
        TraceEvent(0.5, 2, "send", {"k=v": "=;,%\r\n", "n": 3, "f": 0.1}),
    ]
    csv = trace_to_csv(events)
    lines = csv.strip().split("\n")
    assert lines[0] == "time,rank,op,detail"
    assert len(lines) == 1 + len(events)  # newlines in detail stay escaped
    for ln in lines[1:]:
        assert len(ln.split(",", 3)) == 4
    assert trace_from_csv(csv) == events


def test_trace_csv_round_trips_real_run():
    def prog(ctx):
        yield from ctx.isend_g((ctx.rank + 1) % 2, (ctx.rank, "x"))
        yield from ctx.recv_g()
        yield from ctx.barrier_g()

    eng = Engine(2, cori_aries(), trace=True)
    eng.run(prog)
    from repro.mpisim.tracing import trace_from_csv

    events = time_ordered(eng.trace)
    assert trace_from_csv(trace_to_csv(events)) == events
