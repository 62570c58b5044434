"""Point-to-point semantics: matching, ordering, probing, timing."""

import pytest

from repro.mpisim import ANY_SOURCE, ANY_TAG, Engine, cori_aries, zero_latency


def test_payload_integrity():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, {"k": [1, 2, 3]}, tag=7)
        else:
            m = yield from ctx.recv_g(source=0, tag=7)
            assert m.payload == {"k": [1, 2, 3]}
            assert m.src == 0 and m.tag == 7
            return m.payload

    res = Engine(2, zero_latency()).run(prog)
    assert res.rank_results[1] == {"k": [1, 2, 3]}


def test_fifo_per_sender():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(10):
                yield from ctx.isend_g(1, i)
        else:
            got = []
            for _ in range(10):
                got.append((yield from ctx.recv_g(source=0)).payload)
            assert got == list(range(10))

    Engine(2, cori_aries()).run(prog)


def test_tag_selective_recv():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, "a", tag=1)
            yield from ctx.isend_g(1, "b", tag=2)
        else:
            b = yield from ctx.recv_g(source=0, tag=2)
            a = yield from ctx.recv_g(source=0, tag=1)
            return (a.payload, b.payload)

    res = Engine(2, zero_latency()).run(prog)
    assert res.rank_results[1] == ("a", "b")


def test_any_source_any_tag():
    def prog(ctx):
        if ctx.rank != 0:
            ctx.compute(seconds=ctx.rank * 1e-3)  # stagger arrivals
            yield from ctx.isend_g(0, ctx.rank)
        else:
            got = []
            for _ in range(3):
                msg = yield from ctx.recv_g(source=ANY_SOURCE, tag=ANY_TAG)
                got.append(msg.payload)
            return got

    res = Engine(4, cori_aries()).run(prog)
    # staggered sends arrive in rank order
    assert res.rank_results[0] == [1, 2, 3]


def test_iprobe_respects_arrival_time():
    """A message sent 'now' has arrival > now (alpha > 0), so an immediate
    probe on the receiver at an earlier clock must miss it."""

    def prog(ctx):
        if ctx.rank == 0:
            ctx.compute(seconds=1.0)
            yield from ctx.isend_g(1, "x")
        else:
            early = yield from ctx.iprobe_g()  # rank 1 probes at t~0
            ctx.compute(seconds=2.0)
            late = yield from ctx.iprobe_g()
            return (early, late is not None)

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[1] == (None, True)


def test_probe_fast_forwards():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.compute(seconds=0.5)
            yield from ctx.isend_g(1, "later")
        else:
            yield from ctx.probe_g()
            assert (yield from ctx.iprobe_g()) is not None
            m = yield from ctx.recv_g()
            return ctx.now

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[1] >= 0.5


def test_iprobe_returns_header():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, (1, 2, 3), tag=9, nbytes=24)
        else:
            yield from ctx.probe_g()
            hdr = yield from ctx.iprobe_g()
            assert hdr == (0, 9, 24)
            yield from ctx.recv_g()

    Engine(2, zero_latency()).run(prog)


def test_pingpong_latency_math():
    """One round trip >= 2 * (o_send + alpha + o_recv)."""
    m = cori_aries()

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, 0)
            yield from ctx.recv_g(source=1)
            return ctx.now
        else:
            yield from ctx.recv_g(source=0)
            yield from ctx.isend_g(0, 1)

    res = Engine(2, m).run(prog)
    t = res.rank_results[0]
    assert t >= 2 * (m.o_send + m.alpha + m.o_recv)
    assert t < 50e-6  # and not absurdly larger


def test_counters_track_messages_and_bytes():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, b"abcd", nbytes=4)
            yield from ctx.isend_g(1, b"efgh", nbytes=4)
        else:
            yield from ctx.recv_g()
            yield from ctx.recv_g()

    res = Engine(2, zero_latency()).run(prog)
    c = res.counters
    assert c.ranks[0].sends == 2
    assert c.ranks[0].bytes_sent == 8
    assert c.ranks[1].recvs == 2
    assert c.ranks[1].bytes_received == 8
    assert c.p2p.counts[0, 1] == 2
    assert c.p2p.bytes[0, 1] == 8
    assert c.p2p.counts[1, 0] == 0


def test_queue_memory_is_released():
    def prog(ctx):
        if ctx.rank == 0:
            for _ in range(50):
                yield from ctx.isend_g(1, 1, nbytes=8)
        else:
            for _ in range(50):
                yield from ctx.recv_g()

    res = Engine(2, zero_latency()).run(prog)
    rc = res.counters.ranks[1]
    assert rc.allocations.get("unexpected-queue", 0) == 0
    assert rc.peak_bytes > 0


def test_rendezvous_costs_more_than_eager():
    m = cori_aries()

    def mk(nbytes):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.isend_g(1, b"", nbytes=nbytes)
                return ctx.now
            yield from ctx.recv_g()

        return prog

    small = Engine(2, m).run(mk(64)).rank_results[0]
    big = Engine(2, m).run(mk(m.eager_threshold + 1)).rank_results[0]
    assert big > small
