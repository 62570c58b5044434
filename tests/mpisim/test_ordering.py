"""Regression tests for MPI point-to-point ordering (non-overtaking).

A small message enjoys a shorter injection time than a large one; without
an explicit guarantee it would overtake on the wire, which breaks
protocols that use sentinel messages (MPI mandates non-overtaking
ordering per (source, destination) pair). This bit the distributed
coloring code's DONE sentinels before the engine enforced FIFO delivery.
"""

import pytest

from repro.mpisim import Engine, cori_aries, zero_latency


def test_small_message_does_not_overtake_large():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, "big", nbytes=4096)  # long injection
            yield from ctx.isend_g(1, "tiny", nbytes=1)  # would otherwise arrive first
        else:
            first = yield from ctx.recv_g(source=0)
            second = yield from ctx.recv_g(source=0)
            return (first.payload, second.payload)

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[1] == ("big", "tiny")


def test_sentinel_after_burst_is_received_last():
    """The coloring-code pattern: data messages then a DONE sentinel."""

    def prog(ctx):
        if ctx.rank == 0:
            for i in range(20):
                yield from ctx.isend_g(1, i, tag=1, nbytes=64 * (i % 3 + 1))
            yield from ctx.isend_g(1, None, tag=2, nbytes=8)  # DONE
        else:
            got = []
            while True:
                msg = yield from ctx.recv_g(source=0)
                if msg.tag == 2:
                    break
                got.append(msg.payload)
            return got

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[1] == list(range(20))


def test_ordering_independent_pairs_unconstrained():
    """FIFO applies per pair; different senders may interleave freely."""

    def prog(ctx):
        if ctx.rank in (0, 1):
            ctx.compute(seconds=ctx.rank * 1e-6)
            yield from ctx.isend_g(2, ctx.rank)
        elif ctx.rank == 2:
            a = (yield from ctx.recv_g()).payload
            b = (yield from ctx.recv_g()).payload
            return sorted([a, b])

    res = Engine(3, zero_latency()).run(prog)
    assert res.rank_results[2] == [0, 1]


def test_fifo_survives_interleaved_tags():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.isend_g(1, "a1", tag=1, nbytes=2048)
            yield from ctx.isend_g(1, "b1", tag=2, nbytes=8)
            yield from ctx.isend_g(1, "a2", tag=1, nbytes=8)
        else:
            b = yield from ctx.recv_g(source=0, tag=2)
            a1 = yield from ctx.recv_g(source=0, tag=1)
            a2 = yield from ctx.recv_g(source=0, tag=1)
            return (b.payload, a1.payload, a2.payload)

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[1] == ("b1", "a1", "a2")
