"""Persistent requests, irecv/waitall, and the message aggregator:
flush-policy edge cases, crash handling, wire accounting."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.mpisim import Engine, FaultPlan, MessageAggregator, cori_aries
from repro.mpisim.machine import zero_latency
from repro.mpisim.reliable import SEQ_HEADER_BYTES, ReliableChannel


# ----------------------------------------------------------------------
# persistent requests and nonblocking receives
# ----------------------------------------------------------------------
class TestPersistentRequests:
    def test_send_init_start_delivers(self):
        def prog(ctx):
            if ctx.rank == 0:
                req = yield from ctx.send_init_g(1, tag=9)
                for i in range(5):
                    yield from req.start_g(i, nbytes=24)
                assert req.starts == 5
                yield from req.wait_g()  # eager: free, never blocks
            else:
                got = []
                for _ in range(5):
                    got.append((yield from ctx.recv_g(source=0, tag=9)).payload)
                return got

        res = Engine(2, cori_aries()).run(prog)
        assert res.rank_results[1] == [0, 1, 2, 3, 4]
        assert res.counters.ranks[0].persistent_starts == 5

    def test_persistent_start_cheaper_than_isend(self):
        """o_send_start < o_send, so N persistent sends finish earlier on
        the sender's clock than N plain isends of the same messages."""

        def run(persistent):
            def prog(ctx):
                if ctx.rank == 0:
                    if persistent:
                        req = yield from ctx.send_init_g(1)
                        for i in range(50):
                            yield from req.start_g(i, nbytes=24)
                    else:
                        for i in range(50):
                            yield from ctx.isend_g(1, i, nbytes=24)
                    return ctx.now
                for _ in range(50):
                    yield from ctx.recv_g(source=0)

            return Engine(2, cori_aries()).run(prog).rank_results[0]

        assert run(persistent=True) < run(persistent=False)

    def test_irecv_test_wait(self):
        def prog(ctx):
            if ctx.rank == 0:
                req = ctx.irecv(source=1, tag=3)
                assert (yield from req.test_g()) is None  # nothing sent yet
                assert not req.complete
                yield from ctx.recv_g(source=1, tag=1)  # sync: peer sent tag-3 first
                msg = yield from req.wait_g()
                assert req.complete and (yield from req.test_g()) is msg
                return msg.payload
            yield from ctx.isend_g(0, "payload", tag=3)
            yield from ctx.isend_g(0, "go", tag=1)

        res = Engine(2, cori_aries()).run(prog)
        assert res.rank_results[0] == "payload"

    def test_waitall_mixed_requests(self):
        def prog(ctx):
            if ctx.rank == 0:
                reqs = [ctx.irecv(source=1, tag=t) for t in (1, 2)]
                send = yield from ctx.send_init_g(1, tag=5)
                yield from send.start_g("x", nbytes=8)
                done = yield from ctx.waitall_g(reqs + [send])
                return [m.payload for m in done[:2]]
            yield from ctx.isend_g(0, "a", tag=1)
            yield from ctx.isend_g(0, "b", tag=2)
            yield from ctx.recv_g(source=0, tag=5)

        res = Engine(2, cori_aries()).run(prog)
        assert res.rank_results[0] == ["a", "b"]


# ----------------------------------------------------------------------
# aggregator flush policy
# ----------------------------------------------------------------------
def agg_pair(sender, *, nprocs=2, machine=None, faults=None, trace=False):
    """Run ``sender`` on rank 0 against a drain-everything rank 1."""

    def prog(ctx):
        if ctx.rank == 0:
            return (yield from sender(ctx))
        got = []
        agg = ctx.aggregator()
        yield from ctx.probe_g(deadline=ctx.now + 1.0)
        while (yield from ctx.iprobe_g()) is not None:
            yield from agg.poll_g(
                lambda src, tag, payload: got.append((src, tag, payload)))
        return got

    eng = Engine(nprocs, machine or cori_aries(), faults=faults, trace=trace)
    return eng.run(prog)


class TestFlushPolicy:
    def test_count_threshold_boundary(self):
        """Exactly flush_count appends trigger the flush; one fewer stays."""

        def sender(ctx):
            agg = ctx.aggregator(flush_count=3)
            yield from agg.append_g(1, 0, "a", 24)
            yield from agg.append_g(1, 0, "b", 24)
            assert agg.pending_messages() == 2  # below threshold: buffered
            yield from agg.append_g(1, 0, "c", 24)
            assert agg.pending_messages() == 0  # reaching it flushed
            assert ctx.counters().agg_batches == 1
            assert ctx.counters().agg_msgs_coalesced == 3

        res = agg_pair(sender)
        assert [p for _, _, p in res.rank_results[1]] == ["a", "b", "c"]

    def test_byte_threshold_boundary(self):
        """payload_bytes == flush_bytes flushes (>=, not >)."""

        def sender(ctx):
            agg = ctx.aggregator(flush_bytes=48)
            yield from agg.append_g(1, 0, "a", 24)
            assert agg.pending_bytes() == 24
            yield from agg.append_g(1, 0, "b", 24)  # lands exactly on the threshold
            assert agg.pending_messages() == 0
            assert ctx.counters().agg_batches == 1

        agg_pair(sender)

    def test_empty_flush_is_a_noop(self):
        def sender(ctx):
            agg = ctx.aggregator()
            assert (yield from agg.flush_g(1)) == 0
            assert (yield from agg.flush_all_g()) == 0
            rc = ctx.counters()
            assert rc.agg_batches == 0 and rc.sends == 0

        res = agg_pair(sender)
        assert res.rank_results[1] == []

    def test_invalid_thresholds_rejected(self):
        def sender(ctx):
            with pytest.raises(ValueError):
                ctx.aggregator(flush_bytes=0)
            with pytest.raises(ValueError):
                ctx.aggregator(flush_count=-1)
            yield from ()  # agg_pair delegates to a generator

        agg_pair(sender)

    def test_explicit_flush_order_and_delivery(self):
        """flush_all ships lanes in sorted destination order and receivers
        see messages in per-source append order."""

        def prog(ctx):
            if ctx.rank == 0:
                agg = ctx.aggregator()
                for i in range(4):
                    yield from agg.append_g(2, i, f"to2-{i}", 24)
                    yield from agg.append_g(1, i, f"to1-{i}", 24)
                assert (yield from agg.flush_all_g()) == 8
                assert agg.pending_messages() == 0
            else:
                got = []
                agg = ctx.aggregator()
                while len(got) < 4:
                    yield from agg.poll_g(lambda s, t, p: got.append((t, p)))
                    if len(got) < 4:
                        yield from ctx.probe_g()
                return got

        res = Engine(3, cori_aries()).run(prog)
        assert res.rank_results[1] == [(i, f"to1-{i}") for i in range(4)]
        assert res.rank_results[2] == [(i, f"to2-{i}") for i in range(4)]

    def test_wire_accounting(self):
        """One batch = one wire message of payload + per-msg framing bytes,
        and bytes_saved records the avoided envelopes minus the framing."""

        def sender(ctx):
            agg = ctx.aggregator()
            for i in range(4):
                yield from agg.append_g(1, 0, i, 24)
            yield from agg.flush_all_g()
            m = ctx.machine
            rc = ctx.counters()
            assert rc.sends == 1
            wire = 4 * 24 + 4 * m.agg_submsg_header_bytes
            assert rc.agg_batch_bytes == wire
            assert rc.bytes_sent == wire  # one wire message, batch-sized
            assert rc.agg_bytes_saved == (
                3 * m.header_bytes - 4 * m.agg_submsg_header_bytes
            )

        res = agg_pair(sender)
        rc1 = res.rank_results and res.counters.ranks[1]
        assert rc1.agg_batches_received == 1
        assert rc1.agg_msgs_delivered == 4

    def test_singleton_batch_saves_nothing(self):
        """k=1 batches save negative header bytes — honest, unclamped."""

        def sender(ctx):
            agg = ctx.aggregator()
            yield from agg.append_g(1, 0, "only", 24)
            yield from agg.flush_all_g()
            assert ctx.counters().agg_bytes_saved == (
                -ctx.machine.agg_submsg_header_bytes
            )

        agg_pair(sender)


# ----------------------------------------------------------------------
# crash awareness
# ----------------------------------------------------------------------
class TestCrashHandling:
    def test_append_to_detected_dead_rank_drops(self):
        plan = FaultPlan(crashes={1: 1e-6}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 0:
                agg = ctx.aggregator()
                ctx.compute(seconds=1e-3)  # well past crash + detection
                assert ctx.is_failed(1)
                yield from agg.append_g(1, 0, "lost", 24)
                rc = ctx.counters()
                assert agg.pending_messages() == 0  # never buffered
                assert rc.agg_dropped_dead == 1 and rc.sends == 0
            else:
                ctx.compute(seconds=1.0)  # killed at 1e-6

        Engine(2, cori_aries(), faults=plan).run(prog)

    def test_flush_to_crashed_rank_drops_buffer(self):
        """Messages buffered before detection are dropped at flush time."""
        plan = FaultPlan(crashes={1: 1e-6}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 0:
                agg = ctx.aggregator()
                yield from agg.append_g(1, 0, "a", 24)  # buffered: crash not detected yet
                yield from agg.append_g(1, 0, "b", 24)
                assert agg.pending_messages() == 2
                ctx.compute(seconds=1e-3)
                assert (yield from agg.flush_g(1)) == 0
                rc = ctx.counters()
                assert rc.agg_dropped_dead == 2
                assert rc.sends == 0 and rc.agg_batches == 0
            else:
                ctx.compute(seconds=1.0)

        Engine(2, cori_aries(), faults=plan).run(prog)

    def test_drop_rank_discards_lane(self):
        plan = FaultPlan(crashes={1: 1e-6}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 0:
                agg = ctx.aggregator()
                yield from agg.append_g(1, 0, "a", 24)
                ctx.compute(seconds=1e-3)
                assert agg.drop_rank(1) == 1
                assert agg.drop_rank(1) == 0  # idempotent
                assert ctx.counters().agg_dropped_dead == 1
            else:
                ctx.compute(seconds=1.0)

        Engine(2, cori_aries(), faults=plan).run(prog)


# ----------------------------------------------------------------------
# batches over the reliable channel
# ----------------------------------------------------------------------
class TestReliableBatches:
    def test_dup_faults_deliver_each_message_once_in_order(self):
        """Every rank sends ten messages to every other through lanes
        that flush every three; with nine in ten messages duplicated,
        each still arrives exactly once and in per-source append order,
        and every channel quiesces."""
        plan = FaultPlan(seed=13, dup_rate=0.9)

        def prog(ctx):
            chan = ReliableChannel(ctx)
            agg = ctx.aggregator(flush_count=3, channel=chan)
            peers = [r for r in range(ctx.nprocs) if r != ctx.rank]
            for i in range(10):
                for peer in peers:
                    yield from agg.append_g(peer, 7, i, 24)
            yield from agg.flush_all_g()
            got = {peer: [] for peer in peers}
            for _ in range(200):
                yield from agg.poll_g(
                    lambda src, tag, p: got[src].append((tag, p)))
                yield from chan.service_g(ctx.now)
                if sum(map(len, got.values())) == 10 * len(peers) \
                        and chan.idle():
                    return got
                yield from ctx.probe_g(deadline=chan.next_deadline())
            return ("spun-out", got)

        res = Engine(3, cori_aries(), faults=plan).run(prog)
        for rank, got in enumerate(res.rank_results):
            assert got == {peer: [(7, i) for i in range(10)]
                           for peer in range(3) if peer != rank}
        c = res.counters
        assert c.total("dup_suppressed") > 0
        # Four batches per lane (3+3+3+1), each unpacked once.
        assert c.total("agg_batches") == c.total("agg_batches_received") == 24

    def test_total_loss_then_crash_quiesces(self):
        """A batch retransmitted into a network that loses everything,
        until its destination crashes: the owner reaps the pending batch
        and the dead rank's lane, and the channel goes idle. Each
        retransmission resends the whole batch at its original size."""
        plan = FaultPlan(seed=2, drop_rate=1.0, crashes={1: 5e-5},
                         detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)  # killed at 5e-5
                return None
            chan = ReliableChannel(ctx, rto=1e-5, max_retries=50)
            agg = ctx.aggregator(channel=chan)
            for i in range(3):
                yield from agg.append_g(1, 0, i, 24)
            yield from agg.flush_all_g()
            yield from agg.append_g(1, 0, "buffered", 24)  # never flushed
            reaped = 0
            while not chan.idle():
                if 1 in ctx.failed_ranks():
                    reaped = chan.on_rank_failed(1)
                    agg.drop_rank(1)
                    continue
                yield from chan.service_g(ctx.now)
                yield from ctx.probe_g(deadline=chan.next_deadline())
            return reaped

        res = Engine(2, cori_aries(), faults=plan).run(prog)
        assert res.rank_results[0] == 1
        rc = res.counters.ranks[0]
        assert rc.agg_batches == 1 and rc.agg_dropped_dead == 1
        assert 0 < rc.retransmits < 50  # some fired before detection
        batch = 3 * 24 + 3 * cori_aries().agg_submsg_header_bytes
        assert rc.agg_batch_bytes == batch
        assert rc.bytes_sent == (1 + rc.retransmits) * (batch + SEQ_HEADER_BYTES)
        assert res.counters.ranks[1].agg_msgs_delivered == 0


# ----------------------------------------------------------------------
# bookkeeping against brute force
# ----------------------------------------------------------------------
_DESTS = st.integers(1, 5)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), _DESTS, st.integers(1, 40)),
    st.tuples(st.just("flush"), _DESTS),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("drop"), _DESTS),
    st.tuples(st.just("snapshot")),
), max_size=40)


@given(ops=_OPS, flush_count=st.one_of(st.none(), st.integers(1, 4)))
def test_bookkeeping_matches_brute_force(ops, flush_count):
    """The running totals and the non-empty set the aggregator keeps
    agree with sums over its lanes after every operation; ``flush_all_g``
    ships exactly the non-empty lanes, in ascending destination order;
    and a snapshot carries the lanes alone."""

    def check(agg):
        lanes = agg._lanes
        assert agg.pending_messages() == sum(len(ln.entries) for ln in lanes.values())
        assert agg.pending_bytes() == sum(ln.payload_bytes for ln in lanes.values())
        for d in range(1, 6):
            ln = lanes.get(d)
            assert agg.pending_messages(d) == (0 if ln is None else len(ln.entries))

    def prog(ctx):
        if ctx.rank != 0:
            return
        trace = ctx._engine.trace
        agg = ctx.aggregator(flush_count=flush_count)
        for op in ops:
            if op[0] == "append":
                yield from agg.append_g(op[1], 0, "x", op[2])
            elif op[0] == "flush":
                want = agg.pending_messages(op[1])
                assert (yield from agg.flush_g(op[1])) == want
            elif op[0] == "flush_all":
                want = sorted(d for d, ln in agg._lanes.items() if ln.entries)
                first, total = len(trace), agg.pending_messages()
                assert (yield from agg.flush_all_g()) == total
                shipped = [e.detail["dest"] for e in trace[first:]
                           if e.op == "agg-flush"]
                assert shipped == want
            elif op[0] == "drop":
                want = agg.pending_messages(op[1])
                assert agg.drop_rank(op[1]) == want
            else:
                blob = agg.snapshot()
                assert set(blob) == {"lanes"}
                for lane in blob["lanes"].values():
                    assert set(lane) == {"entries", "payload_bytes", "request"}
                agg = ctx.aggregator(flush_count=flush_count)
                agg.restore(pickle.loads(pickle.dumps(blob)))
            check(agg)

    Engine(6, zero_latency(), trace=True).run(prog)


# ----------------------------------------------------------------------
# determinism & deprecation
# ----------------------------------------------------------------------
def test_aggregated_run_is_deterministic():
    def prog(ctx):
        nxt = (ctx.rank + 1) % ctx.nprocs
        agg = ctx.aggregator(flush_count=4)
        for i in range(10):
            yield from agg.append_g(nxt, 0, i, 24)
        yield from agg.flush_all_g()
        got = []
        while len(got) < 10:
            yield from agg.poll_g(lambda s, t, p: got.append(p))
            if len(got) < 10:
                yield from ctx.probe_g()
        return got

    a = Engine(4, cori_aries()).run(prog)
    b = Engine(4, cori_aries()).run(prog)
    assert a.makespan == b.makespan
    assert a.rank_results == b.rank_results


def test_probe_block_alias_warns_and_works():
    # The deprecated alias is gone; probe_g is the one blocking probe.
    def prog(ctx):
        assert not hasattr(ctx, "probe_block")
        if ctx.rank == 0:
            yield from ctx.isend_g(1, "x")
        else:
            yield from ctx.probe_g()
            return (yield from ctx.recv_g(source=0)).payload

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[1] == "x"
