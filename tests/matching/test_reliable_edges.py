"""ReliableChannel edge paths: duplicate ACK arrival, abandonment under
``may_abandon``, and ``on_rank_failed`` mid-retransmit."""

import pytest

from repro.mpisim.reliable import ACK_BYTES, TAG_ACK, ReliableChannel
from repro.mpisim import Engine, FaultPlan, RetryExhausted, cori_aries


def run_plan(p, fn, plan=None):
    return Engine(p, cori_aries(), faults=plan).run(fn)


class TestDuplicateAck:
    def test_duplicate_ack_is_a_noop(self):
        """A re-sent ACK for an already-retired seq must not corrupt the
        pending table (pop of a missing key) or crash."""

        def prog(ctx):
            chan = ReliableChannel(ctx)
            if ctx.rank == 0:
                yield from chan.send_g(1, 5, "payload", nbytes=24)
                ctx.compute(seconds=1e-3)  # let DATA + both ACKs arrive
                got = []
                yield from chan.poll_g(lambda s, t, p: got.append((s, t, p)))
                return (chan.idle(), chan.unacked_count(), got)
            # Rank 1: deliver the DATA (poll acks it), then ack it AGAIN
            # by hand — modelling an ack whose original was presumed lost.
            ctx.compute(seconds=2e-4)
            got = []
            yield from chan.poll_g(lambda s, t, p: got.append((s, t, p)))
            yield from ctx.isend_g(0, 0, tag=TAG_ACK, nbytes=ACK_BYTES)  # duplicate ack
            return got

        res = run_plan(2, prog)
        assert res.rank_results[0] == (True, 0, [])
        assert res.rank_results[1] == [(0, 5, "payload")]

    def test_dup_faults_duplicate_acks_harmlessly(self):
        """With a high dup rate the network re-delivers ACKs; the channel
        must stay consistent and still deliver exactly once."""
        plan = FaultPlan(seed=13, dup_rate=0.9)

        def prog(ctx):
            chan = ReliableChannel(ctx)
            peer = 1 - ctx.rank
            for i in range(10):
                yield from chan.send_g(peer, 1, i, nbytes=24)
            got = []
            for _ in range(200):
                yield from chan.poll_g(lambda s, t, p: got.append(p))
                yield from chan.service_g(ctx.now)
                if len(got) >= 10 and chan.idle():
                    return got
                yield from ctx.probe_g(deadline=chan.next_deadline())
            return ("spun-out", got)

        res = run_plan(2, prog, plan)
        assert res.rank_results[0] == list(range(10))
        assert res.rank_results[1] == list(range(10))
        assert res.counters.total("dup_suppressed") > 0


class TestAbandonment:
    def _silent_peer_prog(self, may_abandon):
        """Rank 0 sends into a network that drops everything; rank 1
        stays alive (so is_failed never reaps) but never acks."""

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1e-2)
                return None
            chan = ReliableChannel(ctx, rto=1e-5, max_retries=3)
            yield from chan.send_g(1, 1, "doomed", nbytes=24)
            while not chan.idle():
                yield from chan.service_g(ctx.now, may_abandon=may_abandon)
                if chan.idle():
                    break
                yield from ctx.probe_g(deadline=chan.next_deadline())
            return (chan.idle(), ctx.counters().abandoned)

        return prog

    def test_may_abandon_gives_up_after_max_retries(self):
        plan = FaultPlan(seed=1, drop_rate=1.0)
        res = run_plan(2, self._silent_peer_prog(may_abandon=True), plan)
        assert res.rank_results[0] == (True, 1)
        assert res.counters.total("retransmits") == 3

    def test_exhaustion_raises_without_may_abandon(self):
        plan = FaultPlan(seed=1, drop_rate=1.0)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1e-2)
                return None
            chan = ReliableChannel(ctx, rto=1e-5, max_retries=2)
            yield from chan.send_g(1, 1, "doomed", nbytes=24)
            try:
                while not chan.idle():
                    yield from chan.service_g(ctx.now, may_abandon=False)
                    yield from ctx.probe_g(deadline=chan.next_deadline())
            except RetryExhausted:
                return "raised"
            return "silent"

        res = run_plan(2, prog, plan)
        assert res.rank_results[0] == "raised"


class TestOnRankFailed:
    def test_discards_unacked_mid_retransmit(self):
        """The peer dies while retransmissions are in flight; the failure
        callback must reap the pending entry so the channel quiesces."""
        plan = FaultPlan(seed=2, drop_rate=1.0, crashes={1: 5e-5},
                        detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            chan = ReliableChannel(ctx, rto=1e-5, max_retries=50)
            yield from chan.send_g(1, 1, "to-the-doomed", nbytes=24)
            reaped = 0
            while not chan.idle():
                if 1 in ctx.failed_ranks():
                    reaped = chan.on_rank_failed(1)
                    continue
                yield from chan.service_g(ctx.now)
                yield from ctx.probe_g(deadline=chan.next_deadline())
            retrans = ctx.counters().retransmits
            return (reaped, retrans, chan.idle())

        res = run_plan(2, prog, plan)
        reaped, retrans, idle = res.rank_results[0]
        assert reaped == 1
        assert idle
        # The crash at 5e-5 with rto 1e-5 means some retransmits fired
        # before detection — the "mid-retransmit" part of the scenario.
        assert 0 < retrans < 50

    def test_service_reaps_dead_peer_without_callback(self):
        """Even without on_rank_failed, service() drops entries for a
        detected-dead destination instead of retrying into a black hole."""
        plan = FaultPlan(seed=2, drop_rate=1.0, crashes={1: 5e-5},
                        detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            chan = ReliableChannel(ctx, rto=1e-5, max_retries=50)
            yield from chan.send_g(1, 1, "to-the-doomed", nbytes=24)
            while not chan.idle():
                yield from chan.service_g(ctx.now)
                if chan.idle():
                    break
                yield from ctx.probe_g(deadline=chan.next_deadline())
            return chan.idle()

        res = run_plan(2, prog, plan)
        assert res.rank_results[0] is True