"""Crash-aware collectives: failure detection inside rendezvous,
survivor agreement, topology shrink/rebuild, and scope revocation."""

import pytest

from repro.mpisim import (
    DeadlockError,
    Engine,
    FaultPlan,
    RankCrashed,
    cori_aries,
)


def run_plan(p, fn, plan, **kw):
    return Engine(p, cori_aries(), faults=plan, **kw).run(fn)


class TestCrashAwareFullCollectives:
    def test_allreduce_with_crashed_member_raises_not_hangs(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)  # killed long before this finishes
                return "unreachable"
            ctx.compute(seconds=1e-5)  # enter after the crash
            try:
                return (yield from ctx.allreduce_g(1))
            except RankCrashed as e:
                return ("crashed", e.rank)

        res = run_plan(4, prog, plan)
        for r in (0, 2, 3):
            assert res.rank_results[r] == ("crashed", 1)
        assert res.rank_results[1] is None

    def test_survivor_blocked_before_crash_wakes_on_notification(self):
        # Rank 0 enters the barrier immediately, long before rank 1 dies;
        # it must be woken by the failure notification, not hang.
        plan = FaultPlan(crashes={1: 5e-5}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            try:
                yield from ctx.barrier_g()
                return "done"
            except RankCrashed as e:
                return ("crashed", e.rank, round(ctx.now, 9) >= 5e-5)

        res = run_plan(3, prog, plan)
        assert res.rank_results[0] == ("crashed", 1, True)
        assert res.rank_results[2] == ("crashed", 1, True)

    def test_unrelated_collective_still_completes(self):
        # All survivors enter; the crashed rank was never a late party
        # because it entered before dying.
        plan = FaultPlan(crashes={2: 1.0}, detect_latency=1e-6)
        res = run_plan(3, lambda ctx: ctx.allreduce_g(ctx.rank), plan)
        assert res.rank_results == [3, 3, 3]


class TestAgreement:
    def test_agree_reduces_over_entrants_only(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            return (yield from ctx.agree_g(10 + ctx.rank, epoch=(1,)))

        res = run_plan(4, prog, plan)
        for r in (0, 2, 3):
            assert res.rank_results[r] == 10 + 12 + 13

    def test_agree_completion_waits_out_detect_latency(self):
        tc, dl = 1e-7, 2e-4
        plan = FaultPlan(crashes={1: tc}, detect_latency=dl)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            yield from ctx.agree_g(1, epoch=(1,))
            return ctx.now

        res = run_plan(3, prog, plan)
        # The rendezvous cannot resolve before the failure detector fires.
        assert res.rank_results[0] >= tc + dl
        assert res.rank_results[0] == res.rank_results[2]

    def test_kill_in_the_scheduler_wakes_a_survivor_parked_on_nothing(self):
        # Rank 0 agrees over epoch (1,) before rank 1 is dead. Woken by
        # the notification it already knew of, it parks again with no
        # wake time at all: the agreement lacks rank 1, and no failure is
        # left unseen. Rank 1 sits in a receive nobody sends to, and dies
        # only when the scheduler reaches its own notification entry. That
        # kill completes the agreement, and only re-indexing the parked
        # ranks after a kill lets rank 0 see it.
        tc, dl = 1e-5, 1e-6
        plan = FaultPlan(crashes={1: tc}, detect_latency=dl)

        def prog(ctx):
            if ctx.rank == 1:
                yield from ctx.recv_g(source=0, tag=7)
                return "unreachable"
            value = yield from ctx.agree_g(5, epoch=(1,))
            return value, ctx.now

        res = run_plan(2, prog, plan)
        value, now = res.rank_results[0]
        assert value == 5 and now > tc + dl  # resolved at the notification
        assert res.rank_results[1] is None

    def test_kill_at_a_yield_wakes_a_survivor_parked_on_nothing(self):
        # As above, but rank 0 consumed rank 1's notification before it
        # entered, so it parks unindexed at once, and rank 1 dies inside
        # its own compute burst rather than in the scheduler.
        plan = FaultPlan(crashes={1: 1e-5}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return "unreachable"
            ctx.compute(seconds=2e-5)
            assert ctx.failed_ranks() == {1}
            value = yield from ctx.agree_g(5, epoch=(1,))
            return value, ctx.now

        res = run_plan(2, prog, plan)
        value, now = res.rank_results[0]
        assert value == 5 and now > 2e-5
        assert res.rank_results[1] is None

    def test_agree_raises_on_failure_outside_epoch(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            try:
                return (yield from ctx.agree_g(1))  # epoch=() -> rank 1's death is news
            except RankCrashed as e:
                return ("crashed", e.rank)

        res = run_plan(3, prog, plan)
        assert res.rank_results[0] == ("crashed", 1)
        assert res.rank_results[2] == ("crashed", 1)

    def test_agree_converges_at_larger_epoch(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            epoch = ()
            while True:
                try:
                    return (yield from ctx.agree_g(ctx.rank, epoch=epoch))
                except RankCrashed as e:
                    epoch = tuple(sorted(set(epoch) | {e.rank}))

        res = run_plan(3, prog, plan)
        assert res.rank_results[0] == 0 + 2
        assert res.rank_results[2] == 0 + 2

    def test_agree_gather_table(self):
        plan = FaultPlan(crashes={0: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            return (yield from ctx.agree_gather_g(("v", ctx.rank), epoch=(0,)))

        res = run_plan(3, prog, plan)
        assert res.rank_results[1] == {1: ("v", 1), 2: ("v", 2)}
        assert res.rank_results[1] == res.rank_results[2]


class TestShrinkRebuild:
    def test_rebuilt_topology_exchanges_over_survivors(self):
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            nbrs = [q for q in range(ctx.nprocs) if q != ctx.rank]
            live = [q for q in nbrs if q != 1]
            topo = yield from ctx.shrink_rebuild_topology_g(live, epoch=(1,))
            assert topo.neighbors == live
            got = yield from topo.neighbor_alltoall_g(
                [ctx.rank * 100 + q for q in live], nbytes_per_item=8
            )
            return sorted(got)

        res = run_plan(4, prog, plan)
        assert res.rank_results[0] == sorted([200 + 0, 300 + 0])
        assert res.rank_results[2] == sorted([0 * 100 + 2, 300 + 2])

    def test_rebuild_raises_for_silent_crash_outside_epoch(self):
        plan = FaultPlan(crashes={2: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 2:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            try:
                yield from ctx.shrink_rebuild_topology_g([q for q in range(3) if q != ctx.rank])
                return "built"
            except RankCrashed as e:
                return ("crashed", e.rank)

        res = run_plan(3, prog, plan)
        assert res.rank_results[0] == ("crashed", 2)
        assert res.rank_results[1] == ("crashed", 2)


class TestRevocation:
    def test_blocked_peer_wakes_on_revoke(self):
        # Rank 0 enters a neighborhood exchange on the old topology and
        # blocks; rank 2 (recovering) revokes the scope instead of ever
        # entering. Rank 0 must raise RankCrashed, not deadlock.
        plan = FaultPlan(crashes={1: 1e-4}, detect_latency=1e-6)

        def prog(ctx):
            nbrs = [q for q in range(ctx.nprocs) if q != ctx.rank]
            live = [q for q in nbrs if q != 1]
            epoch = (1,)
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=2e-4)  # past the crash + detection
            topo = yield from ctx.shrink_rebuild_topology_g(live, epoch=epoch)
            if ctx.rank == 2:
                # Recovery path: abandon the topology without entering.
                ctx.compute(seconds=1e-5)
                ctx.revoke_topology(topo, 1)
                return "revoked"
            try:
                yield from topo.neighbor_alltoall_g([7 for _ in live], nbytes_per_item=8)
                return "exchanged"
            except RankCrashed as e:
                return ("revoked-out", e.rank)

        res = run_plan(4, prog, plan)
        assert res.rank_results[2] == "revoked"
        assert res.rank_results[0] == ("revoked-out", 1)
        assert res.rank_results[3] == ("revoked-out", 1)


class TestDeadlockDumpCollectives:
    def test_dump_names_stalled_collective_members(self):
        # No fault plan: rank 2 simply never enters the barrier.
        def prog(ctx):
            if ctx.rank == 2:
                yield from ctx.recv_g()  # blocks forever
            yield from ctx.barrier_g()

        with pytest.raises(DeadlockError) as ei:
            Engine(3, cori_aries()).run(prog)
        msg = str(ei.value)
        assert "stalled collectives" in msg
        assert "entered=[0, 1]" in msg
        assert "missing=[2]" in msg

    def test_dump_flags_crashed_missing_member(self):
        # Crash plan but a program that ignores RankCrashed and re-enters
        # a fresh collective, stranding the others: the dump must mark
        # the dead rank among the missing.
        plan = FaultPlan(crashes={1: 1e-7}, detect_latency=1e-6)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.compute(seconds=1.0)
                return None
            ctx.compute(seconds=1e-5)
            while True:  # keep swallowing the failure -> guaranteed stall
                try:
                    yield from ctx.allreduce_g(1)
                    return "done"
                except RankCrashed:
                    ctx.compute(seconds=1e-5)

        with pytest.raises(DeadlockError) as ei:
            run_plan(3, prog, plan, max_ops=50_000)
        msg = str(ei.value)
        assert "stalled collectives" in msg
        assert "crashed: [1]" in msg
