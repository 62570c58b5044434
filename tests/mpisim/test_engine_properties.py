"""Property-based tests of the discrete-event engine itself.

Random SPMD programs (each rank follows a seeded script of sends,
receives, computes, and collectives, constructed so they always
terminate) must satisfy:

* bit-identical determinism across runs;
* conservation: messages received == messages sent (after drain);
* virtual-time sanity: makespan bounded below by any rank's serial work
  and nondecreasing in the latency parameter;
* engine equivalence: the coroutine and vector engines produce the
  same full fingerprint (clocks, results, counters, switch count,
  trace) for random programs under random fault plans
  (drop/dup/delay/partition/crash);
* coroutine checkpoint/kill/resume: a run killed mid-flight and resumed
  from its last snapshot under ``engine="coroutine"`` finishes
  bit-identically to the uninterrupted run.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpisim import Engine, FaultPlan, cori_aries, trace_to_csv
from repro.mpisim.counters import CommMatrix
from repro.mpisim.errors import RankCrashed, SimKilled
from repro.mpisim.faults import PartitionWindow
from repro.mpisim.tracing import time_ordered
from repro.util.rng import make_rng

SLOWISH = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def scripted_program(seed: int, rounds: int):
    """Rank program: every round, each rank sends one message to a seeded
    peer, then everyone allreduces the round's total and receives exactly
    the number of messages addressed to it. Always terminates."""

    def prog(ctx):
        rng = make_rng(seed, "script", ctx.rank)
        shared = make_rng(seed, "script-shared")
        # Everyone derives the same destination table: dests[r][round].
        dests = shared.integers(0, ctx.nprocs, size=(ctx.nprocs, rounds))
        received = 0
        sent = 0
        for k in range(rounds):
            ctx.compute(units=float(rng.integers(0, 50)))
            d = int(dests[ctx.rank, k])
            if d != ctx.rank:
                yield from ctx.isend_g(d, (ctx.rank, k))
                sent += 1
            expected = int(np.sum(dests[:, k] == ctx.rank)) - int(
                dests[ctx.rank, k] == ctx.rank
            )
            for _ in range(expected):
                yield from ctx.recv_g()
                received += 1
            yield from ctx.allreduce_g(1)
        return (sent, received)

    return prog


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    nprocs=st.integers(2, 6),
    rounds=st.integers(1, 8),
)
def test_random_programs_deterministic_and_conserving(seed, nprocs, rounds):
    prog = scripted_program(seed, rounds)
    r1 = Engine(nprocs, cori_aries()).run(prog)
    r2 = Engine(nprocs, cori_aries()).run(prog)
    assert r1.rank_results == r2.rank_results
    assert r1.makespan == r2.makespan
    total_sent = sum(s for s, _ in r1.rank_results)
    total_received = sum(r for _, r in r1.rank_results)
    assert total_sent == total_received
    c = r1.counters
    assert c.total("sends") == total_sent
    assert c.total("recvs") == total_received
    assert c.p2p.total_messages() == total_sent


@SLOWISH
@given(seed=st.integers(0, 2**31), nprocs=st.integers(2, 5))
def test_makespan_monotone_in_latency(seed, nprocs):
    prog = scripted_program(seed, rounds=4)
    fast = cori_aries()
    slow = fast.with_overrides(alpha=fast.alpha * 50)
    t_fast = Engine(nprocs, fast).run(prog).makespan
    t_slow = Engine(nprocs, slow).run(prog).makespan
    assert t_slow >= t_fast


@SLOWISH
@given(seed=st.integers(0, 2**31))
def test_makespan_at_least_serial_compute(seed):
    def prog(ctx):
        rng = make_rng(seed, "work", ctx.rank)
        total = float(rng.integers(100, 1000))
        ctx.compute(units=total)
        yield from ctx.barrier_g()
        return total

    res = Engine(4, cori_aries()).run(prog)
    heaviest = max(res.rank_results)
    assert res.makespan >= heaviest * cori_aries().work_unit


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    nprocs=st.integers(2, 5),
)
def test_time_split_accounts_everything(seed, nprocs):
    prog = scripted_program(seed, rounds=3)
    res = Engine(nprocs, cori_aries()).run(prog)
    compute, comm, idle = res.counters.time_split()
    # per-rank total time never exceeds the makespan
    for rc in res.counters.ranks:
        assert rc.total_time <= res.makespan + 1e-12
    assert compute >= 0 and comm >= 0 and idle >= 0


# ----------------------------------------------------------------------
# engine equivalence: coroutine vs vector under random fault plans
# ----------------------------------------------------------------------
def _fingerprint(res, trace):
    """Every observable of a run, flattened to comparable values."""
    counters = []
    for rc in res.counters.ranks:
        counters.append(
            {
                k: ((v.counts.tobytes(), v.bytes.tobytes())
                    if isinstance(v, CommMatrix) else v)
                for k, v in vars(rc).items()
            }
        )
    matrices = tuple(
        (m.counts.tobytes(), m.bytes.tobytes())
        for m in (res.counters.p2p, res.counters.rma, res.counters.ncl)
    )
    return (
        res.makespan,
        tuple(res.final_clocks),
        tuple(repr(r) for r in res.rank_results),
        res.total_ops,
        res.scheduler_switches,
        tuple(sorted(res.crashed_ranks)),
        counters,
        matrices,
        trace_to_csv(time_ordered(trace)),
    )


def faulty_ring_program(rounds: int):
    """Ring chatter that tolerates drops, dups, delays, partitions, and
    peer crashes: send best-effort, then drain whatever arrived."""

    def prog(ctx):
        nxt = (ctx.rank + 1) % ctx.nprocs
        sent = 0
        for i in range(rounds):
            try:
                yield from ctx.isend_g(nxt, (ctx.rank, i), tag=2, nbytes=24)
                sent += 1
            except RankCrashed:
                pass  # peer already reported dead; keep going
            ctx.compute(seconds=3e-5)
        n = 0
        while (yield from ctx.iprobe_g()) is not None:
            yield from ctx.recv_g(tag=2)
            n += 1
        return (sent, n, sorted(ctx.failed_ranks()))

    return prog


@st.composite
def fault_plans(draw, nprocs):
    """A random FaultPlan mixing message faults, a partition, and a crash."""
    plan = dict(
        seed=draw(st.integers(0, 2**31)),
        drop_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        dup_rate=draw(st.sampled_from([0.0, 0.1, 0.25])),
        delay_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
    )
    if nprocs >= 3 and draw(st.booleans()):
        cut = draw(st.integers(1, nprocs - 1))
        t0 = draw(st.sampled_from([0.0, 5e-5, 2e-4]))
        plan["partitions"] = (
            PartitionWindow(
                t_start=t0,
                t_end=t0 + draw(st.sampled_from([5e-5, 3e-4])),
                groups=(tuple(range(cut)), tuple(range(cut, nprocs))),
            ),
        )
    if draw(st.booleans()):
        plan["crashes"] = {
            draw(st.integers(0, nprocs - 1)):
                draw(st.sampled_from([2e-5, 1e-4, 4e-4]))
        }
    return FaultPlan(**plan)


@st.composite
def faulty_cases(draw):
    nprocs = draw(st.integers(2, 5))
    return nprocs, draw(fault_plans(nprocs)), draw(st.integers(1, 6))


@SLOWISH
@given(case=faulty_cases())
def test_engines_bit_identical_under_random_faults(case):
    """The vector engine replays the coroutine engine's every decision:
    identical fingerprints for random programs under random fault plans."""
    nprocs, plan, rounds = case
    prog = faulty_ring_program(rounds)
    fps = {}
    for mode in ("coroutine", "vector"):
        eng = Engine(nprocs, cori_aries(), trace=True, faults=plan, engine=mode)
        fps[mode] = _fingerprint(eng.run(prog), eng.trace)
    assert fps["coroutine"] == fps["vector"]


@SLOWISH
@given(
    seed=st.integers(0, 2**31),
    nprocs=st.integers(2, 5),
    rounds=st.integers(1, 6),
)
def test_engines_bit_identical_fault_free(seed, nprocs, rounds):
    prog = scripted_program(seed, rounds)
    fps = {}
    for mode in ("coroutine", "vector"):
        eng = Engine(nprocs, cori_aries(), trace=True, engine=mode)
        fps[mode] = _fingerprint(eng.run(prog), eng.trace)
    assert fps["coroutine"] == fps["vector"]


# ----------------------------------------------------------------------
# coroutine checkpoint / kill / resume round-trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["coroutine", "vector"])
@pytest.mark.parametrize("kill_frac", [0.35, 0.8])
def test_coroutine_checkpoint_kill_resume_roundtrip(kill_frac, engine):
    """Under the generator engines: checkpoint, kill mid-run, resume from
    the last surviving snapshot — the finished run is bit-identical to the
    uninterrupted one. The vector engine
    degenerates to scalar stepping while checkpointing yet must produce
    the same snapshot hashes."""
    from repro.graph.generators import rmat_graph
    from repro.matching import RunConfig, run_matching
    from repro.mpisim.checkpoint import CheckpointConfig, CheckpointStore

    g = rmat_graph(7, seed=3)
    interval = 8e-5

    def cfg(**kw):
        return RunConfig(
            engine=engine, trace=True,
            checkpoint=CheckpointConfig(interval=interval,
                                        store=kw.pop("store")),
            **kw,
        )

    ref_store = CheckpointStore()
    ref = run_matching(g, 4, "ncl", config=cfg(store=ref_store))
    assert len(ref_store) > 0

    kill_t = kill_frac * ref.makespan
    kstore = CheckpointStore()
    with pytest.raises(SimKilled) as exc:
        run_matching(g, 4, "ncl", config=cfg(store=kstore, kill_at=kill_t))
    assert exc.value.t >= kill_t
    snap = kstore.latest_before(kill_t)
    assert snap is not None, "kill point must lie past the first cut"
    # the killed run's snapshots are the reference run's, bit for bit
    assert snap.sha256 == ref_store.at_epoch(snap.epoch).sha256

    res = run_matching(
        g, 4, "ncl", config=cfg(store=CheckpointStore(), restore=snap),
    )
    assert np.array_equal(res.mate, ref.mate)
    assert res.weight == ref.weight
    assert res.makespan == ref.makespan
    assert res.engine.final_clocks == ref.engine.final_clocks
