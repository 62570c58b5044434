"""RMA window semantics: puts, visibility, flush, accumulate, get."""

import pickle

import numpy as np
import pytest

from repro.mpisim import Engine, RankFailure, cori_aries, zero_latency
from repro.mpisim.faults import FaultPlan


def test_put_visible_after_flush_and_barrier():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(4)
        if ctx.rank == 1:
            yield from win.put_g(0, np.array([7, 8]), 1)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        if ctx.rank == 0:
            yield from win.sync_local_g()
            return win.local.tolist()

    res = Engine(2, zero_latency()).run(prog)
    assert res.rank_results[0] == [0, 7, 8, 0]


def test_put_not_visible_before_arrival():
    """Target syncing 'before' the put's network arrival sees nothing."""

    def prog2(ctx):
        win = yield from ctx.win_allocate_g(2)
        if ctx.rank == 1:
            ctx.compute(seconds=1.0)
            yield from win.put_g(0, np.array([5]), 0)
            yield from win.flush_all_g()
        out = None
        if ctx.rank == 0:
            yield from win.sync_local_g()
            early = win.local.tolist()
            ctx.compute(seconds=5.0)
            yield from win.sync_local_g()
            late = win.local.tolist()
            out = (early, late)
        yield from ctx.barrier_g()
        return out

    res = Engine(2, cori_aries()).run(prog2)
    assert res.rank_results[0] == ([0, 0], [5, 0])


def test_put_ordering_last_writer_wins():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(1)
        if ctx.rank == 1:
            yield from win.put_g(0, np.array([1]), 0)
            ctx.compute(seconds=0.1)
            yield from win.put_g(0, np.array([2]), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        if ctx.rank == 0:
            yield from win.sync_local_g()
            return int(win.local[0])

    res = Engine(2, cori_aries()).run(prog)
    assert res.rank_results[0] == 2


def test_accumulate_sums():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(1)
        if ctx.rank != 0:
            yield from win.accumulate_g(0, np.array([ctx.rank]), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        if ctx.rank == 0:
            yield from win.sync_local_g()
            return int(win.local[0])

    res = Engine(4, zero_latency()).run(prog)
    assert res.rank_results[0] == 6


def test_put_out_of_bounds():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(2)
        if ctx.rank == 0:
            yield from win.put_g(1, np.array([1, 2, 3]), 0)
        yield from ctx.barrier_g()

    with pytest.raises(RankFailure):
        Engine(2, zero_latency()).run(prog)


def test_asymmetric_window_sizes():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(8 if ctx.rank == 0 else 0)
        if ctx.rank == 1:
            yield from win.put_g(0, np.arange(8), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        if ctx.rank == 0:
            yield from win.sync_local_g()
            return win.local.tolist()

    res = Engine(2, zero_latency()).run(prog)
    assert res.rank_results[0] == list(range(8))


def test_get_reads_remote():
    def prog2(ctx):
        win = yield from ctx.win_allocate_g(4, fill=0)
        if ctx.rank == 0:
            win.local[:] = [9, 8, 7, 6]
        yield from ctx.barrier_g()
        out = None
        if ctx.rank == 1:
            out = (yield from win.get_g(0, 1, 2)).tolist()
        yield from ctx.barrier_g()
        return out

    res = Engine(2, zero_latency()).run(prog2)
    assert res.rank_results[1] == [8, 7]


def test_flush_advances_clock_past_put_completion():
    m = cori_aries()

    def prog2(ctx):
        win = yield from ctx.win_allocate_g(1024)
        out = None
        if ctx.rank == 0:
            t0 = ctx.now
            yield from win.put_g(1, np.zeros(1000, dtype=np.int64), 0)
            yield from win.flush_all_g()
            out = ctx.now - t0
        yield from ctx.barrier_g()
        return out

    res = Engine(2, m).run(prog2)
    dt = res.rank_results[0]
    # flush must wait for wire serialization of 8000 bytes + latency
    assert dt >= m.alpha + 8000 * m.beta


def test_rma_counters_and_memory():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(4)
        if ctx.rank == 0:
            yield from win.put_g(1, np.array([1]), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        win.free()

    res = Engine(2, zero_latency()).run(prog)
    rc = res.counters.ranks[0]
    assert rc.puts == 1
    assert rc.flushes == 1
    assert rc.bytes_put == 8
    assert res.counters.rma.counts[0, 1] == 1
    assert rc.allocations.get("rma-window", 0) == 0  # freed
    assert rc.peak_bytes >= 32  # window existed


def test_get_out_of_bounds():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(4)
        yield from ctx.barrier_g()
        if ctx.rank == 1:
            yield from win.get_g(0, 2, 10)
        yield from ctx.barrier_g()

    with pytest.raises(RankFailure):
        Engine(2, zero_latency()).run(prog)


def test_get_sees_arrived_pending_without_consuming():
    """A get overlays pending transfers but must not apply them (the
    target's own sync_local later applies them normally)."""

    def prog(ctx):
        win = yield from ctx.win_allocate_g(2)
        if ctx.rank == 1:
            yield from win.put_g(0, np.array([7]), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        out = None
        if ctx.rank == 1:
            seen = (yield from win.get_g(0, 0, 1)).tolist()
            out = ("get", seen)
        yield from ctx.barrier_g()
        if ctx.rank == 0:
            applied = yield from win.sync_local_g()
            out = ("sync", applied, win.local.tolist())
        return out

    res = Engine(2, zero_latency()).run(prog)
    assert res.rank_results[1] == ("get", [7])
    assert res.rank_results[0] == ("sync", 1, [7, 0])


def test_accumulate_then_get_combined():
    def prog(ctx):
        win = yield from ctx.win_allocate_g(1, fill=10)
        if ctx.rank == 1:
            yield from win.accumulate_g(0, np.array([5]), 0)
            yield from win.flush_all_g()
        yield from ctx.barrier_g()
        out = None
        if ctx.rank == 1:
            out = int((yield from win.get_g(0, 0, 1))[0])
        yield from ctx.barrier_g()
        return out

    res = Engine(2, zero_latency()).run(prog)
    assert res.rank_results[1] == 15


@pytest.mark.parametrize("fate", ["ok", "drop", "corrupt"])
def test_tuple_and_array_payloads_are_one_transfer(fate):
    """A put of a tuple and a put of an int64 array with the same words
    are the same transfer under every fate: the same target buffer, and
    a window store that pickles to the same bytes (recovery charges
    virtual time by a cut's pickled size)."""
    plan = {
        "ok": None,
        "drop": FaultPlan(seed=1, rma_drop_rate=1.0),
        "corrupt": FaultPlan(seed=1, rma_corrupt_rate=1.0),
    }[fate]
    words = (7, -8, 2**40)

    def run(payload):
        def prog(ctx):
            win = yield from ctx.win_allocate_g(4)
            if ctx.rank == 1:
                yield from win.put_g(0, payload, 1)
                yield from win.flush_all_g()
            yield from ctx.barrier_g()
            if ctx.rank == 0:
                store = pickle.dumps(win._store)
                yield from win.sync_local_g()
                return store, win.local.tolist()

        return Engine(2, cori_aries(), faults=plan).run(prog).rank_results[0]

    array = np.array(words, dtype=np.int64)
    store, buf = run(words)
    assert (store, buf) == run(array)
    assert array.tolist() == list(words)  # the caller's array is untouched
    pending = pickle.loads(store).pending[0]
    if fate == "drop":
        assert pending == [] and buf == [0, 0, 0, 0]
        return
    (update,) = pending
    assert update.data.dtype == np.int64 and update.data.shape == (3,)
    flipped = sum(a != b for a, b in zip(buf, [0, *words]))
    assert flipped == (1 if fate == "corrupt" else 0)
