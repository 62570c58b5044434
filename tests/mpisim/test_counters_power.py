"""Counters, communication matrices, and the energy/memory model."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim.counters import CommMatrix, RankCounters, RunCounters
from repro.mpisim.power import PowerModel, energy_report, energy_table


def test_comm_matrix_record_and_totals():
    m = CommMatrix(4)
    m.record(0, 1, 100)
    m.record(0, 1, 50)
    m.record(2, 3, 10)
    assert m.total_messages() == 3
    assert m.total_bytes() == 160
    assert m.counts[0, 1] == 2


@pytest.mark.parametrize("dsts", [[], [2], [0, 1, 3], [4, 1]])
def test_comm_matrix_record_row_equals_record_loop(dsts):
    """The one-op row add is the per-neighbor loop (neighbors are
    distinct), on counts and bytes, including degree 0."""
    nbytes = [0, 24, 2**40][:len(dsts)]
    row, loop = CommMatrix(5), CommMatrix(5)
    for m in (row, loop):
        m.record(3, 1, 7)  # pre-existing traffic accumulates, not overwritten
    for _ in range(2):
        row.record_row(3, np.array(dsts, dtype=np.intp), nbytes)
        for q, nb in zip(dsts, nbytes):
            loop.record(3, q, nb)
    assert np.array_equal(row.counts, loop.counts)
    assert np.array_equal(row.bytes, loop.bytes)
    assert row.counts.dtype == row.bytes.dtype == np.int64


def test_comm_matrix_nonzero_fraction():
    m = CommMatrix(3)
    assert m.nonzero_fraction() == 0.0
    m.record(0, 1, 1)
    assert m.nonzero_fraction() == pytest.approx(1 / 6)
    m.record(1, 1, 1)  # diagonal ignored
    assert m.nonzero_fraction() == pytest.approx(1 / 6)


def test_comm_matrix_merge():
    a, b = CommMatrix(2), CommMatrix(2)
    a.record(0, 1, 5)
    b.record(0, 1, 7)
    c = a.merged_with(b)
    assert c.bytes[0, 1] == 12
    assert a.bytes[0, 1] == 5  # originals untouched


def test_comm_matrix_dense_views_are_read_only_and_ranges_checked():
    m = CommMatrix(3)
    m.record(0, 1, 4)
    with pytest.raises(ValueError):
        m.counts[0, 1] += 1  # a view built per access: writes would be lost
    with pytest.raises(IndexError):
        m.record(0, 3, 1)
    with pytest.raises(IndexError):
        m.record_row(0, np.array([1, 3], dtype=np.intp), [1, 1])


# -- the sparse store against a plain dense reference -----------------------

_P = 6
_rank = st.integers(0, _P - 1)
_nbytes = st.integers(0, 2**40)
_row = st.lists(_rank, unique=True, max_size=_P).flatmap(
    lambda dsts: st.tuples(
        st.just("row"), _rank, st.just(dsts),
        st.lists(_nbytes, min_size=len(dsts), max_size=len(dsts)),
    )
)
_op = st.one_of(
    st.tuples(st.just("one"), _rank, _rank, _nbytes),
    st.tuples(st.just("many"), _rank, _rank, _nbytes, st.integers(1, 9)),
    _row,
)
_ops = st.lists(_op, max_size=30)


class _Dense:
    """What CommMatrix was: two (P, P) arrays written in place."""

    def __init__(self):
        self.counts = np.zeros((_P, _P), dtype=np.int64)
        self.bytes = np.zeros((_P, _P), dtype=np.int64)

    def apply(self, op):
        if op[0] == "row":
            for dst, nbytes in zip(op[2], op[3]):
                self.apply(("one", op[1], dst, nbytes))
        else:
            _, src, dst, nbytes, *rest = op
            count = rest[0] if rest else 1
            self.counts[src, dst] += count
            self.bytes[src, dst] += count * nbytes


def _apply(m, op, arrays):
    """Replay ``op`` on a CommMatrix; a rank's neighbour array is one
    object across calls (the topology's) when ``arrays`` is a dict, a
    fresh equal array per call when it is None."""
    if op[0] == "row":
        dsts = np.array(op[2], dtype=np.intp)
        if arrays is not None:
            dsts = arrays.setdefault((op[1], tuple(op[2])), dsts)
        m.record_row(op[1], dsts, op[3])
    else:
        m.record(*op[1:])


@settings(max_examples=150, deadline=None)
@given(before=_ops, after=_ops, other=_ops)
def test_comm_matrix_equals_a_dense_reference(before, after, other):
    """record / counted record / record_row / merged_with, with a pickle
    round trip in the middle, read back exactly as the dense matrices
    did; and equal histories pickle to equal bytes however they were
    recorded (lanes or pairs, restored or not, merged in either order)."""
    ref, ref_other = _Dense(), _Dense()
    m, straight, m_other = CommMatrix(_P), CommMatrix(_P), CommMatrix(_P)
    arrays = {}
    for op in before:
        _apply(m, op, arrays)
    m = pickle.loads(pickle.dumps(m))  # a restored cut goes on accumulating
    for op in after:
        _apply(m, op, arrays)
    for op in before + after:
        ref.apply(op)
        _apply(straight, op, None)
    for op in other:
        ref_other.apply(op)
        _apply(m_other, op, arrays)
    assert pickle.dumps(m) == pickle.dumps(straight)

    merged = m.merged_with(m_other)
    assert pickle.dumps(merged) == pickle.dumps(m_other.merged_with(straight))
    for got, want_counts, want_bytes in (
        (m, ref.counts, ref.bytes),
        (merged, ref.counts + ref_other.counts, ref.bytes + ref_other.bytes),
    ):
        assert np.array_equal(got.counts, want_counts)
        assert np.array_equal(got.bytes, want_bytes)
        assert got.total_messages() == want_counts.sum()
        assert got.total_bytes() == want_bytes.sum()
        off_diagonal = want_counts[~np.eye(_P, dtype=bool)]
        assert got.nonzero_fraction() == np.count_nonzero(off_diagonal) / (_P * _P - _P)


def test_comm_matrices_at_p16384_cost_what_they_recorded():
    """A few hundred pairs at P=16384 (2 GiB a dense matrix): kilobytes.
    The bound is on the three matrices; RunCounters' 16384 RankCounters
    are 3.7 MB pickled on their own and are not this store's."""
    nprocs = 16384
    tracemalloc.start()
    try:
        mats = [CommMatrix(nprocs) for _ in range(3)]
        ring = np.array([1, nprocs - 1], dtype=np.intp)
        for i in range(300):
            mats[0].record((i * 7919) % nprocs, (i * 104729) % nprocs, 24)
            mats[1].record(i, nprocs - 1 - i, 8, 3)
        for _ in range(50):
            mats[2].record_row(0, ring, [16, 16])
        blob = pickle.dumps(mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blob) < 1 << 20
    assert peak < 5 << 20
    run = RunCounters(nprocs)
    run.p2p, run.rma, run.ncl = pickle.loads(blob)
    assert run.combined_matrix().total_messages() == 300 + 900 + 100


@pytest.mark.parametrize("model", ["nsr", "ncl"])
def test_a_run_at_p256_holds_no_dense_matrix(model, monkeypatch):
    """What `api.run` keeps per run is the pairs that talked: no dense
    view is built on the run path, and the store holds no 2-D array."""
    from repro import api
    from repro.graph.generators import rmat_graph

    def no_dense(self, which):
        raise AssertionError("dense view built on the run path")

    nprocs = 256
    with monkeypatch.context() as patched:
        patched.setattr(CommMatrix, "_dense", no_dense)
        rec = api.run(rmat_graph(10, seed=1), nprocs, model, keep_result=True)
    c = rec.result.counters
    for mat in (c.p2p, c.rma, c.ncl):
        held = [2 * len(mat._messages)]
        held += [a.size for lanes in mat._lanes.values()
                 for lane in lanes for a in lane]
        assert all(a.ndim == 1 for lanes in mat._lanes.values()
                   for lane in lanes for a in lane)
        # [messages, bytes] per pair, (dsts, messages, bytes) per lane slot
        assert sum(held) <= 3 * np.count_nonzero(mat.counts)
    assert rec.messages == sum(
        int(m.counts.sum()) for m in (c.p2p, c.rma, c.ncl)) > 0


def test_rank_counters_alloc_free_peak():
    rc = RankCounters(0)
    rc.alloc(100, "x")
    rc.alloc(200, "y")
    rc.free(100, "x")
    rc.alloc(50, "x")
    assert rc.current_bytes == 250
    assert rc.peak_bytes == 300
    assert rc.allocations["x"] == 50


def test_rank_counters_comm_fraction():
    rc = RankCounters(0)
    rc.compute_time = 1.0
    rc.comm_time = 2.0
    rc.idle_time = 1.0
    assert rc.comm_fraction() == pytest.approx(0.75)
    assert RankCounters(1).comm_fraction() == 0.0


def test_run_counters_aggregates():
    run = RunCounters(3)
    run.ranks[0].compute_time = 1.0
    run.ranks[1].comm_time = 2.0
    run.ranks[2].idle_time = 0.5
    assert run.time_split() == (1.0, 2.0, 0.5)
    run.ranks[1].alloc(1000, "z")
    assert run.max_peak_memory() == 1000
    assert run.avg_peak_memory() == pytest.approx(1000 / 3)


def test_energy_report_basics():
    run = RunCounters(4)
    for rc in run.ranks:
        rc.compute_time = 1.0
        rc.comm_time = 1.0
        rc.alloc(1 << 20, "g")
    rep = energy_report("X", makespan=2.0, counters=run, model=PowerModel(ranks_per_node=4))
    assert rep.nodes == 1
    assert rep.compute_pct == pytest.approx(50.0)
    assert rep.mpi_pct == pytest.approx(50.0)
    assert rep.mem_per_rank_mb == pytest.approx(1.0)
    assert rep.node_energy_kj > 0
    assert rep.edp == pytest.approx(rep.node_energy_kj * 1000 * rep.runtime)


def test_energy_scales_with_runtime():
    run = RunCounters(2)
    for rc in run.ranks:
        rc.compute_time = 1.0
    short = energy_report("s", 1.0, run)
    long = energy_report("l", 4.0, run)
    assert long.node_energy_kj == pytest.approx(4 * short.node_energy_kj)


def test_busy_poll_draws_more_than_idle():
    busy = RunCounters(2)
    idle = RunCounters(2)
    for rc in busy.ranks:
        rc.comm_time = 1.0
    for rc in idle.ranks:
        rc.idle_time = 1.0
    e_busy = energy_report("b", 1.0, busy)
    e_idle = energy_report("i", 1.0, idle)
    assert e_busy.node_energy_kj > e_idle.node_energy_kj


def test_energy_table_renders():
    run = RunCounters(2)
    rep = energy_report("NSR", 1.0, run)
    out = energy_table([rep], "title").render()
    assert "NSR" in out and "EDP" in out


def test_energy_row_renders_kilojoules():
    """Regression: as_row used to render node_energy_kj * 1e3 under a
    "(J)" header — the row must carry kJ and the header must say so."""
    run = RunCounters(4)
    for rc in run.ranks:
        rc.compute_time = 1.0
    model = PowerModel(ranks_per_node=4)
    rep = energy_report("X", makespan=2.0, counters=run, model=model)
    # hand-computed: 1 node, all-compute -> P = p_static + 4 * p_core_active
    watts = model.p_static_node + 4 * model.p_core_active
    assert rep.node_energy_kj == pytest.approx(watts * 2.0 / 1000.0)
    row = rep.as_row()
    assert row[2] == f"{rep.node_energy_kj:.3g}"
    header = energy_table([rep], "t").render().splitlines()[1]
    assert "Node eng.(kJ)" in header
    assert "(J)" not in header.replace("(kJ)", "")


def test_energy_report_time_split_override():
    run = RunCounters(2)
    for rc in run.ranks:
        rc.idle_time = 1.0  # counters say all idle
    base = energy_report("b", 1.0, run)
    hot = energy_report("h", 1.0, run, time_split=(2.0, 0.0, 0.0))
    assert hot.compute_pct == pytest.approx(100.0)
    assert hot.node_energy_kj > base.node_energy_kj


def test_free_underflow_clamped_and_counted():
    """Regression: a double-free used to drive current_bytes negative."""
    rc = RankCounters(0)
    rc.alloc(100, "buf")
    rc.free(100, "buf")
    rc.free(100, "buf")  # double free
    assert rc.current_bytes == 0
    assert rc.allocations["buf"] == 0
    assert rc.free_underflows == 1
    assert rc.underflow_bytes == 100
    # partial underflow releases only the outstanding balance
    rc.alloc(30, "buf")
    rc.free(50, "buf")
    assert rc.current_bytes == 0
    assert rc.free_underflows == 2
    assert rc.underflow_bytes == 120
    # a never-allocated label underflows by the full amount
    rc.free(10, "ghost")
    assert rc.current_bytes == 0
    assert rc.underflow_bytes == 130
