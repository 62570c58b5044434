"""Counters, communication matrices, and the energy/memory model."""

import numpy as np
import pytest

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
