"""Span profiler: tiling invariant, disabled-path bit-identity, splits.

The engine-level guarantees (docs/profiling.md):

* with ``profile=True``, every rank's spans tile ``[0, makespan]`` with
  *exact* float equality at the boundaries — across p2p, RMA,
  neighborhood-collective, and crash-recovery programs;
* with profiling off (the default), no profiler exists and every
  virtual observable is bit-identical to a profiled run;
* the profile's compute/comm/idle classification reproduces the coarse
  counter split.
"""

import dataclasses

import numpy as np
import pytest

from repro.mpisim import Engine, FaultPlan, cori_aries
from repro.mpisim.machine import get_machine
from repro.mpisim.tracing import (
    FILL_PHASES,
    ProfilingError,
    RunProfile,
    Span,
    SpanRecorder,
)

from tests.mpisim.test_scheduler_differential import (
    crash_survivor,
    neighbor_ring,
    rma_mix,
    scripted,
    tolerant_ring,
)

PROGRAMS = {
    "scripted": (scripted(5, rounds=3), 4, None),
    "tolerant_ring": (tolerant_ring(6), 4, None),
    "rma_mix": (rma_mix, 4, None),
    "neighbor_ring": (neighbor_ring(4), 5, None),
    "crash_survivor": (crash_survivor, 4, FaultPlan(crashes={1: 5e-5})),
}


def run_profiled(name, machine="cori-aries", profile=True):
    prog, nprocs, faults = PROGRAMS[name]
    eng = Engine(nprocs, get_machine(machine), faults=faults, profile=profile)
    return eng.run(prog)


# -- tiling -----------------------------------------------------------------
@pytest.mark.parametrize("machine", ["cori-aries", "commodity", "zero-latency"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_spans_tile_makespan_exactly(name, machine):
    res = run_profiled(name, machine)
    prof = res.profile
    assert prof is not None
    prof.validate_tiling()  # exact-equality invariant
    assert prof.nprocs == len(res.final_clocks)
    assert prof.makespan == res.makespan
    assert prof.final_clocks == res.final_clocks
    # every rank's non-fill time is exactly its final clock
    for r in range(prof.nprocs):
        active = sum(
            s.duration for s in prof.spans[r] if s.phase not in FILL_PHASES
        )
        assert active == pytest.approx(res.final_clocks[r], rel=1e-12, abs=0.0)


def test_crashed_rank_timeline_filled():
    res = run_profiled("crash_survivor")
    prof = res.profile
    assert res.crashed_ranks == (1,)
    assert prof.crashed == (1,)
    phases = {s.phase for s in prof.spans[1]}
    assert "crashed" in phases
    # survivors never use the crash fill phase
    for r in (0, 2, 3):
        assert "crashed" not in {s.phase for s in prof.spans[r]}


# -- disabled path ----------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_profiling_off_is_bit_identical(name):
    on = run_profiled(name, profile=True)
    off = run_profiled(name, profile=False)
    assert off.profile is None
    assert on.profile is not None
    assert on.makespan == off.makespan
    assert on.final_clocks == off.final_clocks
    assert on.rank_results == off.rank_results
    assert on.total_ops == off.total_ops
    assert on.crashed_ranks == off.crashed_ranks
    for rca, rcb in zip(on.counters.ranks, off.counters.ranks):
        assert dataclasses.asdict(rca) == dataclasses.asdict(rcb)
    for mat in ("p2p", "rma", "ncl"):
        np.testing.assert_array_equal(
            getattr(on.counters, mat).counts, getattr(off.counters, mat).counts
        )


def test_profile_off_by_default():
    eng = Engine(2, cori_aries())
    assert eng.profiler is None
    res = eng.run(lambda ctx: ctx.allreduce_g(1))
    assert res.profile is None


# -- classification ---------------------------------------------------------
@pytest.mark.parametrize("name", ["scripted", "rma_mix", "neighbor_ring"])
def test_time_split_matches_counters(name):
    res = run_profiled(name)
    compute, comm, idle = res.profile.time_split()
    c_compute, c_comm, c_idle = res.counters.time_split()
    assert compute == pytest.approx(c_compute, rel=1e-9, abs=1e-18)
    assert comm == pytest.approx(c_comm, rel=1e-9, abs=1e-18)
    assert idle == pytest.approx(c_idle, rel=1e-9, abs=1e-18)


def test_wait_spans_carry_message_deps():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.compute(seconds=1e-4)
            yield from ctx.isend_g(1, "x", nbytes=64)
        else:
            yield from ctx.recv_g(source=0)

    # rank 1 must have a recv-wait span whose dependency is rank 0's send
    eng = Engine(2, cori_aries(), profile=True)
    res = eng.run(prog)
    waits = [s for s in res.profile.spans[1] if s.phase == "recv-wait"]
    assert waits
    dep = [s for s in waits if s.dep_rank == 0 and s.dep_kind == "message"]
    assert dep
    assert dep[0].dep_time <= dep[0].end


# -- recorder / finalize edge cases ----------------------------------------
def test_finalize_raises_on_gap():
    rec = SpanRecorder(1)
    rec.add(0, "compute", 0.0, 1.0)
    rec.add(0, "compute", 2.0, 3.0)  # hole in [1, 2]
    with pytest.raises(ProfilingError):
        rec.finalize((3.0,), 3.0, {})


def test_finalize_raises_on_overlap():
    rec = SpanRecorder(1)
    rec.add(0, "compute", 0.0, 2.0)
    rec.add(0, "send", 1.0, 3.0)
    with pytest.raises(ProfilingError):
        rec.finalize((3.0,), 3.0, {})


def test_finalize_pads_done_phase():
    rec = SpanRecorder(2)
    rec.add(0, "compute", 0.0, 1.0)
    rec.add(1, "compute", 0.0, 4.0)
    prof = rec.finalize((1.0, 4.0), 4.0, {})
    prof.validate_tiling()
    assert prof.spans[0][-1] == Span(0, "done", 1.0, 4.0)


def test_validate_tiling_rejects_bad_profile():
    prof = RunProfile(
        nprocs=1,
        makespan=2.0,
        final_clocks=(2.0,),
        crashed=(),
        spans=((Span(0, "compute", 0.0, 1.0),),),  # ends short of makespan
    )
    with pytest.raises(ProfilingError):
        prof.validate_tiling()


def test_stage_and_iteration_annotations():
    rec = SpanRecorder(1)
    rec.set_stage(0, "evoke")
    rec.set_iteration(0, 3)
    rec.add(0, "compute", 0.0, 1.0)
    prof = rec.finalize((1.0,), 1.0, {})
    assert prof.spans[0][0].stage == "evoke"
    assert prof.spans[0][0].iteration == 3
    assert prof.stage_seconds() == {"evoke": 1.0}
