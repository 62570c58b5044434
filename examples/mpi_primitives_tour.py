#!/usr/bin/env python
"""Tour of the simulated MPI runtime itself (no graph matching).

`repro.mpisim` is a general SPMD substrate, not just the matching
engine's plumbing. This example writes a rank program exercising all
three communication families the paper compares:

1. point-to-point Send-Recv with probing,
2. one-sided RMA (window, put, flush, passive-target polling),
3. a distributed graph topology with neighborhood collectives,

plus classic collectives, persistent requests (``send_init_g``/``start_g``),
nonblocking receives (``irecv``/``waitall_g``), and the message
aggregator — and shows the virtual clock, counters, and energy model
the experiments are built from.

Run:  python examples/mpi_primitives_tour.py
"""

import numpy as np

from repro.mpisim import Engine, cori_aries, energy_report
from repro.util.tables import format_seconds


def rank_program(ctx):
    p, me = ctx.nprocs, ctx.rank

    # --- 1. point-to-point ring ------------------------------------------
    right, left = (me + 1) % p, (me - 1) % p
    yield from ctx.isend_g(right, f"hello from {me}", tag=1)
    msg = yield from ctx.recv_g(source=left, tag=1)
    assert msg.payload == f"hello from {left}"

    # --- 2. classic collectives ------------------------------------------
    total = yield from ctx.allreduce_g(me)  # sum of ranks
    ranks = yield from ctx.allgather_g(me)
    assert total == p * (p - 1) // 2 and ranks == list(range(p))

    # --- 3. one-sided RMA --------------------------------------------------
    win = yield from ctx.win_allocate_g(p, dtype=np.int64)
    # everyone deposits its rank into everyone else's window slot
    for q in range(p):
        if q != me:
            yield from win.put_g(q, np.array([me]), target_offset=me)
    yield from win.flush_all_g()
    yield from ctx.barrier_g()
    yield from win.sync_local_g()
    mine = win.local.copy()
    mine[me] = me
    assert mine.tolist() == list(range(p))

    # --- 4. neighborhood collectives over a ring topology -------------------
    topo = yield from ctx.dist_graph_create_adjacent_g(sorted({left, right}))
    got = yield from topo.neighbor_alltoall_g([me * 10 + q for q in topo.neighbors])
    for q, item in zip(topo.neighbors, got):
        assert item == q * 10 + me

    # --- 5. persistent requests + nonblocking receives ---------------------
    # A persistent send pays envelope construction (o_send_init) once and
    # a cheaper o_send_start per message — MPI_Send_init/MPI_Start.
    recvs = [ctx.irecv(source=left, tag=2) for _ in range(4)]
    chan = yield from ctx.send_init_g(right, tag=2)
    for i in range(4):
        yield from chan.start_g((me, i), nbytes=16)
    for m in (yield from ctx.waitall_g(recvs)):
        assert m.payload[0] == left

    # --- 6. message aggregation --------------------------------------------
    # Coalesce small same-destination messages into batched wire messages
    # (one envelope per batch) — the transport trick behind the nsr-agg
    # matching backend. poll() hands back each coalesced message.
    agg = ctx.aggregator(flush_count=8)
    for i in range(8):
        yield from agg.append_g(right, i, f"tiny-{i}", 24)  # 8th append auto-flushes
    yield from agg.flush_all_g()  # iteration boundary: ship any stragglers
    got = []
    while len(got) < 8:
        yield from agg.poll_g(lambda src, tag, payload: got.append((tag, payload)))
        if len(got) < 8:
            yield from ctx.probe_g()  # fast-forward to the next arrival
    assert got == [(i, f"tiny-{i}") for i in range(8)]

    # local computation advances the virtual clock
    ctx.compute(units=1000)
    return ctx.now


def main() -> None:
    engine = Engine(8, cori_aries())
    result = engine.run(rank_program)
    print(f"simulated makespan: {format_seconds(result.makespan)}")
    print(f"scheduler switches: {result.scheduler_switches}, ops: {result.total_ops}")

    c = result.counters
    print(f"\np2p messages: {c.p2p.total_messages()}  "
          f"RMA puts: {c.rma.total_messages()}  "
          f"neighborhood exchanges: {c.ncl.total_messages()}")
    agg = c.aggregation_totals()
    print(f"aggregation: {agg['agg_msgs_coalesced']} messages in "
          f"{agg['agg_batches']} batches, "
          f"{agg['agg_bytes_saved']} header bytes saved, "
          f"{agg['persistent_starts']} persistent starts")
    compute, comm, idle = c.time_split()
    print(f"time split across ranks: compute={format_seconds(compute)} "
          f"comm={format_seconds(comm)} idle={format_seconds(idle)}")

    rep = energy_report("tour", result.makespan, c)
    print(f"\nenergy model: {rep.node_energy_kj * 1e3:.3g} J at "
          f"{rep.node_power_kw:.3f} kW "
          f"({rep.compute_pct:.0f}% compute / {rep.mpi_pct:.0f}% MPI)")


if __name__ == "__main__":
    main()
