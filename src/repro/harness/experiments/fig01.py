"""Fig. 1 — the RMA remote-displacement scheme, demonstrated and checked.

The paper's Fig. 1 explains how a process learns where to Put inside each
neighbor's window without distributed counters or atomics: window regions
are sized by shared-ghost counts, a local prefix sum lays out the
regions, and one ``neighbor_alltoall`` hands every neighbor its start
offset. This experiment runs that exact setup on a small partitioned
graph, prints the per-rank layout, and verifies the invariants:

* regions tile each window exactly (no gaps, no overlap);
* the offset rank q received for rank r's window equals the start of
  q's region as computed by r;
* region capacity (2x shared ghosts) is never exceeded by a full
  matching run.
"""

from __future__ import annotations

from repro.graph.distribution import partition_graph
from repro.graph.generators import rmat_graph
from repro.harness.experiments.base import ExperimentOutput, experiment
from repro.harness.spec import DEFAULT_SEED
from repro.matching.api import run_matching
from repro.matching.config import RunConfig
from repro.matching.rma import RMABackend, _SLOT
from repro.mpisim.engine import Engine
from repro.mpisim.machine import zero_latency
from repro.util.tables import TextTable


def _layout_rank_main(ctx, parts):
    lg = parts[ctx.rank]
    backend = RMABackend(ctx, lg)
    yield from backend._setup_g(())  # the construction collectives
    nbrs = list(backend.topo.neighbors)
    layout = {
        "neighbors": nbrs,
        "caps": [backend.region_cap[q] for q in nbrs],
        "starts": [int(backend.region_start[q]) for q in nbrs],
        "window_elems": backend.win.size_of(ctx.rank),
        "remote_base": [int(backend.remote_base[q]) for q in nbrs],
        "ghosts": {q: lg.ghost_counts[q] for q in nbrs},
    }
    yield from ctx.barrier_g()
    return layout


@experiment("fig1")
def run(fast: bool = True) -> ExperimentOutput:
    p = 8
    g = rmat_graph(9 if fast else 11, seed=DEFAULT_SEED)
    parts = partition_graph(g, p)
    res = Engine(p, zero_latency()).run(_layout_rank_main, args=(parts,))
    layouts = res.rank_results

    t = TextTable(
        ["rank", "neighbors", "ghosts shared", "region starts (elems)", "window elems"],
        title="Fig 1: RMA window layout from prefix sums over ghost counts",
    )
    ok_tiling = True
    ok_offsets = True
    for r, lay in enumerate(layouts):
        t.add_row(
            [
                r,
                ",".join(map(str, lay["neighbors"])),
                ",".join(str(lay["ghosts"][q]) for q in lay["neighbors"]),
                ",".join(map(str, lay["starts"])),
                lay["window_elems"],
            ]
        )
        # Tiling: regions are contiguous and fill the window exactly.
        expect = 0
        for start, cap in zip(lay["starts"], lay["caps"]):
            if start != expect:
                ok_tiling = False
            expect += cap * _SLOT
        if expect != lay["window_elems"]:
            ok_tiling = False
        # Offset agreement: the base neighbor q told me matches q's layout.
        for q, base in zip(lay["neighbors"], lay["remote_base"]):
            q_lay = layouts[q]
            k = q_lay["neighbors"].index(r)
            if q_lay["starts"][k] != base:
                ok_offsets = False

    # Capacity: a full matching run must never overflow a region (the
    # RMA backend raises if it would).
    run_matching(g, p, "rma", config=RunConfig(machine=zero_latency(), compute_weight=False))

    return ExperimentOutput(
        exp_id="fig1",
        title="RMA remote displacement computation (paper Fig. 1)",
        text=t.render(),
        data={"tiling_ok": ok_tiling, "offsets_ok": ok_offsets},
        findings=[
            f"window regions tile exactly (no gaps/overlap): {ok_tiling}",
            f"every rank's learned remote offsets match the owner's "
            f"prefix-sum layout: {ok_offsets}",
            "a full matching run stays within the 2x-ghosts capacity bound "
            "(paper §IV-B: at most 2 messages per cross edge)",
        ],
    )
