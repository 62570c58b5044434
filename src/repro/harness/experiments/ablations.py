"""Ablations for the design decisions DESIGN.md calls out.

Not paper figures — these isolate the mechanisms our reproduction claims
are responsible for the paper's effects, so a reviewer can see each knob
do its job:

* ``ablate-ncl-degree``: zero the per-neighbor posting cost -> the SBM
  crossover (Fig. 4c) disappears, confirming it is degree-driven.
* ``ablate-congestion``: NIC serialization on/off at two bandwidths —
  irrelevant at Aries speeds for 24-byte messages, decisive for NSR on a
  bandwidth-starved NIC.
* ``ablate-tiebreak``: uniform weights *without* hash jitter on an
  ordered path -> the pointer chain serializes and iteration counts blow
  up (the paper's §III pathological case).
* ``ablate-eager-reject``: the paper's literal Algorithm 6 semantics vs
  our deferred proposals -> matching weight degrades while staying valid.
* ``ablate-probe-cost``: NSR sensitivity to per-message software overhead.
* ``ablate-aggregation``: run NSR semantics over the message-aggregation
  layer (``nsr-agg``) -> how much of NCL's win is pure coalescing.
"""

from __future__ import annotations

import numpy as np

from repro.graph.generators import path_graph, rmat_graph, sbm_hilo_graph
from repro.harness.experiments.base import ExperimentOutput, experiment
from repro.harness.spec import DEFAULT_SEED
from repro.matching.api import run_matching
from repro.matching.config import RunConfig
from repro.matching.driver import MatchingOptions
from repro.matching.serial import greedy_matching
from repro.matching.verify import check_matching_valid
from repro.mpisim.machine import cori_aries
from repro.util.tables import TextTable


@experiment("ablate-ncl-degree")
def run_ncl_degree(fast: bool = True) -> ExperimentOutput:
    p = 32 if fast else 64
    g = sbm_hilo_graph(64 * p, avg_degree=8.0, seed=DEFAULT_SEED)
    base = cori_aries()
    free = base.with_overrides(o_ncl_per_neighbor=0.0)
    t_nsr = run_matching(g, p, "nsr", config=RunConfig(machine=base, compute_weight=False)).makespan
    t_ncl = run_matching(g, p, "ncl", config=RunConfig(machine=base, compute_weight=False)).makespan
    t_ncl_free = run_matching(g, p, "ncl", config=RunConfig(machine=free, compute_weight=False)).makespan
    t = TextTable(["config", "time (ms)"], title=f"NCL degree-cost ablation (SBM, p={p})")
    t.add_row(["NSR", f"{t_nsr * 1e3:.3f}"])
    t.add_row(["NCL (full model)", f"{t_ncl * 1e3:.3f}"])
    t.add_row(["NCL (per-neighbor cost = 0)", f"{t_ncl_free * 1e3:.3f}"])
    return ExperimentOutput(
        exp_id="ablate-ncl-degree",
        title="Is the SBM crossover degree-driven?",
        text=t.render(),
        data={"nsr": t_nsr, "ncl": t_ncl, "ncl_free": t_ncl_free},
        findings=[
            f"with per-neighbor posting cost zeroed, NCL speeds up "
            f"{t_ncl / t_ncl_free:.2f}x and beats NSR again -> "
            f"{t_ncl_free < t_nsr}; the Fig. 4c crossover is degree-driven",
        ],
    )


@experiment("ablate-congestion")
def run_congestion(fast: bool = True) -> ExperimentOutput:
    """NIC injection/drain serialization on/off, at two bandwidths.

    At Aries-like bandwidth the 24-byte matching messages inject in
    nanoseconds, so serialization never binds — a finding in itself. On a
    bandwidth-starved NIC (beta x1000, ~8 MB/s) injection time dwarfs the
    software gap between sends and unaggregated Send-Recv queues up on the
    wire; aggregated exchanges stream and are immune by construction.
    """
    g = rmat_graph(10, seed=DEFAULT_SEED)
    p = 16
    data = {}
    t = TextTable(
        ["machine", "model", "serialized (ms)", "unconstrained (ms)", "factor"],
        title=f"NIC serialization ablation (R-MAT, p={p})",
    )
    for label, base in [
        ("aries", cori_aries()),
        ("starved", cori_aries().with_overrides(beta=1.25e-7)),
    ]:
        nolimits = base.with_overrides(
            nic_serialization=False, drain_serialization=False
        )
        for model in ("nsr", "ncl"):
            t0 = run_matching(g, p, model, config=RunConfig(machine=base, compute_weight=False)).makespan
            t1 = run_matching(g, p, model, config=RunConfig(machine=nolimits, compute_weight=False)).makespan
            t.add_row([label, model.upper(), f"{t0 * 1e3:.3f}", f"{t1 * 1e3:.3f}",
                       f"{t0 / t1:.2f}x"])
            data[f"{label}_{model}"] = (t0, t1)
    aries_nsr = data["aries_nsr"][0] / data["aries_nsr"][1]
    starved_nsr = data["starved_nsr"][0] / data["starved_nsr"][1]
    starved_ncl = data["starved_ncl"][0] / data["starved_ncl"][1]
    return ExperimentOutput(
        exp_id="ablate-congestion",
        title="How much does NIC congestion matter?",
        text=t.render(),
        data=data,
        findings=[
            f"at Aries bandwidth, serialization of 24-byte messages never "
            f"binds (NSR factor {aries_nsr:.2f}x) — per-message software "
            "cost, not wire occupancy, is what the paper's models fight over",
            f"starve the NIC (beta x1000) and unaggregated NSR pays "
            f"{starved_nsr:.2f}x for wire serialization while aggregated "
            f"NCL streams unaffected ({starved_ncl:.2f}x)",
        ],
    )


@experiment("ablate-tiebreak")
def run_tiebreak(fast: bool = True) -> ExperimentOutput:
    n = 512 if fast else 4096
    g_plain = path_graph(n, weight_scheme="unit", distinct_weights=False)
    r_hash = run_matching(g_plain, 8, "ncl", config=RunConfig(compute_weight=False, options=MatchingOptions(tie_break="hash")))
    r_id = run_matching(g_plain, 8, "ncl", config=RunConfig(compute_weight=False, options=MatchingOptions(tie_break="id")))
    check_matching_valid(g_plain, r_id.mate)
    t = TextTable(
        ["tie-break", "iterations", "time (ms)"],
        title=f"Tie-break ablation: unit-weight ordered path of {n} vertices (p=8, NCL)",
    )
    t.add_row(["edge hash (paper's fix)", r_hash.iterations, f"{r_hash.makespan * 1e3:.3f}"])
    t.add_row(["vertex id (naive)", r_id.iterations, f"{r_id.makespan * 1e3:.3f}"])
    return ExperimentOutput(
        exp_id="ablate-tiebreak",
        title="Hash tie-breaking on pathological inputs",
        text=t.render(),
        data={
            "iters_hash": r_hash.iterations,
            "iters_plain": r_id.iterations,
        },
        findings=[
            f"vertex-id tie-breaking serializes the ordered path into a "
            f"linear dependence chain: {r_id.iterations} rounds vs "
            f"{r_hash.iterations} with the hash tie-break — the paper's "
            "§III pathological case and its fix",
        ],
    )


@experiment("ablate-eager-reject")
def run_eager(fast: bool = True) -> ExperimentOutput:
    g = rmat_graph(9, seed=DEFAULT_SEED)
    ref = greedy_matching(g)
    res_def = run_matching(g, 8, "nsr")
    res_eager = run_matching(g, 8, "nsr", config=RunConfig(options=MatchingOptions(eager_reject=True)))
    check_matching_valid(g, res_eager.mate)
    same_def = bool(np.array_equal(res_def.mate, ref.mate))
    same_eager = bool(np.array_equal(res_eager.mate, ref.mate))
    t = TextTable(
        ["protocol", "weight", "== serial greedy", "time (ms)"],
        title="REQUEST handling ablation (R-MAT s9, p=8, NSR)",
    )
    t.add_row(["deferred proposals (ours)", f"{res_def.weight:.4f}", same_def,
               f"{res_def.makespan * 1e3:.3f}"])
    t.add_row(["eager reject (paper Alg. 6 literal)", f"{res_eager.weight:.4f}",
               same_eager, f"{res_eager.makespan * 1e3:.3f}"])
    return ExperimentOutput(
        exp_id="ablate-eager-reject",
        title="Deferred proposals vs the printed Algorithm 6",
        text=t.render(),
        data={
            "weight_deferred": res_def.weight,
            "weight_eager": res_eager.weight,
            "greedy_weight": ref.weight,
        },
        findings=[
            f"deferred protocol reproduces the unique greedy matching "
            f"({same_def}); the eager-reject variant stays a valid matching "
            f"but recovers {res_eager.weight / ref.weight:.4f} of its weight",
        ],
    )


@experiment("ablate-probe-cost")
def run_probe(fast: bool = True) -> ExperimentOutput:
    g = rmat_graph(10, seed=DEFAULT_SEED)
    p = 16
    t = TextTable(
        ["o_probe + o_recv scale", "NSR time (ms)", "NCL time (ms)", "NSR/NCL"],
        title=f"Per-message software-cost sweep (R-MAT, p={p})",
    )
    data = {}
    for scale in (0.25, 1.0, 4.0):
        m = cori_aries()
        m = m.with_overrides(
            o_probe=m.o_probe * scale, o_recv=m.o_recv * scale, o_send=m.o_send * scale
        )
        t_nsr = run_matching(g, p, "nsr", config=RunConfig(machine=m, compute_weight=False)).makespan
        t_ncl = run_matching(g, p, "ncl", config=RunConfig(machine=m, compute_weight=False)).makespan
        t.add_row([f"{scale}x", f"{t_nsr * 1e3:.3f}", f"{t_ncl * 1e3:.3f}",
                   f"{t_nsr / t_ncl:.2f}x"])
        data[scale] = (t_nsr, t_ncl)
    return ExperimentOutput(
        exp_id="ablate-probe-cost",
        title="NSR sensitivity to per-message overhead",
        text=t.render(),
        data=data,
        findings=[
            "the NSR/NCL gap scales with per-message software cost "
            f"({data[0.25][0] / data[0.25][1]:.1f}x at 0.25x overhead vs "
            f"{data[4.0][0] / data[4.0][1]:.1f}x at 4x) — aggregation "
            "amortizes exactly this term",
        ],
    )


@experiment("ablate-aggregation")
def run_aggregation(fast: bool = True) -> ExperimentOutput:
    """How much of NCL's win over NSR is *pure aggregation*?

    The ``nsr-agg`` backend keeps NSR's semantics exactly (asynchronous
    Send-Recv, local termination, no collectives) and changes only the
    transport: same-destination triples coalesce into batched wire
    messages via the :class:`~repro.mpisim.aggregate.MessageAggregator`.
    Whatever it recovers of the NSR->NCL gap is aggregation; the
    remainder is the collective machinery itself (and its
    synchronization tax, which can make the remainder negative).
    """
    if fast:
        p, g = 16, rmat_graph(9, seed=DEFAULT_SEED)
    else:
        p, g = 64, rmat_graph(12, 32, seed=DEFAULT_SEED)
    runs = {m: run_matching(g, p, m, config=RunConfig(compute_weight=False))
            for m in ("nsr", "nsr-agg", "ncl")}
    for m in ("nsr-agg", "ncl"):
        assert np.array_equal(runs[m].mate, runs["nsr"].mate), (
            f"{m} diverged from nsr — aggregation must be pure transport"
        )
    msgs = {m: r.total_messages() for m, r in runs.items()}
    times = {m: r.makespan for m, r in runs.items()}
    agg = runs["nsr-agg"].counters.aggregation_totals()
    t = TextTable(
        ["model", "time (ms)", "wire msgs", "msgs/batch", "hdr bytes saved"],
        title=f"Aggregation ablation (R-MAT |V|={g.num_vertices}, p={p})",
    )
    for m in ("nsr", "nsr-agg", "ncl"):
        per_batch = (
            f"{agg['agg_msgs_coalesced'] / agg['agg_batches']:.2f}"
            if m == "nsr-agg" else "-"
        )
        saved = f"{agg['agg_bytes_saved']}" if m == "nsr-agg" else "-"
        t.add_row([m.upper(), f"{times[m] * 1e3:.3f}", f"{msgs[m]}",
                   per_batch, saved])
    gap = times["nsr"] - times["ncl"]
    recovered = times["nsr"] - times["nsr-agg"]
    frac = recovered / gap if gap > 0 else float("inf")
    if gap > 0:
        frac_finding = (
            f"aggregation alone recovers {frac:.0%} of the NSR->NCL gap"
            + (" — more than all of it: the collective machinery's "
               "synchronization costs more than it adds" if frac > 1 else "")
        )
    else:
        frac_finding = (
            "NCL is slower than NSR here (its termination allreduce and "
            "per-neighbor posting dominate at this size), while pure "
            f"aggregation still beats NSR by {times['nsr'] / times['nsr-agg']:.2f}x "
            "— the win NCL gets from batching, without the collective tax"
        )
    return ExperimentOutput(
        exp_id="ablate-aggregation",
        title="What fraction of NCL's win over NSR is pure aggregation?",
        text=t.render(),
        data={"times": times, "msgs": msgs, "aggregation": agg,
              "recovered_fraction": frac},
        findings=[
            f"nsr-agg sends {msgs['nsr'] / msgs['nsr-agg']:.2f}x fewer wire "
            f"messages than nsr ({msgs['nsr-agg']} vs {msgs['nsr']}) and "
            "computes the identical matching",
            frac_finding,
        ],
    )


@experiment("ext-incl")
def run_incl_extension(fast: bool = True) -> ExperimentOutput:
    """Extension: nonblocking neighborhood collectives (paper §VI raises
    the question via Kandalla et al.). Compare blocking NCL vs our INCL
    backend on a dense-process-graph input where blocking hurts most, and
    on a sparse one where there is little to hide."""
    p = 32 if fast else 64
    dense = sbm_hilo_graph(64 * p, avg_degree=8.0, seed=DEFAULT_SEED)
    from repro.graph.generators import rgg_graph

    sparse = rgg_graph(500 * p, target_avg_degree=8, seed=DEFAULT_SEED)
    t = TextTable(
        ["input", "NCL (blocking)", "INCL (nonblocking)", "gain"],
        title=f"Nonblocking neighborhood collectives (p={p})",
    )
    data = {}
    for label, g in [("sbm (dense Ep)", dense), ("rgg (sparse Ep)", sparse)]:
        t_ncl = run_matching(g, p, "ncl", config=RunConfig(compute_weight=False)).makespan
        res_incl = run_matching(g, p, "incl")
        t_incl = res_incl.makespan
        check_matching_valid(g, res_incl.mate)
        t.add_row([label, f"{t_ncl * 1e3:.3f}ms", f"{t_incl * 1e3:.3f}ms",
                   f"{t_ncl / t_incl:.2f}x"])
        data[label.split()[0]] = (t_ncl, t_incl)
    return ExperimentOutput(
        exp_id="ext-incl",
        title="Extension: nonblocking neighborhood collectives",
        text=t.render(),
        data=data,
        findings=[
            f"nonblocking collectives do NOT pay off for matching: "
            f"{data['sbm'][0] / data['sbm'][1]:.2f}x on the dense process "
            f"graph, {data['rgg'][0] / data['rgg'][1]:.2f}x on the sparse "
            "one — deferring work to create an overlap window adds rounds, "
            "and the un-hideable per-lane posting dominates. This matches "
            "the paper's §VI argument that matching's dynamic dependences "
            "(unlike BFS's regular frontier waves, Kandalla et al.) are "
            "not amenable to nonblocking neighborhood collectives.",
        ],
    )


@experiment("ext-coloring")
def run_coloring_extension(fast: bool = True) -> ExperimentOutput:
    """Extension: the communication substrate generalizes beyond matching.

    The paper's §IV-D closes by claiming the Send-Recv/RMA/NCL substrate
    "can be applied to any graph algorithm imitating the owner-computes
    model". We run distributed speculative coloring (the other kernel of
    the paper's ref [5]) over all three models and check that (a) all
    models produce the identical valid coloring and (b) the performance
    ordering transfers.
    """
    import numpy as np

    from repro.coloring import check_coloring_valid, run_coloring
    from repro.graph.generators import rgg_graph

    p = 16
    g = rgg_graph((4000 if fast else 16000), target_avg_degree=8,
                  seed=DEFAULT_SEED)
    from repro.cc import run_cc, validate_components

    t = TextTable(
        ["model", "coloring (ms)", "rounds", "colors", "conn. comp. (ms)"],
        title=f"Extension: coloring + connected components on RGG "
              f"(|E|={g.num_edges}, p={p})",
    )
    data = {}
    colors_ref = None
    for model in ("nsr", "rma", "ncl"):
        r = run_coloring(g, p, model)
        check_coloring_valid(g, r.colors)
        if colors_ref is None:
            colors_ref = r.colors
        else:
            assert np.array_equal(r.colors, colors_ref)
        rc = run_cc(g, p, model)
        validate_components(g, rc.labels)
        data[f"cc_{model}"] = rc.makespan
        t.add_row([model.upper(), f"{r.makespan * 1e3:.3f}", r.rounds,
                   r.num_colors, f"{rc.makespan * 1e3:.3f}"])
        data[model] = r.makespan
    return ExperimentOutput(
        exp_id="ext-coloring",
        title="Extension: owner-computes generality (coloring + CC)",
        text=t.render(),
        data=data,
        findings=[
            "all three models computed the identical valid coloring",
            f"the matching paper's ordering transfers to coloring "
            f"(NCL {data['nsr'] / data['ncl']:.2f}x, RMA "
            f"{data['nsr'] / data['rma']:.2f}x over NSR) and to connected "
            f"components (NCL {data['cc_nsr'] / data['cc_ncl']:.2f}x, RMA "
            f"{data['cc_nsr'] / data['cc_rma']:.2f}x over NSR) on the "
            "bounded-neighborhood RGG input",
        ],
    )


@experiment("ablate-eager-threshold")
def run_eager_threshold(fast: bool = True) -> ExperimentOutput:
    """Eager/rendezvous cutoff sweep (DESIGN.md §5, item 2).

    Matching messages are 24 B and always eager, so the protocol switch is
    exercised with the BFS contrast workload, whose frontier batches grow
    to kilobytes: lowering the threshold forces rendezvous handshakes on
    the bulk messages and slows the exchange.
    """
    from repro.bfs import run_bfs
    from repro.graph.generators import rmat_graph

    g = rmat_graph(11 if not fast else 10, seed=DEFAULT_SEED)
    p = 16
    t = TextTable(
        ["eager threshold (B)", "BFS time (ms)", "matching NSR time (ms)"],
        title=f"Eager-threshold sweep (R-MAT |E|={g.num_edges}, p={p})",
    )
    data = {}
    base = cori_aries()
    for thresh in (64, 8192, 1 << 20):
        m = base.with_overrides(eager_threshold=thresh)
        _, bfs_res, _ = run_bfs(g, p, root=0, machine=m)
        t_match = run_matching(g, p, "nsr", config=RunConfig(machine=m, compute_weight=False)).makespan
        t.add_row([thresh, f"{bfs_res.makespan * 1e3:.3f}", f"{t_match * 1e3:.3f}"])
        data[thresh] = (bfs_res.makespan, t_match)
    return ExperimentOutput(
        exp_id="ablate-eager-threshold",
        title="Eager/rendezvous protocol cutoff",
        text=t.render(),
        data=data,
        findings=[
            f"forcing rendezvous on bulk traffic slows BFS "
            f"{data[64][0] / data[1 << 20][0]:.2f}x, while matching's tiny "
            f"fixed-size messages are insensitive "
            f"({data[64][1] / data[1 << 20][1]:.2f}x) — communication "
            "granularity decides which protocol knobs matter",
        ],
    )


@experiment("ext-edge-balance")
def run_edge_balance(fast: bool = True) -> ExperimentOutput:
    """Extension: the paper's closing conjecture, tested.

    §VII: "we believe that careful distribution of reordered graphs can
    lead to significant performance benefits, which we plan to explore in
    the near future." We implement the simplest careful distribution —
    contiguous blocks balancing *degree sums* instead of vertex counts —
    and measure it on the RCM-reordered Cage15 proxy.
    """
    from repro.graph.distribution import edge_balanced_distribution
    from repro.graph.generators import cage15_proxy
    from repro.graph.partition_stats import ghost_stats_from_parts
    from repro.graph.distribution import partition_graph
    from repro.graph.reorder import rcm_reorder

    p = 32
    g, _ = rcm_reorder(cage15_proxy(8_000 if fast else 12_000, seed=DEFAULT_SEED))
    dist = edge_balanced_distribution(g, p)
    s_uni = ghost_stats_from_parts(partition_graph(g, p))
    s_bal = ghost_stats_from_parts(partition_graph(g, p, dist=dist))
    t = TextTable(
        ["model", "uniform blocks (ms)", "edge-balanced (ms)", "gain"],
        title=(f"Edge-balanced 1D distribution on RCM-reordered cage15 "
               f"(p={p}; sigma|E'| {s_uni.sigma:.0f} -> {s_bal.sigma:.0f})"),
    )
    data = {"sigma_uniform": s_uni.sigma, "sigma_balanced": s_bal.sigma}
    for model in ("nsr", "rma", "ncl"):
        t_uni = run_matching(g, p, model, config=RunConfig(compute_weight=False)).makespan
        t_bal = run_matching(g, p, model, config=RunConfig(dist=dist, compute_weight=False)).makespan
        t.add_row([model.upper(), f"{t_uni * 1e3:.3f}", f"{t_bal * 1e3:.3f}",
                   f"{t_uni / t_bal:.2f}x"])
        data[model] = (t_uni, t_bal)
    return ExperimentOutput(
        exp_id="ext-edge-balance",
        title="Extension: careful distribution of reordered graphs",
        text=t.render(),
        data=data,
        findings=[
            f"degree-aware blocks cut the per-rank ghost-load imbalance "
            f"sigma|E'| by {s_uni.sigma / max(1e-9, s_bal.sigma):.1f}x and "
            f"speed up NSR {data['nsr'][0] / data['nsr'][1]:.2f}x — the "
            "paper's future-work conjecture holds at our scale",
        ],
    )


@experiment("ext-quality")
def run_quality(fast: bool = True) -> ExperimentOutput:
    """Matching quality across the half-approx algorithm family (§III).

    The paper relies on the 1/2 guarantee but never reports measured
    quality; this table records it: greedy / locally-dominant (= every
    distributed backend, which provably returns the same matching),
    Suitor, and Drake-Hougardy path-growing, against the exact optimum on
    small instances of each input family.
    """
    from repro.graph.generators import (
        erdos_renyi,
        grid2d_graph,
        kmer_graph,
        rgg_graph,
        rmat_graph,
    )
    from repro.matching import exact_matching_weight
    from repro.matching.pathgrow import path_growing_matching
    from repro.matching.suitor import suitor_matching

    inputs = [
        ("rmat", rmat_graph(6, seed=DEFAULT_SEED)),
        ("rgg", rgg_graph(150, target_avg_degree=6, seed=DEFAULT_SEED)),
        ("er", erdos_renyi(120, 4.0, seed=DEFAULT_SEED)),
        ("grid", grid2d_graph(10, 10, seed=DEFAULT_SEED)),
        ("kmer", kmer_graph(150, seed=DEFAULT_SEED)),
    ]
    t = TextTable(
        ["input", "greedy/opt", "suitor/opt", "path-growing/opt"],
        title="Half-approx matching quality vs exact optimum",
    )
    data = {}
    for name, g in inputs:
        opt = exact_matching_weight(g)
        ratios = {
            "greedy": greedy_matching(g).weight / opt,
            "suitor": suitor_matching(g).weight / opt,
            "pga": path_growing_matching(g).weight / opt,
        }
        t.add_row([name] + [f"{ratios[k]:.4f}" for k in ("greedy", "suitor", "pga")])
        data[name] = ratios
    worst = min(min(r.values()) for r in data.values())
    return ExperimentOutput(
        exp_id="ext-quality",
        title="Measured matching quality (vs exact optimum)",
        text=t.render(),
        data=data,
        findings=[
            f"every algorithm stays far above the 1/2 guarantee "
            f"(worst observed ratio {worst:.3f}); greedy == locally-dominant "
            "== every distributed backend by the uniqueness argument",
        ],
    )
