"""EXPERIMENTS.md generator: run every experiment, record paper-vs-measured.

``python -m repro.harness.report`` regenerates the full report (about ten
minutes in fast mode); each experiment's rendered table/figure also lands
in ``benchmarks/_output/`` when run through the benchmark suite.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.experiments.base import all_experiment_ids, run_experiment

#: what the paper reports, per experiment — the left column of the report
PAPER_CLAIMS: dict[str, str] = {
    "fig1": "One neighbor_alltoall of prefix-summed ghost counts gives "
            "every rank conflict-free Put offsets — no distributed counters, "
            "no atomics.",
    "fig2": "Matching generates far heavier, dynamic Send-Recv traffic than "
            "Graph500 BFS on the same input.",
    "fig4a": "RGG weak scaling: NCL/RMA 2-3.5x over NSR, growing with scale.",
    "fig4b": "R-MAT weak scaling: RMA/NCL 1.2-3x over NSR.",
    "fig4c": "SBM weak scaling: NSR 1.5-2.7x better; NCL/RMA degrade with p "
             "on the complete process graph.",
    "fig5": "Protein k-mer strong scaling: RMA 25-35% better than NSR/NCL, "
            "up to 2-3x over NSR.",
    "fig6": "Social networks: NCL/RMA 2-5x over NSR, advantage degrading "
            "at larger process counts.",
    "fig7": "RCM concentrates both matrices into a tight band.",
    "fig8": "On RCM inputs NCL beats NSR 2-5x; NSR slows 1.2-1.7x vs the "
            "original ordering; NSR beats MBP 1.2-2x; NCL/RMA beat MBP "
            "2.5-7x.",
    "fig9": "RCM reduces bandwidth but leaves irregular diagonal blocks; "
            "overall communication volume increases.",
    "fig10": "Performance profile: RMA most consistent, NCL close; NSR up "
             "to 6x off yet best on ~10% of problems.",
    "fig11": "Matching's byte traffic is fine-grained and dynamic vs BFS's "
             "bulk frontier waves.",
    "table2": "18 inputs spanning RGG, R-MAT, SBM, k-mer, DNA, CFD, social.",
    "table3": "SBM process graph is complete: dmax = davg = p-1.",
    "table4": "Social process graphs are near-complete (davg ~ p-1).",
    "table5": "RCM: total |E'| +1-5%, sigma|E'| down 30-40%.",
    "table6": "RCM roughly doubles process-graph davg.",
    "table7": "Best speedups 1.4-6x over NSR; winners split between RMA "
              "and NCL.",
    "table8": "NSR energy ~4x NCL's on Friendster; NCL smallest memory; "
              "NCL best EDP.",
    "ablate-ncl-degree": "(ours) The SBM crossover is driven by per-neighbor "
                         "posting cost.",
    "ablate-congestion": "(ours) NSR is the most NIC-congestion-sensitive "
                         "model.",
    "ablate-tiebreak": "(paper §III) vertex-id tie-breaking serializes "
                       "ordered paths; hashing fixes it.",
    "ablate-eager-reject": "(ours) deferred proposals reproduce the exact "
                           "greedy matching; the printed Algorithm 6 "
                           "rejects early and loses weight.",
    "ablate-probe-cost": "(ours) the NSR/NCL gap scales with per-message "
                         "software overhead — aggregation amortizes it.",
    "ablate-aggregation": "(ours, paper §IV-C) NCL's advantage over NSR "
                          "comes from message aggregation; nsr-agg keeps "
                          "Send-Recv semantics and recovers it with "
                          "coalescing alone.",
    "ablate-eager-threshold": "(ours, DESIGN §5.2) the eager/rendezvous "
                              "cutoff matters for bulk traffic (BFS), not "
                              "for matching's 24-byte messages.",
    "faults": "(extension) §V-D's local termination assumes a lossless "
              "fabric and immortal ranks; with an ack/retry shim the "
              "Send-Recv matching survives message faults bit-identically, "
              "and survivors of a rank crash still produce a valid "
              "matching (ULFM-style renounce).",
    "ext-coloring": "(extension) paper §IV-D: the substrate applies to "
                    "any owner-computes graph algorithm — demonstrated on "
                    "speculative coloring (ref [5]'s other kernel) and on "
                    "label-propagation connected components.",
    "ext-edge-balance": "(extension) paper §VII conjectures careful "
                        "distribution of reordered graphs pays off; we test "
                        "the simplest degree-balanced 1D blocks.",
    "ext-quality": "(extension) §III guarantees 1/2-approximation; we "
                   "measure actual quality for greedy/suitor/path-growing "
                   "against the exact optimum.",
    "ext-incl": "(extension) paper §VI suggests matching, unlike BFS, is "
                "not amenable to nonblocking neighborhood collectives; we "
                "test that claim directly.",
}


def generate_experiments_md(path: str | Path, fast: bool = True) -> str:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerate with `python -m repro report` (or run",
        "`pytest benchmarks/test_*.py`, which also writes each",
        "experiment's rendered output to `benchmarks/_output/`).",
        "",
        "All runtimes are *simulated* seconds from the `repro.mpisim` cost",
        "model (see DESIGN.md §2); the claims checked are the paper's",
        "*shapes* — who wins, by roughly what factor, where the crossovers",
        "fall — not absolute numbers.",
        "",
    ]
    for exp_id in all_experiment_ids():
        out = run_experiment(exp_id, fast=fast)
        lines.append(f"## {exp_id}: {out.title}")
        lines.append("")
        lines.append(f"**Paper:** {PAPER_CLAIMS.get(exp_id, '(n/a)')}")
        lines.append("")
        lines.append("**Measured:**")
        for f in out.findings:
            lines.append(f"- {f}")
        lines.append("")
    text = "\n".join(lines)
    Path(path).write_text(text)
    return text
