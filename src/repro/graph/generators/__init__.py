"""Graph generators for every input family in the paper's Table II.

| Paper family                     | Generator                         |
|----------------------------------|-----------------------------------|
| Random geometric graphs (RGG)    | :func:`rgg_graph`                 |
| Graph500 R-MAT                   | :func:`rmat_graph`                |
| Stochastic block partition HILO  | :func:`sbm_hilo_graph`            |
| Protein k-mer (V2a/U1a/P1a/V1r)  | :func:`kmer_preset_graph`         |
| DNA (Cage15)                     | :func:`cage15_proxy`              |
| CFD (HV15R)                      | :func:`hv15r_proxy`               |
| Social (Orkut / Friendster)      | :func:`orkut_proxy` / :func:`friendster_proxy` |
| Pathological / fixtures          | :mod:`repro.graph.generators.classic` |
"""

from repro.graph.generators.classic import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid2d_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.kmer import KMER_PRESETS, kmer_graph, kmer_preset_graph
from repro.graph.generators.matrices import cage15_proxy, hv15r_proxy
from repro.graph.generators.rgg import rgg_graph
from repro.graph.generators.rmat import GRAPH500_PARAMS, rmat_edges, rmat_graph
from repro.graph.generators.sbm import sbm_hilo_graph
from repro.graph.generators.social import friendster_proxy, orkut_proxy, powerlaw_graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "grid2d_graph",
    "star_graph",
    "complete_graph",
    "erdos_renyi",
    "rgg_graph",
    "rmat_graph",
    "rmat_edges",
    "GRAPH500_PARAMS",
    "sbm_hilo_graph",
    "kmer_graph",
    "kmer_preset_graph",
    "KMER_PRESETS",
    "cage15_proxy",
    "hv15r_proxy",
    "powerlaw_graph",
    "orkut_proxy",
    "friendster_proxy",
]
