"""Process-graph and ghost-edge statistics (paper Tables III, IV, V, VI).

Notation follows the paper (§V-A):

* ``|Ep|`` — number of edges in the *process graph* (two ranks are
  adjacent iff they share at least one cross edge);
* ``dmax`` / ``davg`` / ``sigma_d`` — max / mean / stddev of process-graph
  node degrees;
* ``|E'|`` — edges augmented with ghost vertices: per rank, internal
  undirected edges plus all incident cross edges (each cross edge is
  counted on both of its ranks, so summing over ranks gives
  ``|E| + #cross``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.distribution import LocalGraph, partition_graph
from repro.util.tables import TextTable, format_si


@dataclass(frozen=True)
class ProcessGraphStats:
    """One row of the paper's Tables III/IV/VI."""

    nprocs: int
    num_edges: int  #: |Ep|
    dmax: int
    davg: float
    sigma_d: float

    def as_row(self) -> list:
        return [
            self.nprocs,
            f"{self.num_edges:.2E}",
            self.dmax,
            f"{self.davg:.2f}",
            f"{self.sigma_d:.2f}",
        ]


@dataclass(frozen=True)
class GhostStats:
    """|E'| block of the paper's Table V."""

    nprocs: int
    total: int  #: sum over ranks of |E'_i|
    max: int
    avg: float
    sigma: float

    def as_row(self) -> list:
        return [
            format_si(self.total),
            format_si(self.max),
            format_si(self.avg),
            format_si(self.sigma),
        ]


def process_graph_stats_from_parts(parts: list[LocalGraph]) -> ProcessGraphStats:
    degrees = np.array([len(p.ghost_ranks) for p in parts], dtype=np.int64)
    num_edges = int(degrees.sum()) // 2
    return ProcessGraphStats(
        nprocs=len(parts),
        num_edges=num_edges,
        dmax=int(degrees.max()) if len(degrees) else 0,
        davg=float(degrees.mean()) if len(degrees) else 0.0,
        sigma_d=float(degrees.std()) if len(degrees) else 0.0,
    )


def process_graph_stats(g: CSRGraph, nprocs: int) -> ProcessGraphStats:
    return process_graph_stats_from_parts(partition_graph(g, nprocs))


def ghost_stats_from_parts(parts: list[LocalGraph]) -> GhostStats:
    eprime = np.array([p.edges_with_ghosts() for p in parts], dtype=np.int64)
    return GhostStats(
        nprocs=len(parts),
        total=int(eprime.sum()),
        max=int(eprime.max()) if len(eprime) else 0,
        avg=float(eprime.mean()) if len(eprime) else 0.0,
        sigma=float(eprime.std()) if len(eprime) else 0.0,
    )


def ghost_stats(g: CSRGraph, nprocs: int) -> GhostStats:
    return ghost_stats_from_parts(partition_graph(g, nprocs))


def topology_table(
    rows: list[tuple[str, ProcessGraphStats]], title: str
) -> TextTable:
    """Render process-graph stats in the paper's Table III/IV layout."""
    t = TextTable(["input", "p", "|Ep|", "dmax", "davg", "sigma_d"], title=title)
    for label, s in rows:
        t.add_row([label] + s.as_row())
    return t


def ghost_table(rows: list[tuple[str, GhostStats]], title: str) -> TextTable:
    """Render |E'| stats in the paper's Table V layout."""
    t = TextTable(
        ["input", "|E'|", "|E'|max", "|E'|avg", "sigma|E'|"], title=title
    )
    for label, s in rows:
        t.add_row([label] + s.as_row())
    return t
