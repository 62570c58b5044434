"""Weighted undirected graphs in Compressed Sparse Row form.

The paper stores each rank's local portion in CSR (§IV-A); we use the same
layout globally: ``xadj`` (offsets, length n+1), ``adjncy`` (neighbor ids),
``weights`` (edge weights, mirrored on both directions of each edge).

An undirected edge {u, v} appears twice: once in u's row and once in v's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSRGraph:
    """Immutable weighted undirected graph in CSR form."""

    xadj: np.ndarray  # int64, shape (n+1,)
    adjncy: np.ndarray  # int64, shape (2m,)
    weights: np.ndarray  # float64, shape (2m,)

    def __post_init__(self) -> None:
        if self.xadj.ndim != 1 or self.adjncy.ndim != 1 or self.weights.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if self.adjncy.shape != self.weights.shape:
            raise ValueError("adjncy and weights must have equal length")
        if self.xadj[0] != 0 or self.xadj[-1] != len(self.adjncy):
            raise ValueError("xadj must start at 0 and end at len(adjncy)")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be nondecreasing")
        if np.isnan(self.weights).any():  # no place in edge_order
            raise ValueError("edge weights must not be NaN")

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.xadj) - 1

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge stored twice)."""
        return len(self.adjncy) // 2

    @property
    def num_directed_edges(self) -> int:
        return len(self.adjncy)

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.xadj)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.xadj[v] : self.xadj[v + 1]]

    def total_weight(self) -> float:
        return float(self.weights.sum()) / 2.0

    def memory_bytes(self) -> int:
        return int(self.xadj.nbytes + self.adjncy.nbytes + self.weights.nbytes)

    # ------------------------------------------------------------------
    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique undirected edges as (u, v, w) with u < v."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.xadj))
        mask = src < self.adjncy
        return src[mask], self.adjncy[mask], self.weights[mask]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge {u, v}; raises KeyError if absent."""
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if len(hits) == 0:
            raise KeyError(f"no edge {{{u}, {v}}}")
        return float(self.neighbor_weights(u)[hits[0]])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    # ------------------------------------------------------------------
    def permuted(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``v`` is ``perm[v]``.

        Used by the RCM reordering study (§V-C): the graph structure is
        unchanged; only vertex numbering (and therefore the 1D block
        distribution) moves.
        """
        perm = np.asarray(perm, dtype=np.int64)
        n = self.num_vertices
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        u, v, w = self.edge_list()
        return from_edges(n, perm[u], perm[v], w)

    def subgraph_weight(self, matched_pairs: list[tuple[int, int]]) -> float:
        return sum(self.edge_weight(u, v) for u, v in matched_pairs)

    def validate(self) -> None:
        """Structural checks: symmetric, no self-loops, weights mirrored."""
        n = self.num_vertices
        if len(self.adjncy) and (self.adjncy.min() < 0 or self.adjncy.max() >= n):
            raise ValueError("neighbor id out of range")
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.xadj))
        if np.any(src == self.adjncy):
            raise ValueError("self-loop present")
        fwd = {}
        for s, d, w in zip(src, self.adjncy, self.weights):
            fwd[(int(s), int(d))] = float(w)
        for (s, d), w in fwd.items():
            if (d, s) not in fwd:
                raise ValueError(f"edge ({s},{d}) lacks reverse direction")
            if fwd[(d, s)] != w:
                raise ValueError(f"asymmetric weight on edge ({s},{d})")


def from_edges(
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from unique undirected edges.

    Inputs are parallel arrays of endpoints (any orientation, no
    duplicates, no self-loops). Weights default to 1.0.
    """
    if num_vertices > 3_037_000_499:  # the slot key below reaches n * n - 1
        raise ValueError(f"num_vertices {num_vertices}: src * n + dst overflows int64")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if w is None:
        w = np.ones(len(u), dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64)
    if not (len(u) == len(v) == len(w)):
        raise ValueError("u, v, w must have equal length")
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= num_vertices):
        raise ValueError("vertex id out of range")
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")

    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    ww = np.concatenate([w, w])
    # rows in src order, each row by dst, duplicates in input order
    order = np.argsort(src * num_vertices + dst, kind="stable")
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=xadj[1:])
    return CSRGraph(xadj=xadj, adjncy=dst[order], weights=ww[order])


def from_scipy(mat) -> CSRGraph:
    """Build from a symmetric scipy sparse matrix (diagonal dropped).

    Needs scipy, which the package does not depend on (it is in the
    ``test`` extra); a caller holding a scipy matrix has it already.
    """
    import scipy.sparse as sp

    m = sp.coo_matrix(mat)
    mask = m.row < m.col
    return from_edges(m.shape[0], m.row[mask], m.col[mask], m.data[mask])


def to_networkx(g: CSRGraph):
    """Convert to a networkx.Graph (small instances only — for oracles)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    u, v, w = g.edge_list()
    G.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return G
