"""Serial half-approximate weighted matching algorithms (paper §III).

Two equivalent-quality algorithms:

* :func:`greedy_matching` — Avis's sorted-edge greedy: consider edges in
  nonincreasing weight order, add when both endpoints are free. Guaranteed
  half-approximate.
* :func:`locally_dominant_matching` — Preis/Manne-Bisseling pointer-based
  algorithm (the paper's Algorithm 2): no global sort, iteratively match
  mutually-pointing vertices.

With a *total order* on edge weights both produce the **same, unique**
matching: greedy consumes edges in the total order, and an edge is locally
dominant exactly when greedy would pick it. All repro generators add a
hash-based jitter making weights distinct, so this uniqueness is the
cross-implementation oracle used throughout the test suite. For safety
against exact ties the comparison key is ``(weight, edge_hash(u, v))`` —
the paper's hash-based tie-breaking fix for pathological uniform-weight
inputs (§III).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.util.hashing import edge_hash_array, edge_order

NO_MATE = -1


@dataclass(frozen=True)
class MatchingResult:
    """A matching as a mate array: ``mate[v]`` is v's partner or -1."""

    mate: np.ndarray
    weight: float
    rounds: int = 0  #: pointer-recalculation passes (locally-dominant only)

    @property
    def num_matched_edges(self) -> int:
        return int(np.count_nonzero(self.mate >= 0)) // 2

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for v, u in enumerate(self.mate):
            if u >= 0 and v < u:
                out.append((v, int(u)))
        return out


def _edge_keys(g: CSRGraph) -> np.ndarray:
    """Tie-break component per directed CSR slot (same for both ends)."""
    n = g.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.xadj))
    return edge_hash_array(src, g.adjncy)


def matching_weight(g: CSRGraph, mate: np.ndarray) -> float:
    """Sum of the matched edges' weights, added in vertex order (every
    golden weight pin depends on that order); KeyError for a matched
    pair that is not an edge."""
    mate = np.asarray(mate)
    u, v, w = g.edge_list()  # u < v, ascending u
    hit = np.flatnonzero(mate[u] == v)
    # first slot per vertex, as CSRGraph.edge_weight reads a parallel edge
    owners, first = np.unique(u[hit], return_index=True)
    matched = np.flatnonzero(mate > np.arange(len(mate)))
    if len(owners) != len(matched):
        a = int(np.setdiff1d(matched, owners)[0])
        raise KeyError(f"no edge {{{a}, {int(mate[a])}}}")
    if len(owners) == 0:
        return 0.0
    # np.sum adds pairwise; accumulate adds left to right like the loop
    return float(np.add.accumulate(w[hit[first]])[-1])


def greedy_matching(g: CSRGraph) -> MatchingResult:
    """Avis's half-approx greedy over edges sorted by (weight, hash) desc."""
    u, v, w = g.edge_list()
    order = edge_order(w, edge_hash_array(u, v))  # descending (w, h)
    mate = np.full(g.num_vertices, NO_MATE, dtype=np.int64)
    weight = 0.0
    for i in order:
        a, b = int(u[i]), int(v[i])
        if mate[a] == NO_MATE and mate[b] == NO_MATE:
            mate[a] = b
            mate[b] = a
            weight += float(w[i])
    return MatchingResult(mate=mate, weight=weight)


def locally_dominant_matching(g: CSRGraph) -> MatchingResult:
    """Pointer-based locally-dominant matching (paper Algorithm 2).

    Phase 1 points every vertex at its heaviest neighbor and matches
    mutual pointers; phase 2 processes neighbors of matched vertices,
    recomputing pointers until no new edges can be added.
    """
    n = g.num_vertices
    keys = _edge_keys(g)
    mate = np.full(n, NO_MATE, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    dead = np.zeros(n, dtype=bool)  # no available neighbor remains
    pointer = np.full(n, NO_MATE, dtype=np.int64)

    def find_mate(x: int) -> int:
        """argmax_{available y in N(x)} (w, key); NO_MATE if none."""
        nbrs = g.neighbors(x)
        ws = g.neighbor_weights(x)
        ks = keys[g.xadj[x] : g.xadj[x + 1]]
        best = NO_MATE
        best_key: tuple[float, int] | None = None
        for j in range(len(nbrs)):
            y = int(nbrs[j])
            if matched[y] or dead[y]:
                continue
            cand = (float(ws[j]), int(ks[j]))
            if best_key is None or cand > best_key:
                best_key = cand
                best = y
        return best

    queue: deque[int] = deque()
    weight = 0.0
    rounds = 0

    def try_match(x: int) -> None:
        nonlocal weight
        y = find_mate(x)
        pointer[x] = y
        if y == NO_MATE:
            dead[x] = True
            return
        if pointer[y] == x:
            mate[x] = y
            mate[y] = x
            matched[x] = matched[y] = True
            weight += g.edge_weight(x, y)
            queue.append(x)
            queue.append(y)

    for v in range(n):
        try_match(v)

    while queue:
        rounds += 1
        v = queue.popleft()
        for u in g.neighbors(v):
            u = int(u)
            if matched[u] or dead[u]:
                continue
            if pointer[u] == v:
                try_match(u)

    return MatchingResult(mate=mate, weight=weight, rounds=rounds)


def exact_matching_weight(g: CSRGraph) -> float:
    """Maximum-weight matching via networkx (small instances; test oracle)."""
    from repro.graph.csr import to_networkx

    G = to_networkx(g)
    import networkx as nx

    m = nx.max_weight_matching(G, maxcardinality=False)
    return sum(G[a][b]["weight"] for a, b in m)
