"""Serial connected components — oracle for the distributed version."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph
from repro.util.arrays import distinct


def connected_components(g: CSRGraph) -> np.ndarray:
    """Component labels: each vertex gets the minimum vertex id in its
    component (the canonical labeling label propagation converges to)."""
    n = g.num_vertices
    label = np.full(n, -1, dtype=np.int64)
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = root
        q: deque[int] = deque([root])
        while q:
            v = q.popleft()
            for u in g.neighbors(v):
                u = int(u)
                if label[u] < 0:
                    label[u] = root
                    q.append(u)
    return label


def num_components(labels: np.ndarray) -> int:
    return len(distinct(labels))


def validate_components(g: CSRGraph, labels: np.ndarray) -> None:
    """Raise AssertionError unless ``labels`` is a proper CC labeling."""
    if labels.shape != (g.num_vertices,):
        raise AssertionError("label array has wrong shape")
    u, v, _ = g.edge_list()
    if np.any(labels[u] != labels[v]):
        raise AssertionError("edge endpoints carry different labels")
    # labels must be canonical: the minimum vertex id of the component
    for lbl in distinct(labels):
        members = np.nonzero(labels == lbl)[0]
        if members.min() != lbl:
            raise AssertionError(
                f"label {lbl} is not the minimum member id ({members.min()})"
            )
