"""The sorts the packed-key orders must agree with.

``MatchingState`` and ``greedy_matching`` order edges with one argsort
over packed byte records (``repro.util.hashing.edge_order``), and
``from_edges`` sorts its slots with one argsort over ``src * n + dst``.
These are the multi-key ``lexsort`` definitions they replaced, kept as
executable specifications.
"""

import numpy as np

from repro.util.hashing import edge_hash_array


def candidate_order(lg, tie_break: str = "hash") -> np.ndarray:
    """``MatchingState.cand`` as the 4-key lexsort built it: per owned
    row, neighbors by descending (weight, key), full ties in descending
    slot order."""
    n_local = lg.num_owned
    src_local = np.repeat(np.arange(n_local, dtype=np.int64), np.diff(lg.xadj))
    if tie_break == "hash":
        keys = edge_hash_array(src_local + lg.lo, lg.adjncy)
    else:
        keys = lg.adjncy.astype(np.uint64)
    n_slots = len(lg.adjncy)
    if not n_slots:
        return lg.adjncy
    perm = np.lexsort((
        -np.arange(n_slots), np.invert(keys), -lg.weights, src_local,
    ))
    return lg.adjncy[perm]


def greedy_order(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``greedy_matching``'s edge order: descending (w, h), full ties
    latest edge first."""
    return np.lexsort((h, w))[::-1]


def csr_rows(num_vertices: int, u, v, w):
    """``(xadj, adjncy, weights)`` as ``from_edges`` built them with
    ``lexsort((dst, src))`` and ``np.add.at``."""
    src = np.concatenate([u, v]).astype(np.int64)
    dst = np.concatenate([v, u]).astype(np.int64)
    ww = np.concatenate([w, w]).astype(np.float64)
    order = np.lexsort((dst, src))
    src, dst, ww = src[order], dst[order], ww[order]
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(xadj, src + 1, 1)
    np.cumsum(xadj, out=xadj)
    return xadj, dst, ww
