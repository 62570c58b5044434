"""Random geometric graphs (RGG) with a distribution-friendly numbering.

The paper's distributed RGG generator guarantees that, under the 1D
vertex-block distribution, each process communicates with **at most two
neighboring processes** (§V-B): points live in a unit square cut into
horizontal strips, one strip per process, and the radius is small enough
that edges only cross adjacent strips.

We reproduce that property by sorting vertices by their y coordinate
before numbering them: a block of consecutive vertex ids then corresponds
to a horizontal band, and edges (length <= radius) connect only adjacent
bands, so the process graph is a path — the best case for neighborhood
collectives, which is exactly why the paper's Fig. 4a shows the largest
NCL wins.

The edges are found with the same geometric split, in numpy: the square
is cut into a k x k grid of cells no narrower than the radius, so a point
only needs comparing with the points of its own cell and of the eight
around it (four of them, counting each pair once). The distance test is
``dx*dx + dy*dy <= r*r``, bit for bit the one scipy's KD-tree pair query
makes, so the edge sets are the ones that query found; scipy (~30 MB and
~0.4 s a process) is never imported.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from repro.graph.build import build_graph
from repro.graph.csr import CSRGraph
from repro.util.rng import make_rng

#: Cell offsets (dx, dy) compared after a point's own cell: each pair of
#: neighbouring cells once.
_FORWARD = ((1, 0), (-1, 1), (0, 1), (1, 1))


def rgg_graph(
    n: int,
    radius: float | None = None,
    *,
    seed: int = 0,
    target_avg_degree: float | None = None,
    weight_scheme: str = "uniform",
    distinct_weights: bool = True,
) -> CSRGraph:
    """Generate an RGG on ``n`` points in the unit square.

    Exactly one of ``radius`` / ``target_avg_degree`` may be given; with
    neither, the radius defaults to the connectivity-threshold scaling
    ``sqrt(2 * ln(n) / (pi * n))``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if radius is not None and target_avg_degree is not None:
        raise ValueError("give either radius or target_avg_degree, not both")
    for name, value in (("radius", radius),
                        ("target_avg_degree", target_avg_degree)):
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    if radius is None:
        if target_avg_degree is not None:
            # E[deg] ~ n * pi * r^2 for points in the unit square
            radius = float(np.sqrt(target_avg_degree / (np.pi * n)))
        else:
            radius = float(np.sqrt(2.0 * np.log(max(n, 3)) / (np.pi * n)))
    rng = make_rng(seed, "rgg")
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    # Number vertices bottom-to-top: consecutive ids = horizontal band.
    order = np.argsort(pts[:, 1], kind="stable")
    u, v = close_pairs(pts[order], float(radius))
    return build_graph(n, u, v, seed=seed, weight_scheme=weight_scheme,
                       distinct_weights=distinct_weights)


def close_pairs(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of rows of ``pts`` (points in the unit square) at most
    ``r`` apart, once each, in no particular order: ``(u, v)`` int64."""
    n = len(pts)
    # Cell side 1/k >= r with a cell of slack for rounding at the
    # borders; at most isqrt(n) + 1 cells a side, so a tiny radius
    # allocates no k*k table.
    k = max(1, int(min(1.0 / r, isqrt(n) + 2.0)) - 1)
    x, y = pts[:, 0], pts[:, 1]
    cx = np.minimum((x * k).astype(np.int64), k - 1)
    cy = np.minimum((y * k).astype(np.int64), k - 1)
    order = np.argsort(cy * k + cx, kind="stable")
    cx, cy, xs, ys = cx[order], cy[order], x[order], y[order]
    cell = cy * k + cx
    start = np.zeros(k * k + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=k * k), out=start[1:])
    pos = np.arange(n, dtype=np.int64)
    rr = r * r
    # Own cell: the later points only.
    found = [_within(pos, pos + 1, start[cell + 1], xs, ys, rr)]
    for dx, dy in _FORWARD:
        nx, ny = cx + dx, cy + dy
        ok = (nx >= 0) & (nx < k) & (ny < k)
        nb = ny[ok] * k + nx[ok]
        found.append(_within(pos[ok], start[nb], start[nb + 1], xs, ys, rr))
    u = np.concatenate([a for a, _ in found])
    v = np.concatenate([b for _, b in found])
    return order[u], order[v]


def _within(a, lo, hi, xs, ys, rr) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(a[i], b)``, ``lo[i] <= b < hi[i]``, whose points are
    at most ``sqrt(rr)`` apart."""
    cnt = hi - lo
    src = np.repeat(a, cnt)
    # candidate t of source i is lo[i] + (t - candidates before i)
    b = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    b += np.arange(len(b))
    dx = xs[src] - xs[b]
    dy = ys[src] - ys[b]
    keep = dx * dx + dy * dy <= rr
    return src[keep], b[keep]
