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
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import build_graph
from repro.graph.csr import CSRGraph
from repro.util.rng import make_rng


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
    pts = pts[order]
    # Imported here: scipy costs ~40 MB and ~0.5 s a process, and only
    # this family needs it (tests/test_import_hygiene.py keeps it so).
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if len(pairs) == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    u = pairs[:, 0].astype(np.int64)
    v = pairs[:, 1].astype(np.int64)
    return build_graph(n, u, v, seed=seed, weight_scheme=weight_scheme,
                       distinct_weights=distinct_weights)
