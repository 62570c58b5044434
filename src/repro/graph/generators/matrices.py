"""Sparse-matrix-shaped proxies for the paper's Cage15 and HV15R inputs.

Cage15 (DNA electrophoresis) and HV15R (CFD) are SuiteSparse matrices
whose natural orderings are structured but suboptimal. The reordering
study (§V-C, Figs. 7-9, Tables V-VI) rests on four properties that the
proxy must reproduce:

1. the original ordering has a wide band that RCM tightens (Fig. 7);
2. the original 1D partition is *imbalanced* — per-rank ghost-edge counts
   |E'_i| vary strongly — and RCM's level-set ordering mixes regions,
   cutting sigma(|E'|) by tens of percent (Table V);
3. RCM slightly increases total cross edges / communication volume under
   naive 1D re-partitioning (Table V, Fig. 9);
4. consequently NSR slows down on the reordered graph while NCL (whose
   blocking collectives are bound by the most-loaded neighborhood) gains
   from the balance (Fig. 8).

The generator is a **comb mesh**: several long strip meshes ("branches")
of *different densities*, joined by a spine. Vertices are numbered
branch-by-branch, row-major within a branch — so the natural band is wide
(one grid step jumps a whole row of columns) and each rank's block sits
inside a single branch (dense branches make overloaded ranks). RCM
flood-fills from the spine through all branches at once: its level sets
interleave dense and sparse branches, which simultaneously narrows the
band and balances per-rank load — exactly the paper's mechanism.
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import build_graph
from repro.graph.csr import CSRGraph
from repro.util.rng import make_rng


def comb_mesh_graph(
    n: int,
    branches: int = 4,
    width: int = 10,
    density: tuple[float, ...] | None = None,
    extra_degree: float = 6.0,
    local_span: int = 3,
    skip_degree: float = 0.8,
    skip_span: tuple[int, int] = (12, 48),
    long_range_fraction: float = 0.0006,
    *,
    seed: int = 0,
    weight_scheme: str = "uniform",
    distinct_weights: bool = True,
) -> CSRGraph:
    """Comb of ``branches`` strip meshes with per-branch edge density.

    ``density[b]`` scales branch b's extra (non-grid) edges; ``extra_degree``
    is the average extra degree across branches; ``local_span`` bounds the
    column distance of extra edges (keeps them band-local).

    ``skip_degree`` adds same-row edges skipping ``skip_span`` columns:
    these are *local* under the natural ordering (a few dozen ids apart)
    but span several RCM level-blocks — the edges responsible for RCM
    *increasing* ghost counts and roughly doubling the process-graph
    degree (paper Tables V-VI).
    """
    if branches < 1 or width < 2:
        raise ValueError("need branches >= 1 and width >= 2")
    cols = n // (branches * width)
    if cols < 4:
        raise ValueError("n too small for this branches/width combination")
    n_used = branches * width * cols
    rng = make_rng(seed, "comb")
    if density is None:
        # Spread densities over ~5x so the original partition is imbalanced.
        density = tuple(0.4 + 2.4 * b / max(1, branches - 1) for b in range(branches))
    if len(density) != branches:
        raise ValueError("density must have one entry per branch")

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for b in range(branches):
        base = b * width * cols
        ids = base + (
            np.arange(width * cols, dtype=np.int64).reshape(width, cols)
        )
        # Grid edges (row-major numbering: vertical steps span `cols` ids —
        # the wide natural band RCM will tighten).
        us += [ids[:, :-1].ravel(), ids[:-1, :].ravel()]
        vs += [ids[:, 1:].ravel(), ids[1:, :].ravel()]
        # Extra band-local edges, scaled by the branch density. Row-local
        # (|dr| <= 1) so they stay within a rank under both orderings and
        # purely carry the density imbalance.
        k = int(width * cols * extra_degree * density[b] / (2.0 * np.mean(density)))
        if k > 0:
            r1 = rng.integers(0, width, size=k)
            r2 = np.clip(r1 + rng.integers(-1, 2, size=k), 0, width - 1)
            c1 = rng.integers(0, cols, size=k)
            dc = rng.integers(-local_span, local_span + 1, size=k)
            c2 = np.clip(c1 + dc, 0, cols - 1)
            us.append(base + r1 * cols + c1)
            vs.append(base + r2 * cols + c2)
        # Column-skip edges: same row, a few dozen columns apart.
        ks = int(width * cols * skip_degree / 2.0)
        if ks > 0:
            r = rng.integers(0, width, size=ks)
            c1 = rng.integers(0, cols, size=ks)
            dc = rng.integers(skip_span[0], skip_span[1] + 1, size=ks)
            c2 = np.minimum(c1 + dc, cols - 1)
            us.append(base + r * cols + c1)
            vs.append(base + r * cols + c2)

    # Spine: tie branch b's column-0 boundary to branch b+1's, so RCM's
    # BFS reaches every branch within `width` levels of the root.
    for b in range(branches - 1):
        lo = b * width * cols
        hi = (b + 1) * width * cols
        rows = np.arange(width, dtype=np.int64)
        us.append(lo + rows * cols)  # column 0 of branch b
        vs.append(hi + rows * cols)  # column 0 of branch b+1

    u = np.concatenate(us)
    v = np.concatenate(vs)

    # A pinch of unstructured long-range coupling (real matrices are not
    # perfectly banded; also keeps the process graph from degenerating to
    # an exact path).
    m_lr = max(1, int(len(u) * long_range_fraction))
    u = np.concatenate([u, rng.integers(0, n_used, size=m_lr, dtype=np.int64)])
    v = np.concatenate([v, rng.integers(0, n_used, size=m_lr, dtype=np.int64)])

    return build_graph(n_used, u, v, seed=seed, weight_scheme=weight_scheme,
                       distinct_weights=distinct_weights)


def cage15_proxy(n: int = 12_000, *, seed: int = 0, **overrides) -> CSRGraph:
    """Cage15-shaped proxy (paper: 5.15M vertices, 99M edges, |E|/|V|~19)."""
    kwargs = dict(branches=4, width=10, extra_degree=14.0, local_span=3,
                  skip_degree=1.0, skip_span=(20, 80),
                  long_range_fraction=0.0001)
    kwargs.update(overrides)
    return comb_mesh_graph(n, seed=seed, **kwargs)


def hv15r_proxy(n: int = 6_000, *, seed: int = 0, **overrides) -> CSRGraph:
    """HV15R-shaped proxy (paper: 2M vertices, 283M edges, |E|/|V|~140).

    Much denser rows than Cage15 (CFD stencil blocks); density is scaled
    down with size but the contrast with Cage15 is kept.
    """
    kwargs = dict(branches=5, width=8, extra_degree=40.0, local_span=2,
                  skip_degree=0.5, skip_span=(12, 36),
                  long_range_fraction=0.0001)
    kwargs.update(overrides)
    return comb_mesh_graph(n, seed=seed, **kwargs)
