"""Degree-corrected stochastic block partition graphs (MIT GraphChallenge).

The paper's "stochastic block partitioned graphs — high overlap, low block
sizes (HILO)" come from the GraphChallenge static-partition datasets. The
defining properties for communication behaviour are:

* many small blocks ("low block sizes"),
* a large fraction of edges crossing blocks ("high overlap"),
* power-law-ish degree correction within blocks.

Under a 1D vertex-block distribution these graphs induce a near-complete
process graph (the paper's Table III: dmax = davg = p-1), which is the
regime where blocking neighborhood collectives lose to Send-Recv
(Fig. 4c). Block membership is assigned by interleaving (vertex i is in
block i mod B) so cross-block edges scatter across all ranks, mirroring
the unsorted vertex numbering of the published datasets.
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import build_graph
from repro.graph.csr import CSRGraph
from repro.util.arrays import distinct
from repro.util.rng import make_rng


def sbm_hilo_graph(
    n: int,
    avg_degree: float = 24.0,
    num_blocks: int | None = None,
    overlap: float = 0.6,
    degree_exponent: float = 2.9,
    *,
    seed: int = 0,
    weight_scheme: str = "uniform",
    distinct_weights: bool = True,
) -> CSRGraph:
    """Generate a HILO-style degree-corrected SBM graph.

    ``overlap`` is the fraction of edges whose endpoints lie in different
    blocks ("high overlap" ~0.5-0.7). ``num_blocks`` defaults to
    ``max(8, n // 256)`` ("low block sizes": a few hundred vertices each).
    """
    if n < 16:
        raise ValueError("need n >= 16")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    if num_blocks is None:
        num_blocks = max(8, n // 256)
    num_blocks = min(num_blocks, n)
    rng = make_rng(seed, "sbm")
    m = int(n * avg_degree / 2)

    # Interleaved block membership: vertex i -> block i % B. Per-vertex
    # degree propensity theta ~ Pareto(alpha-1), normalized per block.
    block_of = np.arange(n, dtype=np.int64) % num_blocks
    theta = (1.0 + rng.pareto(degree_exponent - 1.0, size=n))

    # Organize vertices by block for propensity-weighted sampling.
    order = np.argsort(block_of, kind="stable")
    sorted_theta = theta[order]
    block_starts = np.searchsorted(block_of[order], np.arange(num_blocks + 1))

    def sample_in_block(blocks: np.ndarray) -> np.ndarray:
        """Propensity-weighted vertex choice inside each given block."""
        out = np.empty(len(blocks), dtype=np.int64)
        for b in distinct(blocks):
            sel = blocks == b
            lo, hi = block_starts[b], block_starts[b + 1]
            w = sorted_theta[lo:hi]
            probs = w / w.sum()
            idx = rng.choice(hi - lo, size=int(sel.sum()), p=probs)
            out[sel] = order[lo + idx]
        return out

    cross = rng.uniform(size=m) < overlap
    b1 = rng.integers(0, num_blocks, size=m)
    shift = rng.integers(1, max(2, num_blocks), size=m)
    b2 = np.where(cross, (b1 + shift) % num_blocks, b1)
    u = sample_in_block(b1)
    v = sample_in_block(b2)
    return build_graph(n, u, v, seed=seed, weight_scheme=weight_scheme,
                       distinct_weights=distinct_weights)
