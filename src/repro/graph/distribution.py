"""1D vertex-block distribution with ghost vertices (paper §IV-A).

Each rank owns a contiguous block of vertex ids and *all* edges incident
on them; an edge {u, v} whose endpoints live on different ranks is stored
on both (the remote endpoint is a "ghost"). The undirected process graph
connects two ranks iff they share at least one cross edge; its structure
(degree distribution, Tables III-VI) governs the behaviour of every
communication model studied.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


class BlockDistribution:
    """Contiguous block mapping of vertex ids to ranks.

    By default blocks are *vertex-balanced*: the first ``n % p`` ranks
    receive ``n // p + 1`` vertices, the rest ``n // p``. Arbitrary
    contiguous boundaries may be supplied via ``starts`` (see
    :func:`edge_balanced_distribution` for the degree-aware variant the
    paper's conclusion conjectures about).
    """

    def __init__(
        self,
        num_vertices: int,
        nprocs: int,
        starts: np.ndarray | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if num_vertices < nprocs:
            raise ValueError(
                f"need at least one vertex per rank ({num_vertices} < {nprocs})"
            )
        self.num_vertices = num_vertices
        self.nprocs = nprocs
        if starts is None:
            base, rem = divmod(num_vertices, nprocs)
            counts = np.full(nprocs, base, dtype=np.int64)
            counts[:rem] += 1
            self._starts = np.zeros(nprocs + 1, dtype=np.int64)
            np.cumsum(counts, out=self._starts[1:])
        else:
            starts = np.asarray(starts, dtype=np.int64)
            if starts.shape != (nprocs + 1,):
                raise ValueError(f"starts must have length nprocs+1 = {nprocs + 1}")
            if starts[0] != 0 or starts[-1] != num_vertices:
                raise ValueError("starts must span [0, num_vertices]")
            if np.any(np.diff(starts) < 1):
                raise ValueError("every rank must own at least one vertex")
            self._starts = starts.copy()
        #: ``starts`` as a plain list, for one ``bisect`` per scalar lookup
        #: (shared by every rank's state: one list per distribution)
        self.start_list: list[int] = self._starts.tolist()

    def range_of(self, rank: int) -> tuple[int, int]:
        """Half-open global-id range [lo, hi) owned by ``rank``."""
        return int(self._starts[rank]), int(self._starts[rank + 1])

    def local_count(self, rank: int) -> int:
        lo, hi = self.range_of(rank)
        return hi - lo

    def owner(self, v: int) -> int:
        """Owning rank of global vertex ``v`` (O(log p))."""
        return bisect_right(self.start_list, v) - 1

    def owner_array(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        return (np.searchsorted(self._starts, vs, side="right") - 1).astype(np.int64)

    @property
    def starts(self) -> np.ndarray:
        return self._starts


@dataclass(frozen=True)
class LocalGraph:
    """One rank's partition: owned rows of the CSR plus ghost metadata.

    Row data is a zero-copy view into the global CSR (`adjncy` keeps
    *global* neighbor ids; ownership tests go through the distribution).
    """

    rank: int
    dist: BlockDistribution
    lo: int  #: first owned global vertex id
    hi: int  #: one past the last owned global vertex id
    xadj: np.ndarray  #: local offsets, length (hi - lo + 1), starting at 0
    adjncy: np.ndarray  #: global neighbor ids of owned vertices
    weights: np.ndarray
    ghost_ranks: np.ndarray  #: neighbor ranks, ascending (int64)
    ghost_edges: np.ndarray  #: cross edges shared with each of ``ghost_ranks``

    @property
    def num_owned(self) -> int:
        return self.hi - self.lo

    @property
    def neighbor_ranks(self) -> list[int]:
        """Ranks sharing a cross edge with this one, ascending, unique."""
        return self.ghost_ranks.tolist()

    @property
    def ghost_counts(self) -> dict[int, int]:
        """Neighbor rank -> number of cross edges (a fresh dict per read)."""
        return dict(zip(self.ghost_ranks.tolist(), self.ghost_edges.tolist()))

    @property
    def num_cross_edges(self) -> int:
        return int(self.ghost_edges.sum())

    @property
    def num_local_directed_edges(self) -> int:
        return len(self.adjncy)

    def owns(self, v: int) -> bool:
        return self.lo <= v < self.hi

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of owned global vertex ``v``."""
        i = v - self.lo
        s, e = self.xadj[i], self.xadj[i + 1]
        return self.adjncy[s:e], self.weights[s:e]

    def memory_bytes(self) -> int:
        return int(self.xadj.nbytes + self.adjncy.nbytes + self.weights.nbytes)

    def edges_with_ghosts(self) -> int:
        """|E'_i|: undirected edges stored on this rank (internal edges
        once, cross edges once each — they also appear on the peer)."""
        owners = self.dist.owner_array(self.adjncy)
        internal_directed = int(np.count_nonzero(owners == self.rank))
        return internal_directed // 2 + self.num_cross_edges


def edge_balanced_distribution(g: CSRGraph, nprocs: int) -> BlockDistribution:
    """Contiguous blocks balancing *edges* (degree sums) instead of vertices.

    The paper observes that its uniform 1D partition leaves RCM-reordered
    graphs imbalanced and conjectures that "careful distribution of
    reordered graphs can lead to significant performance benefits" (§VII).
    This is the simplest such distribution: cut the vertex sequence where
    the running degree sum crosses multiples of ``2|E| / p``.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    n = g.num_vertices
    if n < nprocs:
        raise ValueError(f"need at least one vertex per rank ({n} < {nprocs})")
    # xadj is the prefix sum of degrees already.
    total = float(g.xadj[-1])
    targets = np.arange(1, nprocs, dtype=np.float64) * (total / nprocs)
    cuts = np.searchsorted(g.xadj[1:], targets, side="left") + 1
    # Enforce at least one vertex per rank (degenerate graphs/hubs): a
    # hub's degree can put several targets inside one vertex, so every
    # cut must clear the one before it, and leave a vertex for every
    # later rank.
    cuts = np.maximum.accumulate(np.clip(cuts, 1, n - 1))
    prev = 0
    for i in range(len(cuts)):
        prev = cuts[i] = min(max(cuts[i], prev + 1), n - (nprocs - 1 - i))
    starts = np.concatenate(([0], cuts, [n])).astype(np.int64)
    return BlockDistribution(n, nprocs, starts=starts)


def partition_graph(
    g: CSRGraph, nprocs: int, dist: BlockDistribution | None = None
) -> list[LocalGraph]:
    """Split ``g`` into per-rank :class:`LocalGraph` partitions.

    ``dist`` defaults to the vertex-balanced block distribution; pass
    :func:`edge_balanced_distribution` output for the degree-aware layout.
    """
    dist = dist or BlockDistribution(g.num_vertices, nprocs)
    parts: list[LocalGraph] = []
    for rank in range(nprocs):
        lo, hi = dist.range_of(rank)
        s, e = int(g.xadj[lo]), int(g.xadj[hi])
        xadj = (g.xadj[lo : hi + 1] - g.xadj[lo]).astype(np.int64)
        adjncy = g.adjncy[s:e]
        weights = g.weights[s:e]
        owners = dist.owner_array(adjncy)
        ghost_ranks, ghost_edges = np.unique(
            owners[owners != rank], return_counts=True)
        parts.append(
            LocalGraph(
                rank=rank,
                dist=dist,
                lo=lo,
                hi=hi,
                xadj=xadj,
                adjncy=adjncy,
                weights=weights,
                ghost_ranks=ghost_ranks,
                ghost_edges=ghost_edges.astype(np.int64, copy=False),
            )
        )
    return parts


def process_graph_adjacency(parts: list[LocalGraph]) -> list[list[int]]:
    """The undirected process graph as per-rank sorted neighbor lists."""
    return [p.neighbor_ranks for p in parts]
