"""Graph I/O: Matrix Market, plain edge lists, and fast NPZ snapshots.

MatrixMarket covers interchange with SuiteSparse-style tooling (the
paper's real-world inputs are SuiteSparse matrices); NPZ is a fast
native round-trip. Nothing in the package writes NPZ files: the
harness keeps built graphs in memory (``lru_cache`` in
:mod:`repro.harness.spec`).
"""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph, from_edges


def write_matrix_market(g: CSRGraph, path: str | Path) -> None:
    """Write as a 1-based symmetric coordinate real MatrixMarket file."""
    u, v, w = g.edge_list()
    buf = _io.StringIO()
    buf.write("%%MatrixMarket matrix coordinate real symmetric\n")
    buf.write(f"% written by repro.graph.io\n")
    n = g.num_vertices
    buf.write(f"{n} {n} {len(u)}\n")
    for a, b, ww in zip(u, v, w):
        # symmetric MM stores the lower triangle: row >= col
        buf.write(f"{int(b) + 1} {int(a) + 1} {ww:.17g}\n")
    Path(path).write_text(buf.getvalue())


def read_matrix_market(path: str | Path) -> CSRGraph:
    """Read a symmetric coordinate MatrixMarket file (pattern or real)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("not a MatrixMarket file")
    header = lines[0].lower().split()
    pattern = "pattern" in header
    body = [ln for ln in lines[1:] if ln and not ln.startswith("%")]
    dims = body[0].split()
    n = int(dims[0])
    us, vs, ws = [], [], []
    for ln in body[1:]:
        parts = ln.split()
        r, c = int(parts[0]) - 1, int(parts[1]) - 1
        if r == c:
            continue  # drop diagonal
        us.append(r)
        vs.append(c)
        ws.append(1.0 if pattern else float(parts[2]))
    return from_edges(
        n,
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(ws, dtype=np.float64),
    )


def write_edge_list(g: CSRGraph, path: str | Path, weights: bool = True) -> None:
    """Plain whitespace 0-based edge list, one undirected edge per line."""
    u, v, w = g.edge_list()
    with open(path, "w") as f:
        for a, b, ww in zip(u, v, w):
            if weights:
                f.write(f"{int(a)} {int(b)} {ww:.17g}\n")
            else:
                f.write(f"{int(a)} {int(b)}\n")


def read_edge_list(path: str | Path, num_vertices: int | None = None) -> CSRGraph:
    us, vs, ws = [], [], []
    for ln in Path(path).read_text().splitlines():
        parts = ln.split()
        if not parts or parts[0].startswith("#"):
            continue
        us.append(int(parts[0]))
        vs.append(int(parts[1]))
        ws.append(float(parts[2]) if len(parts) > 2 else 1.0)
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
    return from_edges(num_vertices, u, v, np.array(ws, dtype=np.float64))


def save_npz(g: CSRGraph, path: str | Path) -> None:
    """Lossless binary snapshot (fast cache format)."""
    np.savez_compressed(path, xadj=g.xadj, adjncy=g.adjncy, weights=g.weights)


def load_npz(path: str | Path) -> CSRGraph:
    data = np.load(path)
    return CSRGraph(
        xadj=data["xadj"], adjncy=data["adjncy"], weights=data["weights"]
    )
