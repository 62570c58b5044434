"""Whole-run pins for the bulk-synchronous kernels (CC, coloring, BFS).

The counters pin hashes whole runs, so a refactor of the boundary
exchange or the run driver that moves one message, one byte, one
compute charge or one output value shows up here, not only in the
makespan / rounds / count rows of the per-kernel ``GOLDEN`` pins.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.bfs import run_bfs
from repro.cc import connected_components, run_cc, validate_components
from repro.coloring import run_coloring
from repro.graph.generators import rmat_graph
from tests.cc.test_cc import FAST, GRAPHS as CC_GRAPHS


@pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
@pytest.mark.parametrize("name,g", CC_GRAPHS, ids=[n for n, _ in CC_GRAPHS])
def test_cc_rma_matches_oracle(name, g, nprocs):
    r = run_cc(g, nprocs, "rma", machine=FAST)
    validate_components(g, r.labels)
    assert np.array_equal(r.labels, connected_components(g))


def _run(kernel, model, g, nprocs):
    """(makespan, rounds, output array, RunCounters) of one run."""
    if kernel == "bfs":
        level, res, rounds = run_bfs(g, nprocs)
        return res.makespan, rounds, level, res.counters
    if kernel == "cc":
        r = run_cc(g, nprocs, model)
        return r.makespan, r.rounds, r.labels, r.counters
    r = run_coloring(g, nprocs, model)
    return r.makespan, r.rounds, r.colors, r.counters


def _digest(makespan, rounds, values, counters) -> str:
    # Arrays, not repr(RunCounters): that embeds CommMatrix object
    # addresses and differs between two identical runs.
    h = hashlib.sha256(repr((makespan, rounds)).encode())
    h.update(values.tobytes())
    for rc in counters.ranks:
        fields = [getattr(rc, f.name) for f in dataclasses.fields(rc)]
        h.update(repr(fields).encode())
    for matrix in (counters.p2p, counters.rma, counters.ncl):
        h.update(matrix.counts.tobytes())
        h.update(matrix.bytes.tobytes())
    return h.hexdigest()[:16]


# (kernel, model, nprocs) -> digest of the run on rmat scale 8, seed 3,
# cori-aries. Every row but cc/rma was recorded before CC and coloring
# shared one exchange; cc/rma was recorded when CC gained the RMA model.
PIN = {
    ("bfs", "nsr", 4): "269600bf96f6c74c",
    ("bfs", "nsr", 7): "f48b793c3f19b030",
    ("cc", "ncl", 4): "00bc9d3a02c057fd",
    ("cc", "ncl", 7): "1d360d043ec4c872",
    ("cc", "nsr", 4): "cd78fe7d20cf8859",
    ("cc", "nsr", 7): "2d2f5f149a874898",
    ("cc", "rma", 4): "8ad48936bc31e739",
    ("cc", "rma", 7): "fcd157b582610125",
    ("coloring", "ncl", 4): "3d79d540852b29a0",
    ("coloring", "ncl", 7): "e518c2cdfc69f80d",
    ("coloring", "nsr", 4): "350deecef74292ce",
    ("coloring", "nsr", 7): "8266b47f2b0a7185",
    ("coloring", "rma", 4): "120d6d4d196ef78d",
    ("coloring", "rma", 7): "5254f3659c4f0d70",
}


@pytest.mark.parametrize("kernel,model,nprocs", sorted(PIN),
                         ids=[f"{k}-{m}-p{p}" for k, m, p in sorted(PIN)])
def test_counters_pin(kernel, model, nprocs):
    g = rmat_graph(8, seed=3)
    got = _digest(*_run(kernel, model, g, nprocs))
    assert got == PIN[kernel, model, nprocs]
