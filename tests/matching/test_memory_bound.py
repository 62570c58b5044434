"""What a P=1024 run holds: per-rank state in flat arrays, not containers.

The run has the shape of the ladder's ``scale-rmat-p1024`` rung: rmat
scale 12 (generator seed 1), its vertices relabelled by a seed-1
permutation, 1024 ranks of four vertices each, Send-Recv. Python's
``tracemalloc`` measures the peak of what the run allocates, graph
excluded. Held as per-pair tuples, sets and dicts (cross pairs, ghost
owners, ghost counts, pair arrival times, the communication matrix),
this state traced 50.5 MB on CPython 3.11; in flat arrays it traces
about 31.5 MB.
"""

import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.graph.generators import rmat_graph

#: bytes; the containers' layout traced 50.5e6
TRACED_PEAK_BOUND = 40e6


@pytest.mark.scale
def test_p1024_nsr_run_traces_at_most_40_mb():
    base = rmat_graph(12, seed=1)
    g = base.permuted(np.random.default_rng(1).permutation(base.num_vertices))
    tracemalloc.start()
    try:
        rec = api.run(g, 1024, "nsr")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.messages > 0
    assert peak <= TRACED_PEAK_BOUND, f"traced peak {peak / 1e6:.1f} MB"
