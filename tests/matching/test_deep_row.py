"""A hub row longer than the recursion limit, every send of it parking.

PROCESSNEIGHBORS returns at each send and ``drain_work_g`` drives the
sends from one flat loop. Were the continuations nested instead (each
send's generator resuming the row), a row of ``d`` parking sends would
stack ``d`` frames and end in ``RecursionError`` once ``d`` passes the
interpreter's limit. The hub here has three times that many cross-rank
neighbours at P=2.
"""

import sys

import numpy as np
import pytest

from repro.graph.csr import from_edges
from repro.graph.distribution import BlockDistribution, partition_graph
from repro.matching import RunConfig, run_matching
from repro.matching.driver import MatchingOptions
from repro.matching.serial import greedy_matching
from repro.matching.state import MatchingState
from repro.mpisim.machine import zero_latency


def hub_graph():
    """Hub 0 and its heaviest neighbour 1, alone on rank 0, and more than
    three recursion limits' worth of leaves on rank 1, each tied to the
    hub and, heavier, to a leaf partner.

    The leaves match among themselves and never propose to the hub, and
    rank 0 reaches its first PROCESSNEIGHBORS after two scans, long before
    rank 1's REJECTs can arrive: the hub's row sends one REJECT per leaf.
    """
    leaves = 2 * (3 * sys.getrecursionlimit() // 2 + 1)
    n = leaves + 2
    lv = np.arange(2, n)
    u = np.concatenate([[0], np.zeros(leaves, dtype=np.int64), lv[::2]])
    v = np.concatenate([[1], lv, lv[1::2]])
    w = np.concatenate([[1e6], 1.0 + np.arange(leaves) / leaves,
                        np.full(leaves // 2, 1e5)])
    g = from_edges(n, u, v, w)
    assert g.degree(0) - 1 > 3 * sys.getrecursionlimit()
    return g, BlockDistribution(n, 2, starts=np.array([0, 2, n]))


@pytest.mark.parametrize("model, options", [
    ("nsr", MatchingOptions()),
    ("nsr-agg", MatchingOptions(agg_flush_count=1)),
    ("ncl", MatchingOptions()),
], ids=["nsr", "nsr-agg-flush1", "ncl"])
def test_hub_row_finishes_and_equals_greedy(model, options):
    g, dist = hub_graph()
    res = run_matching(g, 2, model, config=RunConfig(
        machine=zero_latency(), options=options, dist=dist))
    assert np.array_equal(res.mate, greedy_matching(g).mate)


def test_row_sends_park_at_one_stack_depth():
    """Every REJECT of the hub's row parks from the same frame depth."""
    g, dist = hub_graph()
    depths = []

    def parking_send():
        depths.append(len_stack())
        yield "park"

    def push(ctx_id, dest, x, y):
        return parking_send()

    st = MatchingState(partition_graph(g, 2, dist)[0], push, lambda units: None)
    for _ in st.start_g():  # hub and 1 match locally: nothing is sent
        raise AssertionError("start_g sent")
    assert len(st.work) == 2
    parks = sum(1 for _ in st.drain_work_g())
    assert parks == len(depths) == g.degree(0) - 1
    assert min(depths) == max(depths)


def len_stack():
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n
