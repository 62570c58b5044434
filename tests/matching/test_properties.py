"""Property-based tests (hypothesis) on matching invariants.

Random graphs are drawn edge-by-edge; the core invariants:

* every backend reproduces the unique serial greedy matching, and Birn
  et al.'s local-max matching, an oracle derived independently of both
  ``serial.py`` and ``state.py``;
* matchings are valid and maximal;
* the half-approximation bound holds against the exact optimum;
* matching weight is invariant under vertex relabeling.

``tests/conftest.py`` registers a ``deep`` profile (``--hypothesis-profile=deep``)
that runs the tests without a fixed example count ten times longer.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.build import build_graph
from repro.graph.csr import CSRGraph, from_edges
from repro.matching import (
    RunConfig,
    check_half_approx,
    check_matching_maximal,
    check_matching_valid,
    greedy_matching,
    locally_dominant_matching,
    matching_weight,
    run_matching,
)
from repro.mpisim import zero_latency
from repro.util.hashing import edge_hash_array

FAST = zero_latency()
# The six backends, split between the two distributed properties.
POINT_TO_POINT = ("nsr", "nsr-agg", "mbp")
COLLECTIVE_AND_RMA = ("rma", "ncl", "incl")

SLOWISH = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_n=24, max_m=60):
    n = draw(st.integers(min_value=4, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=m,
            max_size=m,
        )
    )
    seed = draw(st.integers(0, 2**31))
    u = np.array([a for a, b in edges], dtype=np.int64)
    v = np.array([b for a, b in edges], dtype=np.int64)
    return build_graph(n, u, v, seed=seed)


@SLOWISH
@given(g=random_graphs())
def test_serial_algorithms_agree(g: CSRGraph):
    a = greedy_matching(g)
    b = locally_dominant_matching(g)
    assert np.array_equal(a.mate, b.mate)


@SLOWISH
@given(g=random_graphs())
def test_matching_valid_and_maximal(g: CSRGraph):
    res = locally_dominant_matching(g)
    check_matching_valid(g, res.mate)
    check_matching_maximal(g, res.mate)


@SLOWISH
@given(g=random_graphs(max_n=14, max_m=30))
def test_half_approx_against_exact(g: CSRGraph):
    res = greedy_matching(g)
    check_half_approx(g, res.mate)


@st.composite
def multigraphs(draw, max_n=24, max_m=60):
    """Random graphs that keep parallel edges, weighted either from a
    continuous range or with two values only (ties everywhere, so the
    hash tie-break decides)."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda e: (e[0], e[1] + (e[1] >= e[0])))  # no self-loops
    pairs = draw(st.lists(pair, max_size=max_m))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    two_valued = draw(st.booleans())
    weight = st.sampled_from([1.0, 2.0]) if two_valued else st.floats(0.5, 10.0)
    w = [draw(weight) for _ in pairs]
    return from_edges(n, [a for a, _ in pairs], [b for _, b in pairs], w)


def local_max_matching(g: CSRGraph) -> np.ndarray:
    """Birn et al.'s local-max matching, in synchronous rounds: every
    live edge whose (weight, edge hash) key is the largest at both of
    its endpoints joins, and matched vertices leave with their edges.
    Each parallel copy of an edge is an edge with its own weight."""
    u, v, w = g.edge_list()
    keys = zip(w.tolist(), edge_hash_array(u, v).tolist())
    live = list(zip(u.tolist(), v.tolist(), keys))
    mate = [-1] * g.num_vertices
    while live:
        best: dict[int, tuple[float, int]] = {}
        for a, b, k in live:
            for x in (a, b):
                if x not in best or k > best[x]:
                    best[x] = k
        for a, b, k in live:
            if best[a] == k == best[b] and mate[a] == mate[b] == -1:
                mate[a], mate[b] = b, a
        live = [e for e in live if mate[e[0]] == mate[e[1]] == -1]
    return np.array(mate, dtype=np.int64)


def assert_backends_equal_both_oracles(g: CSRGraph, nprocs, models):
    """Every backend in ``models`` gives a valid, maximal mate array
    equal to ``greedy_matching`` and to :func:`local_max_matching`."""
    nprocs = min(nprocs, g.num_vertices)
    greedy = greedy_matching(g).mate
    local_max = local_max_matching(g)
    for model in models:
        mate = run_matching(g, nprocs, model, config=RunConfig(machine=FAST)).mate
        check_matching_valid(g, mate)
        check_matching_maximal(g, mate)
        assert np.array_equal(mate, greedy), model
        assert np.array_equal(mate, local_max), model


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=multigraphs(), nprocs=st.integers(2, 8))
def test_distributed_nsr_equals_greedy(g: CSRGraph, nprocs):
    assert_backends_equal_both_oracles(g, nprocs, POINT_TO_POINT)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=multigraphs(), nprocs=st.integers(2, 8))
def test_distributed_collectives_equal_greedy(g: CSRGraph, nprocs):
    assert_backends_equal_both_oracles(g, nprocs, COLLECTIVE_AND_RMA)


@SLOWISH
@given(g=random_graphs(), perm_seed=st.integers(0, 1000))
def test_weight_invariant_under_relabeling(g: CSRGraph, perm_seed):
    from repro.util.rng import make_rng

    perm = make_rng(perm_seed, "perm").permutation(g.num_vertices).astype(np.int64)
    gp = g.permuted(perm)
    w1 = greedy_matching(g).weight
    w2 = greedy_matching(gp).weight
    assert abs(w1 - w2) < 1e-9


@SLOWISH
@given(g=random_graphs())
def test_matched_weight_recomputation(g: CSRGraph):
    res = greedy_matching(g)
    assert abs(matching_weight(g, res.mate) - res.weight) < 1e-9
