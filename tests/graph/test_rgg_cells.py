"""The rgg cell-grid search finds exactly the pairs scipy's KD-tree finds.

``close_pairs`` must return the edge set of ``cKDTree.query_pairs`` on
any points, so that every rgg graph keeps its bytes. scipy is imported
here only, as the oracle; no run imports it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators.rgg import close_pairs


def _assert_same_pairs(pts, r):
    from scipy.spatial import cKDTree

    n = len(pts)
    u, v = close_pairs(pts, r)
    assert u.dtype == v.dtype == np.int64
    assert (u != v).all()
    got = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    assert (np.diff(got) > 0).all(), "a pair found twice"
    want = cKDTree(pts).query_pairs(r, output_type="ndarray").astype(np.int64)
    want = np.sort(want[:, 0] * n + want[:, 1]) if len(want) else want[:, 0]
    assert np.array_equal(got, want)


@settings(deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1),
       r=st.floats(1e-4, 1.5))
def test_random_points_match_the_kd_tree(n, seed, r):
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
    _assert_same_pairs(pts, r)


@settings(deadline=None)
@given(m=st.integers(1, 40), n=st.integers(2, 1700),
       seed=st.integers(0, 2**32 - 1), on_border=st.floats(0.0, 1.0))
def test_points_on_cell_borders_at_radius_one_over_k_match(
        m, n, seed, on_border):
    # At r = 1/(m+1) the grid has m cells a side (fewer when n is small).
    # Half the snapped coordinates sit on those cell borders, half on
    # multiples of r, where many pairs lie exactly r apart.
    r = 1.0 / (m + 1)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    snap = rng.uniform(size=(n, 2)) < on_border
    den = rng.choice([m, m + 1], size=int(snap.sum()))
    pts[snap] = rng.integers(0, den + 1) / den
    _assert_same_pairs(pts, r)
