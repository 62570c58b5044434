"""Graph500-style BFS: serial oracle, distributed agreement, validation."""

import hashlib

import numpy as np
import pytest

from repro.bfs import bfs_levels, bfs_parents, run_bfs, validate_bfs_levels
from repro.graph.csr import from_edges
from repro.graph.generators import grid2d_graph, kmer_graph, path_graph, rmat_graph
from repro.mpisim import zero_latency

FAST = zero_latency()


def test_serial_levels_path():
    g = path_graph(6, seed=1)
    assert bfs_levels(g, 0).tolist() == [0, 1, 2, 3, 4, 5]
    assert bfs_levels(g, 3).tolist() == [3, 2, 1, 0, 1, 2]


def test_serial_levels_unreachable():
    g = from_edges(5, [0, 3], [1, 4])
    lvl = bfs_levels(g, 0)
    assert lvl.tolist() == [0, 1, -1, -1, -1]


def test_serial_parents():
    g = path_graph(4, seed=1)
    par = bfs_parents(g, 0)
    assert par[0] == 0
    assert par.tolist() == [0, 0, 1, 2]


def test_root_validation():
    g = path_graph(4, seed=1)
    with pytest.raises(ValueError):
        bfs_levels(g, 99)


def test_validate_accepts_good_levels():
    g = grid2d_graph(5, 5, seed=1)
    validate_bfs_levels(g, 0, bfs_levels(g, 0))


def test_validate_rejects_level_jump():
    g = path_graph(4, seed=1)
    bad = np.array([0, 2, 3, 4])
    with pytest.raises(AssertionError):
        validate_bfs_levels(g, 0, bad)


def test_validate_rejects_wrong_root():
    g = path_graph(4, seed=1)
    bad = np.array([1, 1, 2, 3])
    with pytest.raises(AssertionError):
        validate_bfs_levels(g, 0, bad)


@pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
def test_distributed_matches_serial(nprocs):
    g = rmat_graph(8, seed=7)
    ref = bfs_levels(g, 0)
    lvl, _, rounds = run_bfs(g, nprocs, root=0, machine=FAST)
    assert np.array_equal(lvl, ref)
    assert rounds >= 1


def test_distributed_nonzero_root():
    g = grid2d_graph(8, 8, seed=2)
    root = 37
    ref = bfs_levels(g, root)
    lvl, _, _ = run_bfs(g, 4, root=root, machine=FAST)
    assert np.array_equal(lvl, ref)


def test_distributed_disconnected():
    g = kmer_graph(600, bridge_fraction=0.0, seed=3)  # many components
    ref = bfs_levels(g, 0)
    lvl, _, _ = run_bfs(g, 4, root=0, machine=FAST)
    assert np.array_equal(lvl, ref)
    assert np.any(lvl == -1)  # genuinely disconnected


def test_distributed_counters():
    g = rmat_graph(8, seed=7)
    _, res, _ = run_bfs(g, 4, root=0, machine=FAST)
    assert res.counters.p2p.total_messages() > 0
    assert res.makespan > 0


def test_golden_pin():
    # Recorded by the thread-per-rank engine in its last commit (rmat
    # scale 8, seed 3, P=4, cori-aries); the generator port must
    # reproduce it to the bit.
    g = rmat_graph(8, seed=3)
    level, res, rounds = run_bfs(g, 4)
    assert res.makespan == 0.0001563574999999999
    assert rounds == 4
    assert res.counters.p2p.total_messages() == 38
    assert hashlib.sha256(level.tobytes()).hexdigest()[:16] == "1b4287eb7722ae73"
