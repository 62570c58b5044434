"""NumPy helpers that keep numpy's optional submodules unimported."""

import numpy as np


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, as ``np.unique(a)`` gives
    them, without the ``numpy.ma`` import (~20 ms a process) that a
    plain ``np.unique`` makes on its first call."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]
