"""Stable integer hashing used for deterministic tie-breaking.

The locally-dominant matching algorithm requires a *total order* on edges.
Raw edge weights may collide (the paper notes pathological behaviour on
uniform-weight paths/grids, §III); following the paper we break ties by
hashing vertex ids rather than comparing raw ids, which destroys the linear
dependence chains that serialize the algorithm on ordered numberings.

All hashes here are pure functions of their integer arguments — no process
state, no Python hash randomization — so every simulated rank (and every
backend) agrees on the ordering.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a high-quality 64-bit integer mixer.

    Used both as a standalone hash and as the seed-derivation step for
    per-component RNG streams.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def vertex_hash(v: int, salt: int = 0) -> int:
    """Stable 64-bit hash of a vertex id (optionally salted)."""
    return splitmix64((int(v) << 1) ^ splitmix64(salt))


def edge_hash(u: int, v: int, salt: int = 0) -> int:
    """Stable, orientation-independent 64-bit hash of an edge {u, v}.

    ``edge_hash(u, v) == edge_hash(v, u)`` so both endpoints' owners compute
    the same tie-break key without communicating.
    """
    a, b = (int(u), int(v)) if u <= v else (int(v), int(u))
    return splitmix64(splitmix64(a ^ splitmix64(salt)) ^ (b * 0x9E3779B97F4A7C15 & _MASK64))


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (for bulk weight jitter)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def edge_hash_array(u: np.ndarray, v: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized orientation-independent edge hash (see :func:`edge_hash`)."""
    a = np.minimum(u, v).astype(np.uint64)
    b = np.maximum(u, v).astype(np.uint64)
    s = np.uint64(splitmix64(salt))
    with np.errstate(over="ignore"):
        mixed_a = splitmix64_array(a ^ s)
        return splitmix64_array(mixed_a ^ (b * np.uint64(0x9E3779B97F4A7C15)))


def edge_order(w: np.ndarray, key: np.ndarray, src: np.ndarray | None = None):
    """Permutation listing edges by descending ``(w, key)``, full ties
    latest position first; grouped by ascending ``src`` when given.

    One stable argsort over big-endian ``uint64`` records ``[src,
    ~ordered(w), ~key, ~position]`` compared as bytes (the four-key sort
    it replaced is kept in ``tests/matching/candidate_oracle.py``).
    ``ordered`` maps a float to an unsigned int of the same order (a
    negative flips every bit, any other sets the sign bit), so ``~ordered``
    keeps a negative's bits and flips the low 63 of any other. ``w + 0.0``
    first makes ``-0.0`` into the ``+0.0`` it compares equal to. NaN has no
    place: ``CSRGraph`` refuses it.
    """
    b = (np.asarray(w, dtype=np.float64) + 0.0).view(np.uint64)
    fields = [] if src is None else [src]
    fields += [np.where(b >> 63, b, b ^ (2**63 - 1)), ~key,
               ~np.arange(len(b), dtype=np.uint64)]
    rec = np.empty((len(b), len(fields)), dtype=">u8")
    for j, f in enumerate(fields):
        rec[:, j] = f
    return np.argsort(rec.view(f"V{8 * len(fields)}").ravel(), kind="stable")
