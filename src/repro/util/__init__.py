"""Shared low-level utilities: seeded RNG, stable hashing, table rendering.

They import no other `repro` subpackage, so every other subpackage
(`repro.mpisim`, `repro.graph`, `repro.matching`, ...) can use them without
import cycles. `hashing`, `rng` and `arrays` need numpy; `tables` is stdlib
only, and the re-exports below load on first use, so a process that
formats a table (`repro submit`) does not load numpy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "hashing": ("edge_hash", "splitmix64", "vertex_hash"),
    "rng": ("derive_seed", "make_rng"),
    "tables": ("TextTable", "format_seconds", "format_si"),
})
