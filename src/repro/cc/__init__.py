"""`repro.cc` — distributed connected components (label propagation).

The third owner-computes kernel (after matching and coloring) riding the
same communication substrate. Label propagation is the bulk-synchronous
workhorse of distributed CC: every vertex repeatedly adopts the minimum
label in its closed neighborhood; cross-partition neighborhoods make the
boundary exchange — and therefore the communication model — pluggable:
NSR, RMA or NCL, from the shared layer in :mod:`repro.kernels`.
"""

from repro.cc.distributed import CCRunResult, run_cc
from repro.cc.serial import connected_components, num_components, validate_components

__all__ = [
    "connected_components",
    "num_components",
    "validate_components",
    "run_cc",
    "CCRunResult",
]
