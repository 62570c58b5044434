"""`repro.coloring` — distributed greedy graph coloring.

The paper closes §IV with: "our MPI communication substrate comprising of
Send-Recv, RMA and neighborhood collective routines can be applied to any
graph algorithm imitating the owner-computes model." This package
substantiates that claim with a second kernel — Gebremedhin-Manne
speculative coloring (the other half of the paper's ref [5]) — running
over the same three communication models, through the boundary exchange
and round loop of :mod:`repro.kernels`.
"""

from repro.coloring.distributed import ColoringRunResult, run_coloring
from repro.coloring.serial import (
    NO_COLOR,
    check_color_bound,
    check_coloring_valid,
    greedy_coloring,
    num_colors,
)

__all__ = [
    "greedy_coloring",
    "num_colors",
    "check_coloring_valid",
    "check_color_bound",
    "NO_COLOR",
    "run_coloring",
    "ColoringRunResult",
]
