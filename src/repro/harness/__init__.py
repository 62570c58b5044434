"""`repro.harness` — experiment harness regenerating every table and
figure of the paper's evaluation section (see DESIGN.md §4 for the
experiment index)."""

from repro.harness.experiments.base import (
    ExperimentOutput,
    all_experiment_ids,
    run_experiment,
)
from repro.harness.figures import FigureData
from repro.harness.perfprofile import PerformanceProfile, performance_profile
from repro.harness.profiler import (
    CriticalPath,
    CriticalSegment,
    chrome_trace,
    chrome_trace_json,
    critical_path,
    phase_breakdown,
    phase_table,
    profile_from_chrome,
    write_profile_bundle,
)
from repro.harness.spec import DEFAULT_SEED, GraphSpec, all_specs, get_graph, get_spec

__all__ = [
    "ExperimentOutput",
    "run_experiment",
    "all_experiment_ids",
    "FigureData",
    "PerformanceProfile",
    "performance_profile",
    "CriticalPath",
    "CriticalSegment",
    "chrome_trace",
    "chrome_trace_json",
    "critical_path",
    "phase_breakdown",
    "phase_table",
    "profile_from_chrome",
    "write_profile_bundle",
    "GraphSpec",
    "get_graph",
    "get_spec",
    "all_specs",
    "DEFAULT_SEED",
]
