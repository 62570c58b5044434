"""`repro.harness` — experiment harness regenerating every table and
figure of the paper's evaluation section (see DESIGN.md §4 for the
experiment index)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "experiments.base": ("ExperimentOutput", "all_experiment_ids",
                         "run_experiment"),
    "figures": ("FigureData",),
    "perfprofile": ("PerformanceProfile", "performance_profile"),
    "profiler": ("CriticalPath", "CriticalSegment", "chrome_trace",
                 "chrome_trace_json", "critical_path", "phase_breakdown",
                 "phase_table", "profile_from_chrome", "write_profile_bundle"),
    "spec": ("DEFAULT_SEED", "GraphSpec", "all_specs", "get_graph", "get_spec"),
})
