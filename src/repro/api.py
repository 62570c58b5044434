"""`repro.api` — the library-first facade every run flows through.

One module owns run orchestration: the CLI subcommands, the experiment
harness (`repro.harness.*`), and the matching-as-a-service job server
(`repro.service`) are all thin clients of the four calls here:

* :func:`run` — one (graph, nprocs, model) point → :class:`RunRecord`;
* :func:`sweep` — a scaling sweep over points × models → figure + records;
* :func:`profile` — one span-profiled run → :class:`ProfileRun`
  (phase tables, critical path, optional artifact bundle on disk);
* :func:`chaos` — a seeded fault-plan sweep → ``ChaosReport``.

This module is the only entry point: the old ``repro.harness.runner``
and ``repro.harness.sweep`` modules are gone (docs/api.md).

>>> from repro import api
>>> rec = api.run(g, 16, "ncl")                     # doctest: +SKIP
>>> fig, recs = api.sweep(points, title="fig 5")    # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.graph.csr import CSRGraph
from repro.knobs import default
from repro.matching.api import MatchingRunResult, run_matching
from repro.matching.config import RunConfig
from repro.matching.driver import CRASH_SURVIVING_BACKENDS
from repro.mpisim.power import EnergyReport, PowerModel, energy_report

if TYPE_CHECKING:  # pure type references; avoids harness import cycles
    from repro.harness.chaos import ChaosReport
    from repro.harness.figures import FigureData

MODELS = ("nsr", "rma", "ncl")


@dataclass
class RunRecord:
    """One experiment data point (the harness's universal currency)."""

    graph: str
    nprocs: int
    model: str
    makespan: float  #: simulated seconds (the paper's "execution time")
    weight: float
    iterations: int
    messages: int
    bytes_moved: int
    mem_per_rank_mb: float
    energy: EnergyReport
    result: MatchingRunResult | None = None  #: full payload (optional)

    def speedup_over(self, baseline: "RunRecord") -> float:
        return baseline.makespan / self.makespan if self.makespan > 0 else float("inf")


def run(
    g: CSRGraph,
    nprocs: int,
    model: str,
    *,
    config: RunConfig | None = None,
    label: str = "?",
    power: PowerModel | None = None,
    keep_result: bool = False,
) -> RunRecord:
    """Execute one matching run and package its measurements.

    The run itself is entirely described by ``config`` (a
    :class:`~repro.matching.config.RunConfig`; ``None`` for the
    defaults). ``power`` and ``keep_result`` are measurement-side knobs:
    they shape the returned :class:`RunRecord`, not the simulation.
    """
    res = run_matching(g, nprocs, model=model, config=config)
    c = res.counters
    erep = energy_report(model.upper(), res.makespan, c, power)
    return RunRecord(
        graph=label,
        nprocs=nprocs,
        model=model,
        makespan=res.makespan,
        weight=res.weight,
        iterations=res.iterations,
        messages=res.total_messages(),
        bytes_moved=(
            c.p2p.total_bytes() + c.rma.total_bytes() + c.ncl.total_bytes()
        ),
        mem_per_rank_mb=c.avg_peak_memory() / (1024 * 1024),
        energy=erep,
        result=res if keep_result else None,
    )


def run_models(
    g: CSRGraph,
    nprocs: int,
    models: tuple[str, ...] = MODELS,
    **kwargs,
) -> dict[str, RunRecord]:
    """Run several communication models on the same (graph, p)."""
    return {m: run(g, nprocs, m, **kwargs) for m in models}


def sweep(
    points: Sequence[tuple[str, CSRGraph, int]],
    models: Sequence[str] = MODELS,
    *,
    title: str,
    xlabel: str = "processes",
    config: RunConfig | None = None,
) -> "tuple[FigureData, list[RunRecord]]":
    """Run ``models`` over a list of (label, graph, nprocs) points.

    Weak scaling passes a different graph per point; strong scaling passes
    the same graph with growing ``nprocs``. Returns the paper-style
    execution-time figure plus the raw records.
    """
    from repro.harness.figures import FigureData

    records: list[RunRecord] = []
    fig = FigureData(title=title, xlabel=xlabel, ylabel="execution time (s)")
    for model in models:
        xs: list[float] = []
        ys: list[float] = []
        for label, g, p in points:
            rec = run(g, p, model, label=label, config=config)
            records.append(rec)
            xs.append(p)
            ys.append(rec.makespan)
        fig.add(model.upper(), xs, ys)
    return fig, records


def best_speedup_over_baseline(
    records: list[RunRecord], baseline: str = "nsr"
) -> dict[tuple[str, int], tuple[float, str]]:
    """Per (graph, p): best speedup over the baseline and which model won."""
    by_point: dict[tuple[str, int], dict[str, RunRecord]] = {}
    for r in records:
        by_point.setdefault((r.graph, r.nprocs), {})[r.model] = r
    out: dict[tuple[str, int], tuple[float, str]] = {}
    for point, models in by_point.items():
        if baseline not in models:
            continue
        base = models[baseline]
        best_model, best_speedup = baseline, 1.0
        for name, rec in models.items():
            if name == baseline:
                continue
            s = rec.speedup_over(base)
            if s > best_speedup:
                best_model, best_speedup = name, s
        out[point] = (best_speedup, best_model)
    return out


@dataclass
class ProfileRun:
    """One span-profiled run plus its rendered analyses."""

    result: MatchingRunResult
    phase_table: str  #: per-rank phase breakdown (rendered text)
    critical_path: str  #: critical-path walk (rendered text)
    artifacts: list[str]  #: files written into ``out`` (empty without it)


def profile(
    g: CSRGraph,
    nprocs: int,
    model: str,
    *,
    config: RunConfig | None = None,
    out: str | None = None,
) -> ProfileRun:
    """One profiled run: phase breakdown, critical path, artifact bundle.

    ``config`` (if given) is forced to ``profile=True``; ``out`` names a
    directory to receive the full artifact bundle (Chrome trace JSON,
    phase CSVs, comm matrices, Table VIII row — see docs/profiling.md).
    """
    from repro.harness import profiler

    cfg = (config or RunConfig()).evolve(profile=True)
    res = run_matching(g, nprocs, model=model, config=cfg)
    prof = res.profile
    files: list[str] = []
    if out:
        files = profiler.write_profile_bundle(out, res, model)
    return ProfileRun(
        result=res,
        phase_table=profiler.phase_table(
            prof, title=f"{model}: time per phase (s)"
        ).render(),
        critical_path=profiler.critical_path(prof).render(),
        artifacts=files,
    )


def chaos(
    g: CSRGraph,
    nprocs: int,
    *,
    backends: tuple[str, ...] = tuple(default("chaos", "backends").split(",")),
    plans: int = default("chaos", "plans"),
    seed: int = default("chaos", "seed"),
    mode: str = "faults",
    max_ops: int | None = default("chaos", "max_ops"),
    spares: int = default("chaos", "spares"),
    replicas: int = default("chaos", "replicas"),
    mtbf: float | None = default("chaos", "mtbf"),
    dataset: str = "?",
    do_shrink: bool = True,
    progress: Callable[[str], None] | None = None,
) -> "ChaosReport":
    """Sample seeded fault plans, verify each run, shrink any failure.

    ``mode`` selects the chaos harness: ``"faults"`` (message/RMA faults,
    crashes, partitions), ``"restart"`` (kill/resume cycles must complete
    bit-identically), or ``"churn"`` (Poisson crash churn under automatic
    rollback-recovery). Crash times and degradation windows are anchored
    to each backend's fault-free makespan, measured here.
    """
    from repro.harness.chaos import (
        churn_matching_runner,
        matching_runner,
        restart_matching_runner,
        run_chaos,
    )

    if mode not in ("faults", "restart", "churn"):
        raise ValueError(f"chaos mode must be faults/restart/churn, got {mode!r}")
    for b in backends:
        if b not in CRASH_SURVIVING_BACKENDS:
            raise ValueError(
                f"chaos supports {'/'.join(CRASH_SURVIVING_BACKENDS)}, got {b!r}")
    # Anchor sampled fault times to each backend's actual fault-free
    # makespan so they land mid-algorithm.
    t_scales = {
        b: run_matching(g, nprocs=nprocs, model=b).makespan for b in backends
    }
    if mode == "restart":
        runner = restart_matching_runner(g, nprocs, t_scales, max_ops=max_ops)
    elif mode == "churn":
        runner = churn_matching_runner(
            g, nprocs, t_scales, max_ops=max_ops,
            spares=spares, replicas=replicas,
        )
    else:
        runner = matching_runner(g, nprocs, max_ops=max_ops)
    return run_chaos(
        runner,
        seed=seed,
        plans=plans,
        nprocs=nprocs,
        backends=backends,
        t_scales=t_scales,
        dataset=dataset,
        do_shrink=do_shrink,
        churn=(mode == "churn"),
        churn_mtbf=mtbf,
        progress=progress,
    )
