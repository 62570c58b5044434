"""The traced run: where each workload's host time goes, by layer.

Separate from the gated runs and the only part of the ladder that
reaches below the public surface. Every layer is measured from outside,
by timing calls into its functions:

* **Pass A** re-performs each ladder step from its public parts —
  ``partition_graph``, ``Engine(...).run(matching_rank_main, ...)``,
  ``assemble_global_mate``, ``matching_weight``, ``energy_report``,
  ``record_to_dict`` — under ``perf_counter_ns`` spans, right after the
  untraced ``api.run`` of the same round, and must reproduce its
  (makespan, weight, messages) or the run fails.
* **Pass B** wraps only the engine run in ``cProfile`` and folds self
  time and call counts by source file under ``src/repro/``. The
  profiler inflates absolute times, so only shares are reported; call
  counts repeat exactly.
* For ``service-mix`` the spans are the client's phases, plus in-process
  probes of the envelope's parts on an inline executor.

Spans stay in memory; the parent writes them to ``--trace-out``.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import pstats
import statistics
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from spec import PER_LAYER, ROOT, WORK_DIR
from workloads import (
    GENERATE,
    Ladder,
    LadderError,
    Op,
    ServiceMix,
    engine_kwargs,
    run_ladder,
    run_service,
)

PACKAGE = ROOT / "src" / "repro"
#: span name -> the per-layer metric its duration (median repeat of
#: each step, summed over steps) feeds
SPAN_METRICS = {
    "graph.partition": "graph.partition_s",
    "mpisim.engine_run": "mpisim.engine_run_s",
    "matching.assemble": "matching.assemble_s",
    "matching.weight": "matching.weight_s",
    "mpisim.energy_report": "mpisim.energy_report_s",
    "harness.record_to_dict": "harness.record_to_dict_s",
}
#: layers with a ``<layer>.self_share`` metric of their own: source files
#: of the package, and ``other`` for everything outside it
PROFILED_LAYERS = tuple(
    name.removesuffix(".self_share") for name in PER_LAYER
    if name.endswith(".self_share")
    and name not in ("matching.backend.self_share", "rest.self_share")
)


class SpanLog:
    """Spans in memory: name, start, end, parent, one trace id per case."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace: str):
        rec = {
            "id": len(self.spans), "name": name, "trace": trace,
            "parent": self._open[-1] if self._open else None,
            "start_ns": 0, "end_ns": 0,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start_ns"] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = perf_counter_ns()
            self._open.pop()


def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Self time of each span: its duration minus its children's."""
    out = {s["id"]: duration_ns(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration_ns(s)
    return out


def moved(e: ImportError) -> LadderError:
    return LadderError(
        f"the traced run needs a repro internal that has moved ({e}); "
        "update benchmarks/ladder/tracing.py — the gated runs are unaffected"
    )


def ladder_internals() -> SimpleNamespace:
    """The names below the public surface that Pass A and B call."""
    try:
        from repro.api import RunRecord
        from repro.graph.distribution import partition_graph
        from repro.harness.records import record_to_dict
        from repro.matching.driver import MatchingOptions, matching_rank_main
        from repro.matching.serial import matching_weight
        from repro.matching.verify import assemble_global_mate
        from repro.mpisim.engine import Engine
        from repro.mpisim.machine import cori_aries
        from repro.mpisim.power import energy_report
    except ImportError as e:
        raise moved(e) from e
    return SimpleNamespace(**locals())


def service_internals() -> SimpleNamespace:
    """The parts of the service envelope the probes time one by one."""
    try:
        from repro.service.codever import code_version
        from repro.service.orchestrator import Orchestrator
        from repro.service.pool import InlineExecutor
        from repro.service.schema import parse_request
        from repro.service.store import ResultStore
    except ImportError as e:
        raise moved(e) from e
    return SimpleNamespace(**locals())


# ----------------------------------------------------------------------
# ladder workloads
# ----------------------------------------------------------------------


class LadderTracer:
    """Pass A: re-performs each step under spans, in the round it ran."""

    def __init__(self, wl: Ladder, seed: int):
        self.lib = ladder_internals()
        self.wl = wl
        self.seed = seed
        self.log = SpanLog()
        #: (step, span name) -> one duration per round
        self.ns: dict[tuple[str, str], list[int]] = {}

    def after_step(self, step: str, g, op: Op | None) -> None:
        first = len(self.log.spans)
        trace = f"{self.wl.name}/{step}/{len(self.ns.get((step, 'case'), ()))}"
        gc.collect()
        with self.log.span("case", trace):
            if step == GENERATE:
                with self.log.span("graph.generate", trace):
                    self.wl.graph(self.seed)
            else:
                got = self.decomposed(g, step, trace)
        for s in self.log.spans[first:]:
            self.ns.setdefault((step, s["name"]), []).append(duration_ns(s))
        if op is not None and op.error is None:
            want = (op.counts[0], op.weight, op.counts[1])
            if got != want:
                raise LadderError(
                    f"{trace}: the decomposed run gave (makespan, weight, "
                    f"messages) {got}, api.run gave {want}"
                )

    def decomposed(self, g, model: str, trace: str) -> tuple:
        """``api.run`` taken apart; returns (makespan, weight, messages)."""
        lib, span = self.lib, self.log.span
        with span("graph.partition", trace):
            parts = lib.partition_graph(g, self.wl.nprocs)
        with span("mpisim.engine_run", trace):
            res = lib.Engine(
                self.wl.nprocs, lib.cori_aries(), **engine_kwargs()
            ).run(lib.matching_rank_main, args=(parts, model, lib.MatchingOptions()))
        with span("matching.assemble", trace):
            mate = lib.assemble_global_mate(res.rank_results, g.num_vertices)
        with span("matching.weight", trace):
            weight = lib.matching_weight(g, mate)
        c = res.counters
        with span("mpisim.energy_report", trace):
            energy = lib.energy_report(model.upper(), res.makespan, c, None)
        with span("harness.record_to_dict", trace):
            kinds = (c.p2p, c.rma, c.ncl)
            rec = lib.RunRecord(
                graph="?", nprocs=self.wl.nprocs, model=model,
                makespan=res.makespan, weight=weight,
                iterations=max(rr["iterations"] for rr in res.rank_results),
                messages=sum(k.total_messages() for k in kinds),
                bytes_moved=sum(k.total_bytes() for k in kinds),
                mem_per_rank_mb=c.avg_peak_memory() / (1024 * 1024),
                energy=energy,
            )
            lib.record_to_dict(rec)
        return res.makespan, weight, rec.messages

    def span_seconds(self, name: str) -> tuple[float, int]:
        """Sum over steps of the median repeat of span ``name``."""
        repeats = [v for (_, span_name), v in self.ns.items() if span_name == name]
        return sum(map(statistics.median, repeats)) / 1e9, min(map(len, repeats), default=0)


def layer_of(filename: str) -> str:
    """``src/repro/mpisim/engine.py`` -> ``mpisim.engine``; else ``other``."""
    try:
        rel = Path(filename).relative_to(PACKAGE)
    except ValueError:
        return "other"  # builtins, numpy, the standard library
    return ".".join(rel.with_suffix("").parts)


def profile_engine_run(lib, g, nprocs: int, model: str) -> dict[str, tuple[float, int]]:
    """Pass B: (self seconds, calls) of one engine run, folded by file."""
    parts = lib.partition_graph(g, nprocs)
    engine = lib.Engine(nprocs, lib.cori_aries(), **engine_kwargs())
    prof = cProfile.Profile()
    prof.enable()
    engine.run(lib.matching_rank_main, args=(parts, model, lib.MatchingOptions()))
    prof.disable()
    folded: dict[str, tuple[float, int]] = {}
    for (filename, _, _), (_, calls, self_s, _, _) in pstats.Stats(prof).stats.items():
        layer = layer_of(filename)
        t, n = folded.get(layer, (0.0, 0))
        folded[layer] = (t + self_s, n + calls)
    return folded


def profile_metrics(profiles: dict[str, dict[str, tuple[float, int]]]) -> dict:
    """Shares and call counts over the workload's models taken together."""
    total: dict[str, tuple[float, int]] = {}
    for folded in profiles.values():
        for layer, (t, n) in folded.items():
            t0, n0 = total.get(layer, (0.0, 0))
            total[layer] = (t0 + t, n0 + n)
    all_s = sum(t for t, _ in total.values())
    cases = len(profiles)
    backends = {"matching." + model.replace("-", "_") for model in profiles}
    metrics = {
        "matching.backend.self_share":
            (sum(total.get(b, (0.0, 0))[0] for b in backends) / all_s, cases),
    }
    for layer in PROFILED_LAYERS:
        t, n = total.get(layer, (0.0, 0))
        metrics[f"{layer}.self_share"] = (t / all_s, cases)
        if f"{layer}.calls" in PER_LAYER:
            metrics[f"{layer}.calls"] = (n, cases)
    # every other file of the package, so that the shares sum to one
    metrics["rest.self_share"] = (1.0 - sum(
        v for k, (v, _) in metrics.items() if k.endswith(".self_share")), cases)
    return metrics


def trace_ladder(wl: Ladder, seed: int, seconds: float, t0: float) -> dict:
    from repro import api
    from repro.graph.generators import rmat_graph

    tracer = LadderTracer(wl, seed)
    # every round runs each step twice, so half the rounds fill the time
    result = run_ladder(wl, seed, seconds / 2, t0, after_step=tracer.after_step)
    metrics = result["metrics"]
    # Paired by round: the two runs of a round are seconds apart, so the
    # host's drift cancels where comparing the two minima would keep it.
    untraced = result["detail"]["step_seconds"]
    rounds = result["detail"]["rounds"]
    metrics["trace.overhead_frac"] = (statistics.median(
        sum(tracer.ns[step, "case"][r] for step in wl.steps) / 1e9
        / sum(untraced[step][r] for step in wl.steps) - 1.0
        for r in range(rounds)
    ), rounds)
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = tracer.span_seconds(span_name)

    if wl.generate_in_op:
        g = wl.graph(seed)
        metrics["graph.generate_s"] = tracer.span_seconds("graph.generate")
    else:  # generation is set-up here; time it once more, on its own
        with tracer.log.span("graph.generate", f"{wl.name}/setup/0") as s:
            g = wl.graph(seed)
        metrics["graph.generate_s"] = (duration_ns(s) / 1e9, 1)

    metrics.update(profile_metrics({
        model: profile_engine_run(tracer.lib, g, wl.nprocs, model)
        for model in wl.models
    }))

    total_ops = metrics["mpisim.total_ops"][0]
    if total_ops:
        metrics["mpisim.ns_per_op"] = (
            metrics["mpisim.engine_run_s"][0] / total_ops * 1e9, rounds)
        metrics["mpisim.switches_per_op"] = (
            metrics["mpisim.scheduler_switches"][0] / total_ops, 1)

    # Informational: the same small run with *no* engine argument; it
    # converges on the number above once the engines collapse into one.
    small = rmat_graph(10, seed=seed)
    t = perf_counter()
    api.run(small, 16, "nsr")
    metrics["mpisim.default_engine_run_s"] = (perf_counter() - t, 1)

    result["spans"] = tracer.log.spans
    return result


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------


def median_of(fn, repeats: int) -> float:
    """Median seconds of ``fn()``, each call timed on its own."""
    samples = []
    for _ in range(repeats):
        t = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - t)
    return statistics.median(samples) / 1e9


def service_probes(wl: ServiceMix, seed: int, log: SpanLog) -> dict:
    """Time the envelope's parts in process, on an inline executor."""
    lib = service_internals()
    _, cold, _ = wl.requests(seed)
    request = cold[0]
    body = request.to_json().encode()
    metrics = {}

    def probe(metric: str, fn, repeats: int, scale: float) -> None:
        with log.span("probe." + metric, "probes"):
            metrics[metric] = (median_of(fn, repeats) * scale, repeats)

    probe("service.codever_ms", lib.code_version, 3, 1e3)
    version = lib.code_version()
    probe("service.schema.parse_us", lambda: lib.parse_request(body), 2000, 1e6)
    probe("service.schema.cache_key_us", lambda: request.cache_key(version), 2000, 1e6)

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="probe-") as store_dir:
        store = lib.ResultStore(store_dir)
        orch = lib.Orchestrator(store, lib.InlineExecutor(), version, linger=0).start()
        try:
            job = orch.submit(request)  # one inline miss fills the store
            if not job.wait(120) or job.result.status != "ok":
                raise LadderError(f"inline probe job failed: {job.result}")
            probe("service.orchestrator.submit_hit_us",
                  lambda: orch.submit(request), 1000, 1e6)
            probe("service.store.lookup_us", lambda: store.lookup(job.key), 1000, 1e6)
            fresh = iter(range(10**6))  # a put publishes once per key
            probe("service.store.put_ms", lambda: store.put(
                dataclasses.replace(job.result, key=f"{next(fresh):064x}")), 50, 1e3)
        finally:
            orch.shutdown()
    return metrics


def trace_service(wl: ServiceMix, seed: int, seconds: float, t0: float) -> dict:
    log = SpanLog()
    result = run_service(wl, seed, seconds, t0, spans=log)
    metrics = result["metrics"]
    metrics.update(service_probes(wl, seed, log))
    if "hit_p50_ms" in metrics:
        metrics["service.http_envelope_ms"] = (
            metrics["hit_p50_ms"][0]
            - metrics["service.orchestrator.submit_hit_us"][0] / 1e3,
            metrics["hit_p50_ms"][1],
        )
    result["spans"] = log.spans
    return result
