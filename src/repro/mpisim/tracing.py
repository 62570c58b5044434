"""Event tracing and span profiling — the simulator's analogue of a TAU
trace file.

Two layers:

* **Events** (``trace=True``): every communication event is appended to
  ``engine.trace`` as a :class:`TraceEvent`. Export helpers turn the
  trace into CSV or per-op summaries.
* **Spans** (``profile=True``): the engine attributes *every* virtual
  second of every rank to a named phase (compute, send, recv, recv-wait,
  put, flush, sync, collective, collective-wait, recovery, ...) as a
  :class:`Span`. The per-rank span lists tile ``[0, makespan]`` exactly
  — an invariant :meth:`RunProfile.validate_tiling` asserts — which is
  what makes the Chrome-trace export and the critical-path analysis in
  :mod:`repro.harness.profiler` sound.

Both layers are off by default: they cost memory proportional to the
event/span count, and the differential suite proves that disabling them
leaves the simulation bit-identical.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

#: span phases that represent waiting on an external event (accounted as
#: idle time by the engine's counters)
WAIT_PHASES = frozenset({"recv-wait", "collective-wait", "recovery-wait", "wait"})
#: phases only used to pad a rank's timeline out to the makespan
FILL_PHASES = frozenset({"done", "crashed"})
#: phases that represent local computation
COMPUTE_PHASES = frozenset({"compute"})


class ProfilingError(RuntimeError):
    """A span-profiling invariant (per-rank tiling) was violated."""


@dataclass(frozen=True, slots=True)
class TraceEvent:
    time: float  #: virtual time the event was issued
    rank: int
    op: str  #: "send", "recv", "put", "flush", "allreduce", ...
    detail: dict[str, Any]


# CSV detail escaping: percent-encode the characters that carry CSV /
# key=value structure, so adversarial detail payloads (member lists with
# commas, multi-line deadlock dumps) cannot break the row format.
_ESC = (("%", "%25"), (",", "%2C"), (";", "%3B"), ("=", "%3D"),
        ("\n", "%0A"), ("\r", "%0D"))


def _escape(s: str) -> str:
    for ch, code in _ESC:
        if ch in s:
            s = s.replace(ch, code)
    return s


def _unescape(s: str) -> str:
    for ch, code in reversed(_ESC):
        if code in s:
            s = s.replace(code, ch)
    return s


def trace_to_csv(events: Iterable[TraceEvent]) -> str:
    """Flatten a trace to CSV (detail rendered as key=value pairs).

    Detail values are rendered with ``repr`` and percent-escaped, and
    times with ``repr`` (shortest exact float form), so the output
    round-trips losslessly through :func:`trace_from_csv`.
    """
    lines = ["time,rank,op,detail"]
    for e in events:
        detail = ";".join(
            f"{_escape(str(k))}={_escape(repr(v))}"
            for k, v in sorted(e.detail.items())
        )
        lines.append(f"{e.time!r},{e.rank},{e.op},{detail}")
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str) -> list[TraceEvent]:
    """Parse :func:`trace_to_csv` output back into :class:`TraceEvent`\\ s.

    Detail values are recovered with ``ast.literal_eval`` where possible
    (ints, floats, strings, tuples, ...) and kept as raw strings
    otherwise.
    """
    out: list[TraceEvent] = []
    lines = [ln for ln in text.split("\n") if ln]
    if lines and lines[0] == "time,rank,op,detail":
        lines = lines[1:]
    for ln in lines:
        time_s, rank_s, op, detail_s = ln.split(",", 3)
        detail: dict[str, Any] = {}
        if detail_s:
            for pair in detail_s.split(";"):
                k, _, v = pair.partition("=")
                v = _unescape(v)
                try:
                    val = ast.literal_eval(v)
                except (ValueError, SyntaxError):
                    val = v
                detail[_unescape(k)] = val
        out.append(TraceEvent(float(time_s), int(rank_s), op, detail))
    return out


def summarize_ops(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Histogram of operation kinds."""
    return dict(Counter(e.op for e in events))


def events_for_rank(events: Iterable[TraceEvent], rank: int) -> list[TraceEvent]:
    return [e for e in events if e.rank == rank]


def fault_events(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    """Only the injected-fault events (op == "fault")."""
    return [e for e in events if e.op == "fault"]


def fault_summary(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Histogram of injected-fault kinds (drop / dup / delay / blackhole /
    crash); empty for a fault-free trace."""
    return dict(Counter(e.detail.get("kind", "?") for e in fault_events(events)))


def time_ordered(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    return sorted(events, key=lambda e: (e.time, e.rank))


# ---------------------------------------------------------------------------
# span profiling
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Span:
    """One phase-attributed interval of one rank's virtual timeline.

    ``stage`` / ``iteration`` are application annotations (the backend's
    Table-I stage and outer-loop iteration active when the span opened).
    ``dep_rank`` / ``dep_time`` / ``dep_kind`` are only set on wait spans
    whose end was caused by a remote event: the message send or the
    straggler's collective entry the waiter was serialized on.
    """

    rank: int
    phase: str
    begin: float
    end: float
    stage: str = ""
    iteration: int = 0
    dep_rank: int = -1  #: remote rank whose event ended this wait, or -1
    dep_time: float = 0.0  #: virtual time of that event on ``dep_rank``
    dep_kind: str = ""  #: "message" | "collective" | "neighbor-collective" | "agreement"

    @property
    def duration(self) -> float:
        return self.end - self.begin


class _MutSpan:
    """Mutable span record (frozen into :class:`Span` at finalize)."""

    __slots__ = ("phase", "begin", "end", "stage", "iteration",
                 "dep_rank", "dep_time", "dep_kind")

    def __init__(self, phase: str, begin: float, end: float,
                 stage: str, iteration: int):
        self.phase = phase
        self.begin = begin
        self.end = end
        self.stage = stage
        self.iteration = iteration
        self.dep_rank = -1
        self.dep_time = 0.0
        self.dep_kind = ""

    def freeze(self, rank: int) -> Span:
        return Span(rank, self.phase, self.begin, self.end, self.stage,
                    self.iteration, self.dep_rank, self.dep_time, self.dep_kind)


@dataclass(frozen=True)
class RunProfile:
    """Finalized span profile of one engine run.

    ``spans[r]`` is rank ``r``'s chronological span list; the spans tile
    ``[0, makespan]`` exactly (consecutive boundaries are the *same*
    float, not merely close — they are the same clock values the engine
    computed).
    """

    nprocs: int
    makespan: float
    final_clocks: tuple[float, ...]
    crashed: tuple[int, ...]
    spans: tuple[tuple[Span, ...], ...]

    def validate_tiling(self) -> None:
        """Assert the per-rank tiling invariant (exact float equality)."""
        for r, spans in enumerate(self.spans):
            if not spans:
                if self.makespan != 0.0:
                    raise ProfilingError(
                        f"rank {r}: no spans but makespan {self.makespan}"
                    )
                continue
            if spans[0].begin != 0.0:
                raise ProfilingError(
                    f"rank {r}: first span starts at {spans[0].begin}, not 0"
                )
            for a, b in zip(spans, spans[1:]):
                if a.end != b.begin:
                    raise ProfilingError(
                        f"rank {r}: span gap/overlap {a.end} -> {b.begin} "
                        f"({a.phase} -> {b.phase})"
                    )
                if a.end <= a.begin:
                    raise ProfilingError(f"rank {r}: empty span {a}")
            if spans[-1].end != self.makespan:
                raise ProfilingError(
                    f"rank {r}: last span ends at {spans[-1].end}, "
                    f"makespan is {self.makespan}"
                )

    # -- aggregations --------------------------------------------------
    def phase_seconds(self, rank: int | None = None) -> dict[str, float]:
        """Seconds per phase, for one rank or summed over all ranks."""
        out: dict[str, float] = {}
        ranks = range(self.nprocs) if rank is None else (rank,)
        for r in ranks:
            for s in self.spans[r]:
                out[s.phase] = out.get(s.phase, 0.0) + s.duration
        return out

    def stage_seconds(self, rank: int | None = None) -> dict[str, float]:
        """Seconds per application stage annotation (empty stage dropped)."""
        out: dict[str, float] = {}
        ranks = range(self.nprocs) if rank is None else (rank,)
        for r in ranks:
            for s in self.spans[r]:
                if s.stage:
                    out[s.stage] = out.get(s.stage, 0.0) + s.duration
        return out

    def time_split(self) -> tuple[float, float, float]:
        """(compute, comm, idle) seconds summed over ranks.

        Same classification the engine's coarse counters use: compute
        phases are compute, wait phases are idle, everything else is
        communication; trailing fill phases (done/crashed) are excluded
        because the counters stop at each rank's final clock too.
        """
        compute = comm = idle = 0.0
        for phase, sec in self.phase_seconds().items():
            if phase in COMPUTE_PHASES:
                compute += sec
            elif phase in WAIT_PHASES:
                idle += sec
            elif phase not in FILL_PHASES:
                comm += sec
        return compute, comm, idle

    def all_phases(self) -> list[str]:
        """Sorted list of every phase name appearing in the profile."""
        seen: set[str] = set()
        for spans in self.spans:
            seen.update(s.phase for s in spans)
        return sorted(seen)


class SpanRecorder:
    """Engine-side span collector (one per profiled run).

    Ranks and the scheduler call :meth:`add` at the three clock
    advance sites (compute charge, comm charge, idle advance); the
    context layer annotates waits with cross-rank dependencies via
    :meth:`attach_dep`. All methods are cheap appends — the engine only
    instantiates a recorder when profiling is requested, so the disabled
    path stays a single ``is not None`` test.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._spans: list[list[_MutSpan]] = [[] for _ in range(nprocs)]
        self._stage = [""] * nprocs
        self._iter = [0] * nprocs
        # Most recent span per rank iff it was a wait span and nothing
        # was recorded after it — the only span a dependency may attach
        # to (prevents a fast-path resume from annotating a stale wait).
        self._pending_wait: list[_MutSpan | None] = [None] * nprocs

    # -- application annotations ---------------------------------------
    def set_stage(self, rank: int, stage: str) -> None:
        self._stage[rank] = stage

    def set_iteration(self, rank: int, iteration: int) -> None:
        self._iter[rank] = iteration

    # -- recording -----------------------------------------------------
    def add(self, rank: int, phase: str, begin: float, end: float,
            *, is_wait: bool = False) -> None:
        if end <= begin:
            return
        rec = _MutSpan(phase, begin, end, self._stage[rank], self._iter[rank])
        self._spans[rank].append(rec)
        self._pending_wait[rank] = rec if is_wait else None

    def attach_dep(self, rank: int, dep_rank: int, dep_time: float,
                   kind: str) -> None:
        """Annotate the rank's just-ended wait span with its cause."""
        rec = self._pending_wait[rank]
        if rec is None:
            return
        self._pending_wait[rank] = None
        rec.dep_rank = dep_rank
        rec.dep_time = dep_time
        rec.dep_kind = kind

    # -- finalization --------------------------------------------------
    def finalize(self, final_clocks: tuple[float, ...], makespan: float,
                 crashed: dict[int, float]) -> RunProfile:
        """Clip/pad per-rank spans so they tile ``[0, makespan]`` exactly.

        Crash handling: a killed rank's clock can be rolled back (kill
        detected after an op charged past the crash time) or jumped
        forward (a parked rank's final clock becomes the crash time), so
        spans are clipped to the final clock and gaps are filled with a
        "crashed" phase. A gap on a non-crashed rank is a profiler bug
        and raises :class:`ProfilingError`.
        """
        out: list[tuple[Span, ...]] = []
        for r in range(self.nprocs):
            fc = final_clocks[r]
            is_crashed = r in crashed
            spans: list[Span] = []
            t = 0.0
            for rec in self._spans[r]:
                b, e = rec.begin, rec.end
                if b >= fc:
                    break  # recorded past a crash rollback: discard
                if e > fc:
                    e = fc
                if b > t:
                    if not is_crashed:
                        raise ProfilingError(
                            f"rank {r}: unattributed gap [{t}, {b}] "
                            f"before {rec.phase}"
                        )
                    spans.append(Span(r, "crashed", t, b))
                elif b < t:
                    raise ProfilingError(
                        f"rank {r}: overlapping span {rec.phase} begins at "
                        f"{b} before previous end {t}"
                    )
                if e > b:
                    frozen = rec.freeze(r)
                    if e != rec.end:  # clipped at the crash time
                        frozen = Span(r, rec.phase, b, e, rec.stage,
                                      rec.iteration, rec.dep_rank,
                                      rec.dep_time, rec.dep_kind)
                    spans.append(frozen)
                    t = e
            if t < fc:
                if not is_crashed:
                    raise ProfilingError(
                        f"rank {r}: timeline ends at {t}, final clock {fc}"
                    )
                spans.append(Span(r, "crashed", t, fc))
                t = fc
            if fc < makespan:
                spans.append(
                    Span(r, "crashed" if is_crashed else "done", fc, makespan)
                )
            out.append(tuple(spans))
        profile = RunProfile(
            nprocs=self.nprocs,
            makespan=makespan,
            final_clocks=tuple(final_clocks),
            crashed=tuple(sorted(crashed)),
            spans=tuple(out),
        )
        profile.validate_tiling()
        return profile
