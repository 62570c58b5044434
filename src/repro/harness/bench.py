"""Engine performance benchmarks behind ``repro bench``.

Measures the *simulator's own* throughput (real wall time, not virtual
time) on a fixed set of engine microbenchmarks plus one small
fig04-style end-to-end matching run, under both the optimized heap
scheduler and the reference linear-scan scheduler, and persists the
results to ``BENCH_engine.json`` so the perf trajectory of the engine is
recorded run over run. The file is a time series
(``{"schema": "bench-series/1", "runs": [...]}``): each invocation
appends its snapshot instead of overwriting history, and a legacy
single-snapshot file is migrated into the series on first append.

Every entry carries the simulated makespan as a determinism fingerprint:
the two schedulers — and, for the engine-mode entries, the two
execution engines — must agree bit-for-bit (this is asserted), so a
perf number can never silently come from a behaviorally different
engine.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from typing import Any, Callable

import numpy as np

from repro.mpisim import Engine, cori_aries
from repro.mpisim.machine import MachineModel
from repro.util.rng import make_rng
from repro.matching.config import RunConfig

SCHEDULERS = ("reference", "heap")


# ----------------------------------------------------------------------
# microbenchmark rank programs
# ----------------------------------------------------------------------
def _pingpong(rounds: int) -> Callable:
    def prog(ctx):
        for i in range(rounds):
            if ctx.rank == 0:
                yield from ctx.isend_g(1, i)
                yield from ctx.recv_g(source=1)
            else:
                yield from ctx.recv_g(source=0)
                yield from ctx.isend_g(0, i)

    return prog


def _ring(rounds: int) -> Callable:
    def prog(ctx):
        nxt = (ctx.rank + 1) % ctx.nprocs
        prv = (ctx.rank - 1) % ctx.nprocs
        for i in range(rounds):
            yield from ctx.isend_g(nxt, i, nbytes=64)
            yield from ctx.recv_g(source=prv)

    return prog


def _scatter(seed: int, rounds: int, fan: int) -> Callable:
    """Random many-to-many traffic: the scheduler stress test.

    Every rank sends ``fan`` messages to seeded destinations per round,
    then receives exactly what was addressed to it. Most ranks sit
    blocked in ``recv`` at any instant, so every scheduling decision
    under the reference scheduler re-evaluates O(P) wake potentials —
    the hot path the candidate heap removes.
    """

    def prog(ctx):
        shared = make_rng(seed, "bench-scatter")
        dests = shared.integers(0, ctx.nprocs, size=(ctx.nprocs, rounds, fan))
        for k in range(rounds):
            ctx.compute(seconds=1e-7)
            for d in dests[ctx.rank, k]:
                d = int(d)
                if d != ctx.rank:
                    yield from ctx.isend_g(d, k, nbytes=32)
            expected = int(np.sum(dests[:, k, :] == ctx.rank)) - int(
                np.sum(dests[ctx.rank, k, :] == ctx.rank)
            )
            for _ in range(expected):
                yield from ctx.recv_g()
        return 0

    return prog


def _drain_storm(rounds: int, fan: int, stagger: float) -> Callable:
    """Bursty pairwise traffic engineered for long token retention.

    Ranks pair up (``rank ^ 1``). An initial per-rank stagger spreads
    the clocks into a ladder with spacing ``stagger``; each round a rank
    sends ``fan`` messages to its partner, drains ``fan`` from it, then
    charges ``nprocs * stagger`` of compute — jumping from the bottom of
    the ladder back to the top. The whole send+drain burst therefore
    happens while the rank is provably minimal with a ``stagger``-wide
    margin, which is exactly the regime the vector engine's
    token-retention guard and burst primitives fuse: one scheduler
    decision per ~2*fan operations instead of one per operation. This
    is the bursty drain-after-compute pattern of the paper's Send-Recv
    matching backend, distilled.

    The program text is engine-agnostic: the burst/fused calls decline
    on the scalar engines (and whenever the guard cannot prove
    minimality) and the generator fallbacks replay the identical
    charging sequence, so all three engines must produce bit-identical
    simulations (asserted by the caller).
    """
    from repro.mpisim.context import FUSED_FALLBACK
    from repro.mpisim.message import Message

    def prog(ctx):
        peer = ctx.rank ^ 1
        big = ctx.nprocs * stagger
        ctx.compute(seconds=(ctx.rank + 1) * stagger)

        def send_all(k):
            payloads = [(k, j) for j in range(fan)]
            i = 0
            while i < fan:
                i += ctx.isend_burst(peer, payloads[i:], nbytes=64)
                if i >= fan:
                    break
                p = payloads[i]
                if ctx.isend_fast(peer, p, nbytes=64) is FUSED_FALLBACK:
                    yield from ctx.isend_g(peer, p, nbytes=64)
                i += 1

        def drain(n):
            while n:
                n -= len(ctx.recv_burst(source=peer, limit=n))
                if not n:
                    break
                out = ctx.try_probe_recv(source=peer)
                if isinstance(out, Message):
                    n -= 1
                elif out is FUSED_FALLBACK:
                    hdr = yield from ctx.iprobe_g(source=peer)
                    if hdr is not None:
                        yield from ctx.recv_g(source=peer)
                        n -= 1
                elif out is not None:
                    _, src, tag = out
                    yield from ctx.recv_g(source=src, tag=tag)
                    n -= 1

        for k in range(rounds):
            yield from send_all(k)
            if k:
                yield from drain(fan)
            ctx.compute(seconds=big)
        yield from drain(fan)

    return prog


def _allreduce(rounds: int) -> Callable:
    def prog(ctx):
        for _ in range(rounds):
            yield from ctx.allreduce_g(ctx.rank)

    return prog


def _neighbor(rounds: int) -> Callable:
    def prog(ctx):
        p = ctx.nprocs
        topo = yield from ctx.dist_graph_create_adjacent_g(
            sorted({(ctx.rank - 1) % p, (ctx.rank + 1) % p})
        )
        for _ in range(rounds):
            yield from topo.neighbor_alltoallv_g([[1, 2, 3]] * topo.degree)

    return prog


def _micro_suite(quick: bool) -> list[dict[str, Any]]:
    """(name, nprocs, program factory) for each microbenchmark."""
    if quick:
        return [
            {"name": "pingpong", "nprocs": 2, "prog": _pingpong(200)},
            {"name": "ring", "nprocs": 16, "prog": _ring(30)},
            {"name": "scatter", "nprocs": 48, "prog": _scatter(7, 6, 4)},
            {"name": "allreduce", "nprocs": 8, "prog": _allreduce(60)},
            {"name": "neighbor_alltoallv", "nprocs": 8, "prog": _neighbor(40)},
        ]
    return [
        {"name": "pingpong", "nprocs": 2, "prog": _pingpong(500)},
        {"name": "ring", "nprocs": 32, "prog": _ring(60)},
        {"name": "scatter", "nprocs": 96, "prog": _scatter(7, 10, 6)},
        {"name": "allreduce", "nprocs": 16, "prog": _allreduce(150)},
        {"name": "neighbor_alltoallv", "nprocs": 16, "prog": _neighbor(80)},
    ]


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _time_engine(
    nprocs: int,
    prog: Callable,
    scheduler: str,
    machine: MachineModel,
    repeats: int,
) -> dict[str, Any]:
    """Best-of-``repeats`` wall time for one (program, scheduler) pair."""
    best = None
    res = None
    for _ in range(repeats):
        eng = Engine(nprocs, machine, scheduler=scheduler)
        t0 = time.perf_counter()
        res = eng.run(prog)
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    # Collectives rendezvous without ticking the op counter, so fall back
    # to scheduler switches as the event count for pure-collective runs.
    events = res.total_ops or res.scheduler_switches
    return {
        "wall_s": best,
        "ops": res.total_ops,
        "events_per_sec": events / best if best > 0 else float("inf"),
        "switches": res.scheduler_switches,
        "makespan": res.makespan,
    }


def _bench_micro(quick: bool, repeats: int) -> dict[str, Any]:
    machine = cori_aries()
    out: dict[str, Any] = {}
    for spec in _micro_suite(quick):
        entry: dict[str, Any] = {"nprocs": spec["nprocs"]}
        for sched in SCHEDULERS:
            entry[sched] = _time_engine(
                spec["nprocs"], spec["prog"], sched, machine, repeats
            )
        if entry["heap"]["makespan"] != entry["reference"]["makespan"]:
            raise AssertionError(
                f"{spec['name']}: schedulers disagree on virtual time "
                f"({entry['heap']['makespan']} vs {entry['reference']['makespan']})"
            )
        entry["speedup"] = entry["reference"]["wall_s"] / entry["heap"]["wall_s"]
        entry["makespan"] = entry["heap"]["makespan"]  # determinism fingerprint
        out[spec["name"]] = entry
    return out


def _bench_e2e(quick: bool, repeats: int) -> dict[str, Any]:
    """One small fig04-style end-to-end experiment (weak-scaling style
    R-MAT matching under the NCL backend) timed under both schedulers.

    End-to-end runs are futex-dominated (one physical thread switch per
    scheduling decision, identical under both schedulers), so expect
    parity here — the scheduler's win shows in the microbenchmarks.
    """
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    scale = 8 if quick else 10
    nprocs = 8
    g = rmat_graph(scale, seed=1)
    entry: dict[str, Any] = {
        "experiment": "fig04-style rmat weak-scaling point",
        "scale": scale,
        "nprocs": nprocs,
        "model": "ncl",
    }
    for sched in SCHEDULERS:
        best = None
        res = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = run_matching(g, nprocs, "ncl", config=RunConfig(scheduler=sched))
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best = wall
        entry[sched] = {
            "wall_s": best,
            "makespan": res.makespan,
            "weight": res.weight,
            "messages": res.total_messages(),
        }
    if (entry["heap"]["makespan"], entry["heap"]["weight"]) != (
        entry["reference"]["makespan"],
        entry["reference"]["weight"],
    ):
        raise AssertionError("e2e matching: schedulers disagree on outcome")
    entry["speedup"] = entry["reference"]["wall_s"] / entry["heap"]["wall_s"]
    entry["makespan"] = entry["heap"]["makespan"]
    entry["weight"] = entry["heap"]["weight"]
    return entry


def _bench_aggregation(quick: bool, repeats: int) -> dict[str, Any]:
    """nsr vs nsr-agg on the same instance: wall time, wire messages, and
    the coalescing ratio — the transport-layer half of the engine story.

    Both runs must produce the identical matching (asserted), so the
    message ratio is a pure transport effect, never an algorithmic one.
    """
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    scale = 8 if quick else 10
    nprocs = 16
    g = rmat_graph(scale, seed=1)
    entry: dict[str, Any] = {"scale": scale, "nprocs": nprocs}
    for model in ("nsr", "nsr-agg"):
        best = None
        res = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = run_matching(g, nprocs, model, config=RunConfig())
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best = wall
        entry[model] = {
            "wall_s": best,
            "makespan": res.makespan,
            "weight": res.weight,
            "messages": res.total_messages(),
        }
        if model == "nsr-agg":
            entry["aggregation"] = res.counters.aggregation_totals()
    if entry["nsr"]["weight"] != entry["nsr-agg"]["weight"]:
        raise AssertionError("aggregation changed the matching outcome")
    entry["message_ratio"] = entry["nsr"]["messages"] / entry["nsr-agg"]["messages"]
    return entry


ENGINE_MODES = ("coroutine", "vector")


def _bench_engine_modes(quick: bool, repeats: int) -> dict[str, Any]:
    """Coroutine vs vector execution engine, three measurements.

    ``e2e``: one small matching run under both engines — proves the
    modes agree bit-for-bit (makespan and weight asserted) and gives the
    end-to-end wall times.

    ``switch_storm``: a nearest-neighbor ring at P in the thousands,
    where every event parks the rank and the simulation is nothing but
    scheduling decisions. The vector engine degenerates to the coroutine
    engine in this regime (every event genuinely parks), which is
    asserted by the shared fingerprint and visible as events/s parity.

    ``drain_storm``: the opposite regime — bursty send/drain phases
    separated by compute, so one rank stays provably minimal for whole
    bursts. This is where the vector engine's token-retention guard and
    burst primitives collapse per-event cost; its
    ``events_per_sec_ratio_vector_vs_coroutine`` is the vectorized
    core's per-event cost-reduction headline (target >= 5x).
    """
    from repro.graph.generators import rmat_graph
    from repro.matching import run_matching

    scale = 10 if quick else 11
    nprocs = 256
    g = rmat_graph(scale, seed=1)
    e2e: dict[str, Any] = {
        "experiment": "rmat matching, ncl backend",
        "scale": scale,
        "nprocs": nprocs,
    }
    for mode in ENGINE_MODES:
        best = None
        res = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = run_matching(g, nprocs, "ncl", config=RunConfig(engine=mode))
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best = wall
        events = res.engine.total_ops or res.engine.scheduler_switches
        e2e[mode] = {
            "wall_s": best,
            "makespan": res.makespan,
            "weight": res.weight,
            "events_per_sec": events / best if best > 0 else float("inf"),
        }
    if len({(e2e[m]["makespan"], e2e[m]["weight"]) for m in ENGINE_MODES}) != 1:
        raise AssertionError("engine modes disagree on e2e outcome")

    storm_p = 8192
    storm_rounds = 2 if quick else 6
    storm: dict[str, Any] = {"nprocs": storm_p, "rounds": storm_rounds}
    for mode in ENGINE_MODES:
        best = None
        res = None
        for _ in range(repeats):
            eng = Engine(storm_p, cori_aries(), engine=mode)
            t0 = time.perf_counter()
            res = eng.run(_ring(storm_rounds))
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best = wall
        events = res.total_ops or res.scheduler_switches
        storm[mode] = {
            "wall_s": best,
            "makespan": res.makespan,
            "events_per_sec": events / best if best > 0 else float("inf"),
        }
    if len({storm[m]["makespan"] for m in ENGINE_MODES}) != 1:
        raise AssertionError("engine modes disagree on switch-storm outcome")

    dp, rounds, fan, stagger = (
        (128, 3, 64, 4e-4) if quick else (256, 4, 128, 8e-4)
    )
    drain: dict[str, Any] = {
        "nprocs": dp, "rounds": rounds, "fan": fan, "stagger_s": stagger,
    }
    fingerprints = {}
    for mode in ENGINE_MODES:
        best = None
        res = None
        for _ in range(repeats):
            eng = Engine(dp, cori_aries(), engine=mode)
            t0 = time.perf_counter()
            res = eng.run(_drain_storm(rounds, fan, stagger))
            wall = time.perf_counter() - t0
            if best is None or wall < best:
                best = wall
        fingerprints[mode] = (
            res.makespan, res.total_ops, res.scheduler_switches
        )
        drain[mode] = {
            "wall_s": best,
            "makespan": res.makespan,
            "ops": res.total_ops,
            "switches": res.scheduler_switches,
            "events_per_sec": (
                res.total_ops / best if best > 0 else float("inf")
            ),
        }
    if len(set(fingerprints.values())) != 1:
        raise AssertionError(
            f"engine modes disagree on drain-storm outcome: {fingerprints}"
        )
    drain["ops_per_switch"] = (
        drain["vector"]["ops"] / drain["vector"]["switches"]
    )
    drain["events_per_sec_ratio_vector_vs_coroutine"] = (
        drain["vector"]["events_per_sec"]
        / drain["coroutine"]["events_per_sec"]
    )
    return {"e2e": e2e, "switch_storm": storm, "drain_storm": drain}


SERIES_SCHEMA = "bench-series/1"


def _append_series(out_path: str, report: dict[str, Any]) -> None:
    """Append ``report`` to the bench time series at ``out_path``.

    The file holds ``{"schema": "bench-series/1", "runs": [oldest ...
    newest]}``. A pre-series file (one bare report dict) is migrated
    into the series as its first run; a corrupt file starts a fresh
    series rather than killing the bench run that produced ``report``.
    """
    runs: list[dict[str, Any]] = []
    try:
        with open(out_path) as fh:
            prev = json.load(fh)
        if isinstance(prev, dict) and prev.get("schema") == SERIES_SCHEMA:
            runs = [r for r in prev.get("runs", []) if isinstance(r, dict)]
        elif isinstance(prev, dict) and "suite" in prev:
            runs = [prev]  # legacy single-snapshot file
    except (OSError, ValueError):
        pass
    runs.append(report)
    with open(out_path, "w") as fh:
        json.dump(
            {"schema": SERIES_SCHEMA, "runs": runs},
            fh, indent=2, sort_keys=True,
        )


def run_bench(
    quick: bool = False, repeats: int = 3, out_path: str = "BENCH_engine.json"
) -> dict[str, Any]:
    """Run the full engine benchmark suite; persist and return the report.

    Returns the snapshot for *this* run (what ``render_report`` shows);
    on disk the snapshot is appended to the ``bench-series/1`` time
    series so the perf trajectory is recorded run over run.
    """
    report: dict[str, Any] = {
        "suite": "engine",
        "quick": quick,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "unix_time": time.time(),
        "micro": _bench_micro(quick, repeats),
        "e2e": _bench_e2e(quick, repeats),
        "aggregation": _bench_aggregation(quick, repeats),
        "engine_modes": _bench_engine_modes(quick, repeats),
    }
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["peak_rss_bytes"] = rss * (1 if sys.platform == "darwin" else 1024)
    report["min_micro_speedup"] = min(
        e["speedup"] for e in report["micro"].values()
    )
    report["max_micro_speedup"] = max(
        e["speedup"] for e in report["micro"].values()
    )
    if out_path:
        _append_series(out_path, report)
    return report


def render_report(report: dict[str, Any]) -> str:
    """Human-readable table for the CLI."""
    from repro.util.tables import TextTable

    t = TextTable(
        ["bench", "p", "heap wall", "ref wall", "speedup", "events/s (heap)", "makespan"]
    )
    for name, e in report["micro"].items():
        t.add_row(
            [
                name,
                str(e["nprocs"]),
                f"{e['heap']['wall_s'] * 1e3:.1f} ms",
                f"{e['reference']['wall_s'] * 1e3:.1f} ms",
                f"{e['speedup']:.2f}x",
                f"{e['heap']['events_per_sec']:,.0f}",
                f"{e['makespan']:.9g}",
            ]
        )
    ee = report["e2e"]
    t.add_row(
        [
            "e2e-matching",
            str(ee["nprocs"]),
            f"{ee['heap']['wall_s'] * 1e3:.1f} ms",
            f"{ee['reference']['wall_s'] * 1e3:.1f} ms",
            f"{ee['speedup']:.2f}x",
            "-",
            f"{ee['makespan']:.9g}",
        ]
    )
    lines = [t.render()]
    em = report.get("engine_modes")
    if em:
        ee2 = em["e2e"]
        st = em["switch_storm"]
        lines.append(
            f"engine modes e2e (rmat scale {ee2['scale']}, p={ee2['nprocs']}, "
            f"ncl): {ee2['coroutine']['wall_s']:.2f} s (coroutine) vs "
            f"{ee2['vector']['wall_s']:.2f} s (vector), identical simulation"
        )
        lines.append(
            f"engine modes switch-storm (ring, p={st['nprocs']}): "
            f"{st['coroutine']['events_per_sec']:,.0f} events/s (coroutine) vs "
            f"{st['vector']['events_per_sec']:,.0f} (vector), identical "
            f"simulation"
        )
        ds = em.get("drain_storm")
        if ds:
            lines.append(
                f"engine modes drain-storm (pairwise bursts, p={ds['nprocs']}, "
                f"fan={ds['fan']}, {ds['ops_per_switch']:.0f} ops/switch): "
                f"{ds['vector']['events_per_sec']:,.0f} events/s (vector) vs "
                f"{ds['coroutine']['events_per_sec']:,.0f} (coroutine) = "
                f"{ds['events_per_sec_ratio_vector_vs_coroutine']:.1f}x "
                f"per-event cost reduction, identical simulation"
            )
    ag = report.get("aggregation")
    if ag:
        lines.append(
            f"aggregation (rmat scale {ag['scale']}, p={ag['nprocs']}): "
            f"{ag['nsr']['messages']} wire msgs (nsr) vs "
            f"{ag['nsr-agg']['messages']} (nsr-agg) = "
            f"{ag['message_ratio']:.2f}x fewer, identical matching"
        )
    lines.append(
        f"peak RSS: {report['peak_rss_bytes'] / 2**20:.1f} MB   "
        f"micro speedup range: {report['min_micro_speedup']:.2f}x"
        f"..{report['max_micro_speedup']:.2f}x"
    )
    lines.append(
        "determinism: heap and reference schedulers agreed bit-for-bit on "
        "every simulated makespan above"
    )
    return "\n".join(lines)
