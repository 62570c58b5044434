"""The five gated workloads of the ladder.

Every number here is *host* wall time unless it says simulated. The
gated runs import only the stable public surface — ``repro.api``,
``repro.matching`` (``RunConfig``, the checks, the vectorized oracle),
``repro.graph.generators``, ``repro.service``, ``repro.client`` — plus
one ``ENGINES`` lookup, so they keep running while the internals move.
Anything deeper belongs to ``tracing.py``.

A workload function returns a plain dict::

    {"attempted": int, "failed": int, "failures": [str, ...],
     "metrics": {name: (value, sample_count)}, "detail": {...}}

Checks run outside every timed region.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from spec import LADDER_DIR, WORK_DIR

#: Every step is repeated at least this often (three to seven times at
#: the driver's ``--seconds``), and its time is the *median* repeat. The host
#: has slow spells and, more rarely, fast ones, both a few seconds long
#: and worth ±10-20 % (in CPU time as much as in wall time); the fastest
#: repeat reads low in whichever run caught a fast spell. Over thirty
#: runs the sum of per-step medians spread 5.5-6.9 % (IQR/median) on the
#: three rungs with two models, the sum of per-step minima 9.0-12.3 %.
MIN_ROUNDS = 3
GENERATE = "generate"
#: generator seed of every rmat rung; ``--seed`` relabels the vertices
RMAT_TOPOLOGY_SEED = 1


class LadderError(RuntimeError):
    """The benchmark itself cannot run — not a failed operation."""


def engine_kwargs() -> dict:
    """Ask for the generator engine while the repo still offers a choice.

    The default engine (``threaded``) does not repeat within a tenth on
    a shared box, so no gated number may rest on it. Once the engines
    collapse into one, ``ENGINES`` (or its ``"coroutine"`` entry) is gone
    and the workloads pass no ``engine`` argument at all.
    """
    try:
        from repro.mpisim.engine import ENGINES
    except ImportError:
        return {}
    return {"engine": "coroutine"} if "coroutine" in ENGINES else {}


def engine_used() -> str:
    return engine_kwargs().get("engine", "default")


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ----------------------------------------------------------------------
# ladder workloads: real `api.run` calls
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Ladder:
    """One rung: a graph recipe, a process count and the models to run."""

    name: str
    family: str  #: "rmat" (size = scale) or "rgg" (size = vertices)
    size: int
    nprocs: int
    models: tuple[str, ...]
    #: graph generation is a timed step of every round, not set-up
    generate_in_op: bool = False

    def graph(self, seed: int):
        """The input of ``--seed``.

        An rgg graph is generated from the seed. An rmat graph keeps one
        topology per scale and takes a seed-derived relabelling of its
        vertices, which moves the 1D block distribution (ghost sets,
        process neighbourhoods, message counts) but not the depth of the
        matching's dependency chains: a new rmat topology moves the work
        itself by a quarter (8 to 12 ``ncl`` iterations at scale 10),
        more than a regression bound can absorb.
        """
        from repro.graph.generators import rgg_graph, rmat_graph

        if self.family == "rmat":
            base = rmat_graph(self.size, seed=RMAT_TOPOLOGY_SEED)
            return base.permuted(np.random.default_rng(seed).permutation(base.num_vertices))
        return rgg_graph(self.size, target_avg_degree=8, seed=seed)

    @property
    def steps(self) -> tuple[str, ...]:
        return ((GENERATE,) if self.generate_in_op else ()) + self.models

    def warmup(self) -> "Ladder":
        """Same family and models, small enough to run in a blink."""
        return replace(
            self, size=8 if self.family == "rmat" else 2000,
            nprocs=min(self.nprocs, 16),
        )


@dataclass
class Op:
    """What one ``api.run`` left behind, minus the heavy result object."""

    model: str
    seconds: float
    #: (simulated makespan, messages, bytes_moved, iterations, total_ops,
    #: scheduler_switches) — every repeat of a case must agree exactly
    counts: tuple | None = None
    mate: object = None
    weight: float = float("nan")
    error: str | None = None


def run_op(g, nprocs: int, model: str, cfg) -> Op:
    """One ladder operation, timed from outside."""
    from repro import api

    gc.collect()
    t = perf_counter()
    try:
        rec = api.run(g, nprocs, model, config=cfg, keep_result=True)
    except Exception as e:  # an exception is a failed operation; carry on
        return Op(model, perf_counter() - t, error=f"{type(e).__name__}: {e}")
    seconds = perf_counter() - t
    eng = rec.result.engine
    return Op(
        model, seconds,
        counts=(rec.makespan, rec.messages, rec.bytes_moved, rec.iterations,
                eng.total_ops, eng.scheduler_switches),
        mate=rec.result.mate, weight=rec.weight,
    )


def mate_error(g, mate) -> str | None:
    from repro.matching import check_matching_maximal, check_matching_valid

    try:
        check_matching_valid(g, mate)
        check_matching_maximal(g, mate)
    except AssertionError as e:
        return str(e)
    return None


def check_ops(g, ops: list[Op]) -> tuple[list[str], dict[str, float]]:
    """Verify every op; returns (one message per failed op, check timings).

    The oracle is the plain single-process numpy matching. Its weight is
    summed in another order than ``api.run``'s, so the two agree to the
    last few bits, not bit for bit; the mate arrays are checked exactly.
    """
    from repro.matching import locally_dominant_matching_vec

    t = perf_counter()
    oracle = locally_dominant_matching_vec(g)
    oracle_s = perf_counter() - t
    failures: list[str] = []
    checked: dict[bytes, str | None] = {}  # identical mates are checked once
    first: dict[str, tuple] = {}
    for op in ops:
        err = op.error
        if err is None:
            key = op.mate.tobytes()
            if key not in checked:
                checked[key] = mate_error(g, op.mate)
            err = checked[key]
        if err is None and not math.isclose(op.weight, oracle.weight, rel_tol=1e-9):
            err = f"weight {op.weight!r} != oracle {oracle.weight!r}"
        if err is None and op.counts != first.setdefault(op.model, op.counts):
            err = f"repeat disagrees: {op.counts} != {first[op.model]}"
        if err is not None:
            failures.append(f"{op.model}: {err}")
    return failures, {"oracle_s": oracle_s, "verify_s": perf_counter() - t - oracle_s}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ladder(
    wl: Ladder, seed: int, seconds: float, t0: float,
    *, setup_only: bool = False, after_step=None,
) -> dict:
    """Run one rung: set up, time rounds of steps, then verify.

    ``t0`` is the epoch time at which the parent started this process;
    ``after_step(step, g, op)`` lets the traced run re-perform each step
    right after the untraced one, in the same round.
    """
    from repro import api
    from repro.matching import RunConfig

    cfg = RunConfig(**engine_kwargs())
    warm = wl.warmup()
    warm_g = warm.graph(seed)
    for model in warm.models:
        api.run(warm_g, warm.nprocs, model, config=cfg)
    g = None if wl.generate_in_op else wl.graph(seed)
    setup_s = time.time() - t0
    if setup_only:
        return {"setup_s": setup_s}

    times: dict[str, list[float]] = {step: [] for step in wl.steps}
    ops: list[Op] = []
    elapsed = 0.0
    while len(times[wl.steps[0]]) < MIN_ROUNDS or elapsed < seconds:
        for step in wl.steps:
            op = None
            if step == GENERATE:
                gc.collect()
                t = perf_counter()
                g = wl.graph(seed)
                dt = perf_counter() - t
            else:
                op = run_op(g, wl.nprocs, step, cfg)
                ops.append(op)
                dt = op.seconds
            times[step].append(dt)
            elapsed += dt
            if after_step is not None:
                after_step(step, g, op)
    rss = peak_rss_mb()

    failures, checks = check_ops(g, ops)
    rounds = len(times[wl.steps[0]])
    typical = {step: statistics.median(ts) for step, ts in times.items()}
    wall_s = sum(typical.values())
    counts = {}
    for op in ops:
        if op.counts is not None:
            counts.setdefault(op.model, op.counts)
    total_ops = sum(c[4] for c in counts.values())
    metrics = {
        "wall_s": (wall_s, rounds),
        "sim_ops_per_s": (total_ops / wall_s, rounds),
        "peak_rss_mb": (rss, 1),
        "setup_s": (setup_s, 1),
        "failed_frac": (len(failures) / len(ops), len(ops)),
        "matching.oracle_s": (checks["oracle_s"], 1),
        "matching.verify_s": (checks["verify_s"], len(ops)),
        "mpisim.total_ops": (total_ops, 1),
        "mpisim.scheduler_switches": (sum(c[5] for c in counts.values()), 1),
        "mpisim.messages": (sum(c[1] for c in counts.values()), 1),
        "mpisim.bytes_moved": (sum(c[2] for c in counts.values()), 1),
        "mpisim.makespan_s": (sum(c[0] for c in counts.values()), 1),
        "matching.iterations": (sum(c[3] for c in counts.values()), 1),
    }
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "detail": {
            "rounds": rounds,
            "graph": {"vertices": g.num_vertices, "edges": g.num_edges},
            "step_seconds": times,
            "step_median_s": typical,
            "counts": {m: list(c) for m, c in counts.items()},
        },
    }


# ----------------------------------------------------------------------
# service-mix: round trips through a real server process
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceMix:
    """A fixed request sequence against one server with one worker.

    Closed loop: the one client sends its next request only when the
    previous reply is in, as callers of ``repro submit`` do. The
    coalesced phase uses two threads, which is ``nproc`` on the
    reference box.
    """

    name: str = "service-mix"
    dataset: str = "rmat-s10"
    graph_seeds: int = 2  #: cold misses = graph_seeds x nprocs x models
    nprocs: tuple[int, ...] = (8, 16)
    models: tuple[str, ...] = ("nsr", "rma", "ncl")
    bursts: int = 4  #: coalesced phase: bursts of 2 identical fresh requests
    warm_hits: int = 5000

    def requests(self, seed: int):
        """(warm-up, cold misses, one fresh request per burst)."""
        from repro.service import GraphRef, JobRequest, WireConfig

        wire = WireConfig(**engine_kwargs())

        def req(graph_seed: int, nprocs: int, model: str):
            return JobRequest(
                GraphRef(self.dataset, seed=seed * 100 + graph_seed),
                nprocs, model, wire,
            )

        cold = [
            req(s, p, m)
            for s in range(self.graph_seeds)
            for p in self.nprocs
            for m in self.models
        ]
        bursts = [
            req(50 + b, self.nprocs[b % len(self.nprocs)],
                self.models[b % len(self.models)])
            for b in range(self.bursts)
        ]
        return req(99, self.nprocs[0], self.models[0]), cold, bursts


@dataclass
class Server:
    url: str
    pgid: int
    startup_s: float

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server's process group."""
        total_kb = 0
        for proc in Path("/proc").iterdir():
            if not proc.name.isdigit():
                continue
            try:
                after_comm = (proc / "stat").read_text().rsplit(")", 1)[1].split()
                if int(after_comm[2]) != self.pgid:  # state, ppid, pgrp
                    continue
                for line in (proc / "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue  # the process exited while we looked
        return total_kb / 1024.0


@contextmanager
def running_server(store_dir: str):
    """A ``MatchingService`` in its own process group, always torn down.

    Stopped by SIGTERM, not through ``POST /v1/shutdown``: that handler
    and ``serve_forever``'s own clean-up both shut the pool down, and
    when they race one of them dies with ``EBADF`` on the result queue
    (a finding for the service-robustness issue, not for this one).
    """
    proc = subprocess.Popen(
        [sys.executable, str(LADDER_DIR / "service_host.py"), store_dir],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise LadderError("the service process did not come up")
        info = json.loads(line)
        yield Server(info["url"], proc.pid, info["startup_s"])
    finally:
        proc.terminate()  # the server alone: it shuts its pool down itself
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        try:  # whatever is left of the group, orphaned workers included
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()


def submit(client, request) -> tuple[float, dict | None, str | None]:
    """One timed round trip: (seconds, envelope, error)."""
    t = perf_counter()
    try:
        env = client.submit(request)
    except Exception as e:  # HTTP error, refusal, broken pipe: a failed op
        return perf_counter() - t, None, f"{type(e).__name__}: {e}"
    return perf_counter() - t, env, None


def reply_error(env: dict, label: str) -> str | None:
    if env["cache"] != label:
        return f"cache label {env['cache']!r}, expected {label!r}"
    result = env.get("result") or {}
    if env["state"] != "done" or result.get("status") != "ok":
        return f"state {env['state']!r}, result {result.get('error')!r}"
    return None


RECORD_FIELDS = ("makespan", "weight", "iterations", "messages", "bytes_moved")


def reference_run(request, payload: dict) -> tuple[float, int, str | None]:
    """Re-run a served point in process: (seconds, total_ops, error).

    The served record must equal the in-process one field by field, and
    the in-process matching must pass the same checks as a ladder op.
    """
    g = request.graph.build()
    op = run_op(g, request.nprocs, request.model, request.config.to_run_config())
    failures, _ = check_ops(g, [op])
    if failures:
        return op.seconds, 0, failures[0]
    makespan, messages, bytes_moved, iterations, total_ops, _ = op.counts
    mine = dict(zip(RECORD_FIELDS, (makespan, op.weight, iterations, messages, bytes_moved)))
    served = {k: payload["record"][k] for k in RECORD_FIELDS}
    if served != mine:
        return op.seconds, total_ops, f"served record {served} != in-process {mine}"
    return op.seconds, total_ops, None


def run_service(
    wl: ServiceMix, seed: int, seconds: float, t0: float,
    *, setup_only: bool = False, spans=None,
) -> dict:
    """Run the request sequence; ``spans`` (traced runs) records phases.

    The sequence is fixed and sized to take about ``run_seconds``;
    ``seconds`` does not stretch it, so that its counts repeat exactly.
    """
    from repro.client import ServiceClient

    def span(name: str, trace: str):
        return spans.span(name, trace) if spans is not None else nullcontext()

    warmup, cold, bursts = wl.requests(seed)
    failures: list[str] = []
    attempted = 0

    def note(phase: str, err: str | None) -> None:
        nonlocal attempted
        attempted += 1
        if err is not None:
            failures.append(f"{phase}: {err}")

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="store-") as store, \
            running_server(store) as server:
        client = ServiceClient(server.url, timeout=120)
        _, env, err = submit(client, warmup)  # pays the worker's cold import
        err = err or reply_error(env, "miss")
        if err is not None:
            raise LadderError(f"warm-up request failed: {err}")
        setup_s = time.time() - t0
        if setup_only:
            return {"setup_s": setup_s}
        stats0 = client.stats()

        # what the service simulated: (request, cache key, payload, miss seconds)
        hot: list[tuple] = []
        cold_s: list[float] = []
        with span("phase.cold", "cold"):
            for request in cold:
                with span("client.submit", "cold"):
                    dt, env, err = submit(client, request)
                err = err or reply_error(env, "miss")
                note("cold", err)
                cold_s.append(dt)
                if err is None:
                    hot.append((request, env["key"], env["result"], dt))

        burst_s: list[float] = []
        follower_s: list[float] = []
        burst_served: list[tuple] = []  # as `hot`, without a miss time
        with span("phase.coalesced", "coalesced"), ThreadPoolExecutor(2) as pool:
            for request in bursts:
                gate = threading.Barrier(2)

                def fire(_):
                    gate.wait()
                    return submit(client, request)

                with span("client.submit.burst", "coalesced"):
                    replies = list(pool.map(fire, range(2)))
                burst_s.append(max(dt for dt, _, _ in replies))
                envs = [env for _, env, _ in replies if env]
                labels = sorted(env["cache"] for env in envs)
                for dt, env, err in replies:
                    err = err or reply_error(env, env["cache"])
                    if err is None and labels != ["coalesced", "miss"]:
                        err = f"burst labels {labels}, expected one miss and one coalesced"
                    note("coalesced", err)
                    if env and env["cache"] == "coalesced":
                        follower_s.append(dt)
                if len(envs) == 2:
                    if envs[0]["result"] != envs[1]["result"]:
                        failures.append("coalesced: the two replies differ")
                    burst_served.append((request, envs[0]["key"], envs[0]["result"], None))

        hit_s: list[float] = []
        with span("phase.warm", "warm"):
            for i in range(wl.warm_hits if hot else 0):
                request, key, payload, _ = hot[i % len(hot)]
                dt, env, err = submit(client, request)
                err = err or reply_error(env, "hit")
                if err is None and (env["key"], env["result"]) != (key, payload):
                    err = "hit payload differs from the miss payload"
                note("warm", err)
                hit_s.append(dt)

        stats1 = client.stats()
        rss = server.peak_rss_mb()

    delta = {k: stats1[k] - stats0[k] for k in
             ("sims_executed", "jobs_coalesced", "cache_hits", "cache_misses",
              "batches_dispatched")}
    expected = {
        "sims_executed": len(cold) + len(bursts),
        "jobs_coalesced": len(bursts),
        "cache_hits": len(hit_s),
        "cache_misses": len(cold) + len(bursts),
    }
    for k, want in expected.items():
        if delta[k] != want:
            failures.append(f"stats: {k} rose by {delta[k]}, expected {want}")

    # In-process reference of every point the service simulated (the
    # server is gone by now, so this competes with nothing).
    overhead_s: list[float] = []
    ref_total_s = 0.0
    total_ops = 0
    for request, _, payload, miss_s in hot + burst_served:
        dt, ops_count, err = reference_run(request, payload)
        if err is not None:
            failures.append(f"reference: {err}")
        if miss_s is not None:
            overhead_s.append(miss_s - dt)
        ref_total_s += dt
        total_ops += ops_count

    hits = sorted(hit_s)
    miss_phases_s = sum(cold_s) + sum(burst_s)
    warm_s = sum(hit_s)
    # Reference and stats failures are not operations of their own; a
    # run cannot fail more operations than it attempted.
    failed = min(len(failures), attempted)
    metrics = {
        "wall_s": (miss_phases_s + warm_s, 1),
        # simulated operations per host second of the phases that simulate
        "sim_ops_per_s": (total_ops / miss_phases_s, len(hot) + len(burst_served)),
        "peak_rss_mb": (rss, 1),
        "setup_s": (setup_s, 1),
        "failed_frac": (failed / attempted, attempted),
        "service.startup_s": (server.startup_s, 1),
        "service.miss_p50_ms": (statistics.median(cold_s) * 1e3, len(cold_s)),
        "service.sims_executed": (delta["sims_executed"], 1),
        "service.jobs_coalesced": (delta["jobs_coalesced"], 1),
        "service.cache_hits": (delta["cache_hits"], 1),
        "service.cache_misses": (delta["cache_misses"], 1),
        "service.batches_dispatched": (delta["batches_dispatched"], 1),
        # followers / duplicate submissions (one duplicate per burst)
        "service.coalesce_ratio": (delta["jobs_coalesced"] / len(bursts), len(bursts)),
        "mpisim.total_ops": (total_ops, 1),
    }
    if hits:
        metrics["hit_p50_ms"] = (statistics.median(hits) * 1e3, len(hits))
        metrics["hit_p95_ms"] = (percentile(hits, 0.95) * 1e3, len(hits))
        metrics["service.hit_p99_ms"] = (percentile(hits, 0.99) * 1e3, len(hits))
    if overhead_s:
        metrics["service.miss_overhead_ms"] = (
            statistics.median(overhead_s) * 1e3, len(overhead_s))
    if follower_s:
        metrics["service.coalesced_wait_ms"] = (
            statistics.median(follower_s) * 1e3, len(follower_s))
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "detail": {
            "phase_seconds": {"cold": sum(cold_s), "coalesced": sum(burst_s), "warm": warm_s},
            "requests": {"cold": len(cold), "bursts": len(bursts), "warm": len(hit_s)},
            "reference_seconds": ref_total_s,
            "stats_delta": delta,
        },
    }


LADDERS = (
    Ladder("p2p-rmat-p256", "rmat", 11, 256, ("nsr", "nsr-agg")),
    Ladder("coll-rmat-p256", "rmat", 10, 256, ("rma", "ncl")),
    Ladder("local-rgg-p16", "rgg", 64000, 16, ("nsr", "ncl"), generate_in_op=True),
    Ladder("scale-rmat-p1024", "rmat", 12, 1024, ("nsr",)),
)
WORKLOADS: dict[str, Ladder | ServiceMix] = {wl.name: wl for wl in (*LADDERS, ServiceMix())}
