"""Deterministic chaos harness for the fault-tolerant matching stack.

``repro chaos`` samples N fault plans from a seeded space (message/RMA
fault rates x crash sets x NIC-degradation windows x network-partition
windows x backends), runs each through the matching driver, and checks
three properties:

* **liveness** — the run terminates (no deadlock, no budget blow-up);
* **safety** — the produced matching is valid on the survivor subgraph;
* **determinism** — running the same plan twice produces an identical
  fingerprint (makespan, weight, mate hash).

Everything is a pure function of ``(seed, index)`` via counter-based
hashing — there is no RNG state, so any failing plan can be re-run in
isolation. On failure the harness *shrinks* the plan: it greedily tries
strictly smaller candidates (drop a crash, bisect the crash set, zero or
halve a fault rate, remove a degradation window, shorten it) and keeps
any that still reproduces the same failure class, until a fixpoint. The
minimal plan is printed as a ready-to-paste ``python -m repro match``
invocation.

The ``runner`` is pluggable (``backend, plan -> (status, detail)`` or
``(status, detail, recovery)``) so the shrinker itself is testable
against an intentionally buggy toy program — see
``tests/harness/test_chaos.py``. A runner may carry ``config(backend,
plan)``, the ``RunConfig`` it runs a plan under, which repro lines render.

``repro chaos --restart`` swaps in :func:`restart_matching_runner`:
every plan additionally runs a checkpointed reference, gets killed at
sampled virtual times, resumes from the latest saved checkpoint, and
must complete bit-identically — with recovery costs (rollback virtual
time, retries, spurious detections) reported per plan.

``repro chaos --churn`` swaps in :func:`churn_matching_runner`: every
plan streams Poisson crash churn through a whole run under automatic
rollback-recovery (buddy-replicated checkpoints + spare substitution)
and must either complete with mate/weight bit-identical to the
fault-free run, or fail **deterministically** with a classified
``RecoveryFailed`` report ("no complete cut survives" and why). The
latter is the ``unrecoverable`` verdict — an accepted outcome (the
sampled churn outpaced the replication degree), not a property
violation; only hangs, unclassified crashes, wrong matchings, and
nondeterminism count as failures.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.knobs import default, knobs
from repro.mpisim.faults import ChurnPlan, FaultPlan, NicDegradation, PartitionWindow
from repro.util.rng import derive_seed
from repro.matching.config import RunConfig
from repro.matching.driver import SEND_RECV_BACKENDS

_U63 = float(1 << 63)

#: verdict classes, from most to least severe (sort key for reporting);
#: ``unrecoverable`` (churn outpaced replication, reported and proved
#: deterministic) is accepted — everything before it is a failure
STATUSES = ("hang", "crash", "invalid", "nondet", "unrecoverable", "ok")

#: verdicts that do NOT count as property violations
_ACCEPTED = ("unrecoverable", "ok")

Runner = Callable[[str, FaultPlan], tuple[str, str]]


def _unit(seed: int, *stream) -> float:
    return derive_seed(seed, *stream) / _U63


# ----------------------------------------------------------------------
# plan sampling
# ----------------------------------------------------------------------
def sample_plan(
    seed: int, index: int, nprocs: int, backend: str, t_scale: float,
    churn: bool = False, churn_mtbf: float | None = None,
) -> FaultPlan:
    """Deterministically sample the ``index``-th fault plan.

    ``t_scale`` anchors crash times and degradation windows to the
    fault-free makespan of the backend under test, so faults land while
    the algorithm is actually running. Message-fault rates and
    partitions are only drawn for the Send-Recv backends
    (``SEND_RECV_BACKENDS``, the ones with a reliable channel); RMA put
    fates only for the one-sided backend.

    ``churn=True`` samples a pure crash-churn plan instead (per-rank
    Poisson crashes with an MTBF anchored to ``t_scale``, no message or
    window faults): churn runs exercise the rollback-recovery subsystem,
    which masks crashes entirely, so mixing in transport faults would
    only retest what the default mode already covers. ``churn_mtbf``
    pins the MTBF to a fixed multiple of ``t_scale`` (``repro chaos
    --churn --mtbf``) instead of sampling the multiplier from
    ``[0.6, 3.0)``; per-rank event times still vary with the plan seed.
    """

    def u(*tag) -> float:
        return _unit(seed, "chaos", index, *tag)

    if churn:
        plan_seed = derive_seed(seed, "plan-seed", index) & 0x7FFFFFFF
        factor = churn_mtbf if churn_mtbf is not None else 0.6 + 2.4 * u("mtbf")
        return FaultPlan.churn(
            mtbf=factor * t_scale,
            horizon=4.0 * t_scale,
            seed=plan_seed,
            detect_latency=(0.01 + 0.04 * u("detect")) * t_scale,
        )

    # crash set: 0..3 distinct ranks, weighted towards 1-2
    w = u("ncrash")
    n_crashes = 0 if w < 0.20 else 1 if w < 0.62 else 2 if w < 0.88 else 3
    crashes: dict[int, float] = {}
    k = 0
    while len(crashes) < min(n_crashes, max(0, nprocs - 2)):
        r = int(u("crank", k) * nprocs) % nprocs
        if r not in crashes:
            crashes[r] = (0.05 + 0.80 * u("ctime", r)) * t_scale
        k += 1

    detect = (0.01 + 0.04 * u("detect")) * t_scale

    degradations = []
    if u("deg?") < 0.35:
        dr = int(u("degrank") * nprocs) % nprocs
        t0 = 0.5 * u("deg0") * t_scale
        dur = (0.1 + 0.3 * u("degd")) * t_scale
        degradations.append(
            NicDegradation(
                rank=dr, t_start=t0, t_end=t0 + dur,
                factor=1.0 + 3.0 * u("degf"),
            )
        )

    drop = dup = delay = rma_drop = rma_corrupt = 0.0
    if backend in SEND_RECV_BACKENDS and u("msg?") < 0.6:
        drop = 0.10 * u("drop")
        dup = 0.05 * u("dup")
        delay = 0.20 * u("delay")
    if backend == "rma" and u("rma?") < 0.6:
        rma_drop = 0.08 * u("rdrop")
        rma_corrupt = 0.08 * u("rcorrupt")

    # network partitions: only the Send-Recv backends carry a transport
    # that masks them (retry deferral across the window); a partition is
    # sampled as a random 2-coloring of the ranks over a mid-run window.
    partitions: tuple[PartitionWindow, ...] = ()
    if backend in SEND_RECV_BACKENDS and nprocs >= 2 and u("part?") < 0.35:
        g0 = tuple(r for r in range(nprocs) if u("pside", r) < 0.5)
        g1 = tuple(r for r in range(nprocs) if r not in g0)
        if g0 and g1:
            t0 = (0.05 + 0.45 * u("pt0")) * t_scale
            dur = (0.05 + 0.40 * u("pdur")) * t_scale
            partitions = (
                PartitionWindow(t_start=t0, t_end=t0 + dur, groups=(g0, g1)),
            )

    return FaultPlan(
        seed=derive_seed(seed, "plan-seed", index) & 0x7FFFFFFF,
        drop_rate=drop,
        dup_rate=dup,
        delay_rate=delay,
        degradations=tuple(degradations),
        partitions=partitions,
        crashes=crashes,
        detect_latency=detect,
        rma_drop_rate=rma_drop,
        rma_corrupt_rate=rma_corrupt,
    )


# ----------------------------------------------------------------------
# the default runner: matching + survivor verification + determinism
# ----------------------------------------------------------------------
def _fingerprint(res) -> tuple:
    mate_hash = hashlib.sha256(res.mate.tobytes()).hexdigest()[:16]
    return (res.makespan, float(res.weight), mate_hash)


def _run_config(plan: FaultPlan, max_ops: int | None, **fields) -> RunConfig:
    return RunConfig(faults=None if plan.is_null() else plan, max_ops=max_ops, **fields)


def matching_runner(g, nprocs: int, max_ops: int | None = None) -> Runner:
    """Build the production runner: run, verify, run again, compare."""
    from repro.matching.api import run_matching
    from repro.matching.verify import check_matching_valid
    from repro.mpisim.errors import (
        DeadlockError,
        RankFailure,
        SimError,
        SimLimitExceeded,
    )

    def one(backend: str, plan: FaultPlan):
        return run_matching(g, nprocs=nprocs, model=backend, config=_run_config(plan, max_ops))

    def run(backend: str, plan: FaultPlan) -> tuple[str, str]:
        try:
            res = one(backend, plan)
        except (DeadlockError, SimLimitExceeded) as e:
            return "hang", str(e).splitlines()[0]
        except (RankFailure, SimError) as e:
            return "crash", repr(e)
        try:
            check_matching_valid(g, res.mate)
        except AssertionError as e:
            return "invalid", str(e)
        try:
            res2 = one(backend, plan)
        except (SimError, AssertionError) as e:  # pragma: no cover - run 1 passed
            return "nondet", f"second run failed: {e!r}"
        if _fingerprint(res) != _fingerprint(res2):
            return "nondet", f"{_fingerprint(res)} != {_fingerprint(res2)}"
        return "ok", ""

    run.config = lambda backend, plan: _run_config(plan, max_ops)
    return run


def restart_matching_runner(
    g,
    nprocs: int,
    t_scales: dict[str, float],
    max_ops: int | None = None,
    kills: int = 2,
) -> Runner:
    """Build the ``--restart`` runner: checkpointed reference run, then
    kill/resume cycles proved bit-identical against it.

    Each plan gets one uninterrupted checkpointed reference run, then
    ``kills`` deterministic kill points sampled mid-run. Every killed run
    restarts from the latest checkpoint it saved before the kill (or
    from scratch when the kill lands before the first cut) and must
    reproduce the reference bit-for-bit: mate array, weight, makespan,
    the trace suffix from the cut onward, and the fault-counter totals.
    The runner returns a third element with the recovery-cost metrics
    (virtual time lost to rollback, transport retries, spurious
    detections — the last must stay zero: a healed partition never looks
    like a crash).
    """
    from repro.matching.api import run_matching
    from repro.mpisim.checkpoint import CheckpointConfig, CheckpointStore
    from repro.mpisim.errors import (
        DeadlockError,
        RankFailure,
        SimError,
        SimKilled,
        SimLimitExceeded,
    )

    def run(backend: str, plan: FaultPlan):
        t_scale = t_scales.get(backend, 1e-3)
        interval = t_scale / 4.0

        def cfg(**kw) -> RunConfig:
            return _run_config(plan, max_ops, trace=True, **kw)

        store = CheckpointStore()
        try:
            ref = run_matching(
                g, nprocs=nprocs, model=backend,
                config=cfg(checkpoint=CheckpointConfig(interval=interval,
                                                       store=store)),
            )
        except (DeadlockError, SimLimitExceeded) as e:
            return "hang", str(e).splitlines()[0]
        except (RankFailure, SimError) as e:
            return "crash", repr(e)
        ref_fp = _fingerprint(ref)
        ref_totals = ref.fault_totals()
        recovery = {
            "kills": 0,
            "rollback_vtime": 0.0,
            "from_scratch": 0,
            "retries": ref_totals["retransmits"],
            "spurious_detections": ref_totals["spurious_detections"],
        }
        for k in range(kills):
            kill_t = (0.25 + 0.6 * _unit(plan.seed, "kill", k)) * ref.makespan
            kstore = CheckpointStore()
            try:
                run_matching(
                    g, nprocs=nprocs, model=backend,
                    config=cfg(checkpoint=CheckpointConfig(interval=interval,
                                                           store=kstore),
                               kill_at=kill_t),
                )
                continue  # finished before the kill fired; nothing to resume
            except SimKilled:
                pass
            except (RankFailure, SimError) as e:
                return "crash", f"killed run failed: {e!r}", recovery
            snap = kstore.latest_before(kill_t)
            recovery["kills"] += 1
            if snap is None:
                # Killed before the first coordinated cut: restart from
                # scratch, losing the whole prefix. The rerun keeps the
                # same checkpoint config — on the Send-Recv backends an
                # enabled checkpointer deterministically shifts the
                # schedule (see docs/fault_model.md), so only a rerun
                # with identical cadence reproduces the reference.
                recovery["from_scratch"] += 1
                recovery["rollback_vtime"] += kill_t
                rcfg = cfg(
                    checkpoint=CheckpointConfig(
                        interval=interval, store=CheckpointStore()
                    )
                )
                expect_trace = ref.engine.trace
            else:
                recovery["rollback_vtime"] += kill_t - snap.vtime
                rcfg = cfg(restore=snap)
                expect_trace = ref.engine.trace[snap.state()["trace_len"]:]
            try:
                res = run_matching(g, nprocs=nprocs, model=backend, config=rcfg)
            except (RankFailure, SimError) as e:
                return "crash", f"resumed run failed: {e!r}", recovery
            if (
                _fingerprint(res) != ref_fp
                or res.engine.trace != expect_trace
                or res.fault_totals() != ref_totals
            ):
                epoch = "scratch" if snap is None else f"epoch {snap.epoch}"
                return (
                    "nondet",
                    f"restart (kill@{kill_t:.3e}, {epoch}) diverged from "
                    f"the uninterrupted run",
                    recovery,
                )
        return "ok", "", recovery

    run.config = lambda backend, plan: _run_config(plan, max_ops)
    return run


def churn_matching_runner(
    g,
    nprocs: int,
    t_scales: dict[str, float],
    max_ops: int | None = None,
    spares: int = default("chaos", "spares"),
    replicas: int = default("chaos", "replicas"),
) -> Runner:
    """Build the ``--churn`` runner: self-healing runs under crash churn.

    Each plan's churn stream runs through a whole matching run with
    automatic rollback-recovery on (diskless buddy-replicated
    checkpoints, spare-rank substitution). A surviving run must produce
    mate/weight bit-identical to the fault-free run and replay
    bit-identically (fingerprint, makespan, and the full recovery
    report). A run the recovery subsystem gives up on must fail the
    same classified way twice (same ``RecoveryFailed`` reason) — that is
    the ``unrecoverable`` verdict, accepted and reported, because
    whether a cut survives is a property of the sampled churn vs the
    replication degree, not of the code under test.

    The returned recovery dict reuses the ``--restart`` columns (kills,
    rollback_vtime, spurious_detections) and adds the churn-specific
    costs: spares consumed, cuts lost to buddy death, and mean recovery
    latency (detection + survivor agreement + slice fetch).
    """
    from repro.matching.api import run_matching
    from repro.matching.verify import check_matching_valid
    from repro.mpisim.checkpoint import CheckpointConfig
    from repro.mpisim.errors import (
        DeadlockError,
        RankFailure,
        RecoveryFailed,
        SimError,
        SimLimitExceeded,
    )

    clean_cache: dict[str, tuple] = {}

    def clean_fp(backend: str) -> tuple:
        if backend not in clean_cache:
            res = run_matching(
                g, nprocs=nprocs, model=backend,
                config=RunConfig(max_ops=max_ops),
            )
            clean_cache[backend] = _fingerprint(res)
        return clean_cache[backend]

    def config(backend: str, plan: FaultPlan) -> RunConfig:
        t_scale = t_scales.get(backend, 1e-3)
        return _run_config(
            plan, max_ops, checkpoint=CheckpointConfig(interval=t_scale / 8.0),
            spares=spares, replicas=replicas,
        )

    def one(backend: str, plan: FaultPlan):
        return run_matching(g, nprocs=nprocs, model=backend, config=config(backend, plan))

    def run(backend: str, plan: FaultPlan):
        recovery = {
            "kills": 0,
            "rollback_vtime": 0.0,
            "spares_used": 0,
            "cuts_lost": 0,
            "mean_recovery_latency": 0.0,
            "spurious_detections": 0,
        }
        try:
            res = one(backend, plan)
        except (DeadlockError, SimLimitExceeded) as e:
            return "hang", str(e).splitlines()[0], recovery
        except RecoveryFailed as e:
            # Accepted verdict iff deterministic: the rerun must give up
            # for the same reason after the same crash.
            try:
                one(backend, plan)
            except RecoveryFailed as e2:
                if (e2.reason, e2.rank, e2.t) == (e.reason, e.rank, e.t):
                    return "unrecoverable", e.reason, recovery
                return (
                    "nondet",
                    f"recovery failed differently on rerun: "
                    f"{(e.reason, e.rank, e.t)} != {(e2.reason, e2.rank, e2.t)}",
                    recovery,
                )
            except SimError as e2:  # pragma: no cover - first run gave up
                return "nondet", f"rerun failed differently: {e2!r}", recovery
            return "nondet", "unrecoverable run succeeded on rerun", recovery
        except (RankFailure, SimError) as e:
            return "crash", repr(e), recovery
        rep = res.recovery or {}
        recovery.update(
            kills=rep.get("recoveries", 0),
            rollback_vtime=rep.get("rollback_vtime", 0.0),
            spares_used=rep.get("spares_used", 0),
            cuts_lost=rep.get("cuts_lost", 0),
            mean_recovery_latency=rep.get("mean_recovery_latency", 0.0),
            spurious_detections=res.fault_totals()["spurious_detections"],
        )
        try:
            check_matching_valid(g, res.mate)
        except AssertionError as e:
            return "invalid", str(e), recovery
        fp = _fingerprint(res)
        ref = clean_fp(backend)
        # Replication and recovery charge real virtual time, so only the
        # outcome (weight + mate) must match the fault-free run.
        if fp[1:] != ref[1:]:
            return (
                "invalid",
                f"healed run diverged from fault-free: {fp[1:]} != {ref[1:]}",
                recovery,
            )
        if recovery["spurious_detections"] != 0:
            return (
                "invalid",
                f"{recovery['spurious_detections']} spurious detections in "
                "a recovery run (healed ranks must never look dead)",
                recovery,
            )
        try:
            res2 = one(backend, plan)
        except (SimError, AssertionError) as e:  # pragma: no cover
            return "nondet", f"second run failed: {e!r}", recovery
        if _fingerprint(res2) != fp or res2.recovery != res.recovery:
            return (
                "nondet",
                f"({fp}, {res.recovery}) != ({_fingerprint(res2)}, "
                f"{res2.recovery})",
                recovery,
            )
        return "ok", "", recovery

    run.config = config
    return run


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def plan_size(plan: FaultPlan) -> tuple:
    """Strictly decreasing along every shrink move."""
    rates = (
        plan.drop_rate, plan.dup_rate, plan.delay_rate,
        plan.rma_drop_rate, plan.rma_corrupt_rate,
    )
    deg_span = sum(d.t_end - d.t_start for d in plan.degradations)
    part_span = sum(w.t_end - w.t_start for w in plan.partitions)
    part_ranks = sum(len(g) for w in plan.partitions for g in w.groups)
    cp = plan.churn_plan
    # expected churn events per rank; halving the horizon or doubling
    # the MTBF both strictly shrink it
    churn_load = 0.0 if cp is None else cp.horizon / cp.mtbf
    return (
        len(plan.crashes) + len(plan.degradations) + len(plan.partitions)
        + sum(r > 0 for r in rates) + (cp is not None),
        sum(rates),
        deg_span,
        part_span,
        part_ranks,
        churn_load,
    )


def _shrink_candidates(plan: FaultPlan):
    """Strictly smaller plans to try, most aggressive first."""
    # drop the churn stream entirely, then thin it (double the MTBF /
    # halve the horizon — either halves the expected event count)
    cp = plan.churn_plan
    if cp is not None:
        yield replace(plan, churn_plan=None)
        yield replace(
            plan,
            churn_plan=ChurnPlan(mtbf=cp.mtbf * 2.0, horizon=cp.horizon,
                                 seed=cp.seed),
        )
        yield replace(
            plan,
            churn_plan=ChurnPlan(mtbf=cp.mtbf, horizon=cp.horizon / 2.0,
                                 seed=cp.seed),
        )
    crash_items = sorted(plan.crashes.items())
    # bisect the crash set
    if len(crash_items) > 1:
        half = len(crash_items) // 2
        yield replace(plan, crashes=dict(crash_items[:half]))
        yield replace(plan, crashes=dict(crash_items[half:]))
    # drop individual crashes
    for r, _ in crash_items:
        yield replace(plan, crashes={q: t for q, t in crash_items if q != r})
    # zero all rates at once
    rate_names = ("drop_rate", "dup_rate", "delay_rate",
                  "rma_drop_rate", "rma_corrupt_rate")
    if any(getattr(plan, n) > 0 for n in rate_names):
        yield replace(plan, **{n: 0.0 for n in rate_names})
    # zero, then halve, individual rates
    for n in rate_names:
        v = getattr(plan, n)
        if v > 0:
            yield replace(plan, **{n: 0.0})
    for n in rate_names:
        v = getattr(plan, n)
        if v > 1e-4:
            yield replace(plan, **{n: v / 2.0})
    # remove, then narrow, degradation windows
    for i in range(len(plan.degradations)):
        yield replace(
            plan,
            degradations=plan.degradations[:i] + plan.degradations[i + 1:],
        )
    for i, d in enumerate(plan.degradations):
        span = d.t_end - d.t_start
        if span > 1e-9:
            narrowed = NicDegradation(
                rank=d.rank, t_start=d.t_start,
                t_end=d.t_start + span / 2.0, factor=d.factor,
            )
            yield replace(
                plan,
                degradations=plan.degradations[:i] + (narrowed,)
                + plan.degradations[i + 1:],
            )
    # remove, then narrow, partition windows; then thin their groups
    for i in range(len(plan.partitions)):
        yield replace(
            plan,
            partitions=plan.partitions[:i] + plan.partitions[i + 1:],
        )
    for i, w in enumerate(plan.partitions):
        span = w.t_end - w.t_start
        if span > 1e-9:
            narrowed = PartitionWindow(
                t_start=w.t_start, t_end=w.t_start + span / 2.0,
                groups=w.groups,
            )
            yield replace(
                plan,
                partitions=plan.partitions[:i] + (narrowed,)
                + plan.partitions[i + 1:],
            )
        for gi, grp in enumerate(w.groups):
            # a group needs >= 1 rank; try dropping its last member
            if len(grp) > 1:
                thinned = w.groups[:gi] + (grp[:-1],) + w.groups[gi + 1:]
                yield replace(
                    plan,
                    partitions=plan.partitions[:i]
                    + (PartitionWindow(w.t_start, w.t_end, thinned),)
                    + plan.partitions[i + 1:],
                )


def shrink_plan(
    runner: Runner, backend: str, plan: FaultPlan, status: str,
    max_attempts: int = 200,
) -> tuple[FaultPlan, int]:
    """Greedily minimise ``plan`` while it reproduces ``status``.

    Returns ``(minimal plan, number of runner invocations)``. Greedy
    first-accept: each round tries candidates in order and restarts from
    the first strictly smaller plan that still fails the same way; a
    round with no accepted candidate is a fixpoint.
    """
    attempts = 0
    current = plan
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for cand in _shrink_candidates(current):
            if plan_size(cand) >= plan_size(current):
                continue
            attempts += 1
            if attempts > max_attempts:
                break
            got = runner(backend, cand)[0]
            if got == status:
                current = cand
                progress = True
                break
    return current, attempts


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render_cli(dataset: str, nprocs: int, backend: str, config: RunConfig) -> str:
    """A ready-to-paste ``python -m repro match`` line that runs ``config``.

    The problem and every other ``repro match`` knob that differs from
    its default are spelled with their flags from the knob table, floats
    in full, so the line parses back to the fault plan, budget,
    checkpoint interval and recovery settings the runner ran.
    """
    plan = config.faults or FaultPlan()
    cp = plan.churn_plan
    values = {
        "nprocs": nprocs, "model": backend, "fault_seed": plan.seed,
        "crash": [f"{r}:{t!r}" for r, t in sorted(plan.crashes.items())],
        "degrade": [f"{d.rank}:{d.t_start!r}:{d.t_end!r}:{d.factor!r}"
                    for d in plan.degradations],
        "partition": [
            f"{w.t_start!r}:{w.t_end!r}:"
            + "|".join(",".join(map(str, grp)) for grp in w.groups)
            for w in plan.partitions
        ],
        "churn_mtbf": cp.mtbf if cp else 0.0,
        "churn_horizon": cp.horizon if cp else 0.0,
        "max_ops": config.max_ops,
        "checkpoint_interval": config.checkpoint.interval if config.checkpoint else 0.0,
        "spares": config.spares,
        "replicas": config.replicas,
    }
    parts = [f"python -m repro match {dataset}"]
    for name, knob in knobs("match").items():
        default = knob.defaults["match"]
        value = values.get(name, getattr(plan, name, default))  # the rates
        if not knob.repeat:  # -p and -m always, the rest when not default
            value = [value] if value != default or name in ("nprocs", "model") else []
        parts += [f"{knob.flags[0]} {v if isinstance(v, str) else repr(v)}"
                  for v in value]
    return " ".join(parts)


@dataclass
class ChaosOutcome:
    """One sampled plan's verdict."""

    index: int
    backend: str
    plan: FaultPlan
    status: str
    detail: str = ""
    shrunk: FaultPlan | None = None
    shrink_attempts: int = 0
    #: recovery costs (None outside ``--restart``/``--churn``): kills
    #: taken, virtual time lost to rollback, from-scratch restarts,
    #: transport retries, spurious failure detections (must be 0), and —
    #: churn mode — spares consumed, cuts lost to buddy death, mean
    #: recovery latency
    recovery: dict | None = None


@dataclass
class ChaosReport:
    seed: int
    nprocs: int
    dataset: str
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    #: the runner's ``config(backend, plan)``, which repro lines render
    config: Callable[[str, FaultPlan], RunConfig] = lambda b, plan: _run_config(plan, None)

    @property
    def failures(self) -> list[ChaosOutcome]:
        """Property violations — ``unrecoverable`` is an accepted verdict."""
        return [o for o in self.outcomes if o.status not in _ACCEPTED]

    def render(self) -> str:
        unrec = sum(1 for o in self.outcomes if o.status == "unrecoverable")
        head = (
            f"chaos: {len(self.outcomes)} plans, seed={self.seed}, "
            f"dataset={self.dataset}, p={self.nprocs}: "
            f"{len(self.outcomes) - len(self.failures) - unrec} ok, "
        )
        if unrec:
            head += f"{unrec} unrecoverable, "
        head += f"{len(self.failures)} failing"
        lines = [head]
        for o in self.outcomes:
            summary = (
                f"crashes={sorted(o.plan.crashes)} "
                f"rates=({o.plan.drop_rate:.3f},{o.plan.dup_rate:.3f},"
                f"{o.plan.delay_rate:.3f},{o.plan.rma_drop_rate:.3f},"
                f"{o.plan.rma_corrupt_rate:.3f}) "
                f"deg={len(o.plan.degradations)} "
                f"part={len(o.plan.partitions)}"
            )
            if o.plan.churn_plan is not None:
                cp = o.plan.churn_plan
                summary += f" churn=(mtbf={cp.mtbf:.3e},horizon={cp.horizon:.3e})"
            if o.recovery is not None:
                r = o.recovery
                summary += (
                    f" | kills={r['kills']}"
                    f" rollback={r['rollback_vtime']:.3e}"
                )
                if "from_scratch" in r:
                    summary += (
                        f" scratch={r['from_scratch']} retries={r['retries']}"
                    )
                if "spares_used" in r:
                    summary += (
                        f" spares={r['spares_used']}"
                        f" cuts_lost={r['cuts_lost']}"
                        f" latency={r['mean_recovery_latency']:.3e}"
                    )
                summary += f" spurious={r['spurious_detections']}"
            lines.append(f"  [{o.index:3d}] {o.backend:4s} {o.status:7s} {summary}")
            if o.status != "ok":
                lines.append(f"        {o.detail}")
                target = o.shrunk if o.shrunk is not None else o.plan
                label = "shrunk to" if o.shrunk is not None else "plan"
                cfg = self.config(o.backend, target)
                lines.append(f"        {label}: "
                             + render_cli(self.dataset, self.nprocs, o.backend, cfg))
        return "\n".join(lines)

    #: CSV column order (stable across releases; extend at the end only)
    CSV_FIELDS = (
        "index", "backend", "status", "detail",
        "crashes", "churn_mtbf", "churn_horizon",
        "kills", "rollback_vtime", "from_scratch", "retries",
        "spares_used", "cuts_lost", "mean_recovery_latency",
        "spurious_detections",
    )

    def to_csv(self) -> str:
        """The per-plan verdicts + recovery-cost columns as CSV text.

        One row per outcome; recovery columns are blank for runs that
        did not use that subsystem (plain mode has no kills, restart
        mode has no spares, churn mode has no from-scratch restarts).
        """
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=self.CSV_FIELDS,
                           lineterminator="\n")
        w.writeheader()
        for o in self.outcomes:
            cp = o.plan.churn_plan
            row = {
                "index": o.index,
                "backend": o.backend,
                "status": o.status,
                "detail": o.detail,
                "crashes": ";".join(
                    f"{r}:{t:.9g}" for r, t in sorted(o.plan.crashes.items())
                ),
                "churn_mtbf": f"{cp.mtbf:.9g}" if cp is not None else "",
                "churn_horizon": f"{cp.horizon:.9g}" if cp is not None else "",
            }
            for key in (
                "kills", "rollback_vtime", "from_scratch", "retries",
                "spares_used", "cuts_lost", "mean_recovery_latency",
                "spurious_detections",
            ):
                if o.recovery is not None and key in o.recovery:
                    row[key] = o.recovery[key]
                else:
                    row[key] = ""
            w.writerow(row)
        return buf.getvalue()


def run_chaos(
    runner: Runner,
    *,
    seed: int,
    plans: int,
    nprocs: int,
    backends: tuple[str, ...] = ("nsr", "rma", "ncl"),
    t_scales: dict[str, float] | None = None,
    dataset: str = "?",
    do_shrink: bool = True,
    churn: bool = False,
    churn_mtbf: float | None = None,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Sample ``plans`` fault plans round-robin over ``backends``, run
    each through ``runner``, shrink failures. Fully deterministic given
    ``seed`` (the runner must be, too). ``churn=True`` samples pure
    crash-churn plans (pair with :func:`churn_matching_runner`);
    ``unrecoverable`` verdicts are reported but neither count as
    failures nor get shrunk — they are the sampled churn outpacing the
    replication degree, working as designed."""
    report = ChaosReport(seed=seed, nprocs=nprocs, dataset=dataset)
    if hasattr(runner, "config"):
        report.config = runner.config
    for i in range(plans):
        backend = backends[i % len(backends)]
        t_scale = (t_scales or {}).get(backend, 1e-3)
        plan = sample_plan(seed, i, nprocs, backend, t_scale, churn=churn,
                           churn_mtbf=churn_mtbf)
        out = runner(backend, plan)
        status, detail = out[0], out[1]
        recovery = out[2] if len(out) > 2 else None
        outcome = ChaosOutcome(
            index=i, backend=backend, plan=plan, status=status, detail=detail,
            recovery=recovery,
        )
        if status not in _ACCEPTED and do_shrink:
            shrunk, attempts = shrink_plan(runner, backend, plan, status)
            outcome.shrink_attempts = attempts
            if plan_size(shrunk) < plan_size(plan):
                outcome.shrunk = shrunk
        report.outcomes.append(outcome)
        if progress is not None:
            progress(f"[{i + 1}/{plans}] {backend} {status}")
    return report
