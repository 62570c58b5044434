"""Deterministic discrete-event engine executing SPMD rank programs.

Each simulated rank is one generator, stepped directly by the scheduler,
and ranks never run concurrently: a sequential scheduler hands a single
execution token to the rank with the smallest virtual clock, so the
whole simulation is a conservative discrete-event simulation and is
bit-for-bit deterministic for a given (program, machine model, seed).
Resuming a generator costs well under a microsecond and P=16384
generators are cheap, which is what puts the weak-scaling regime of the
source paper (Fig. 4) within reach.

Safety argument (why probing local queues is exact): the scheduler only
resumes the rank whose candidate time ``(t, rank_id)`` is minimal over all
ranks that can still act. Every message sent in the future is issued by a
rank acting at time >= t and arrives at time >= t + alpha with alpha > 0
(all machine models keep latency strictly positive), so no message that
"should have been there by t" can still be missing when a rank inspects its
queue at local time t.

The scheduler keeps that invariant with an indexed candidate-time heap
and lazy invalidation (docs/engine_scheduling.md has the full argument).
Every event that can create or lower a blocked rank's wake-up time
(message delivery, collective completion, neighborhood-collective entry)
re-evaluates that rank's candidate and pushes a fresh ``(t, rank,
version)`` key; stale keys are skipped on pop. Because a blocked rank's
wake potential can only *appear or decrease* while it is parked, and
every such change is caused by an action of the (single) running rank at
an instrumented call site, the valid heap minimum always equals the
minimum of an O(P) scan over every rank — a fact the test suite's scan
oracle machine-checks.

Rank programs interact with the engine only through
:class:`repro.mpisim.context.RankContext`; every communication call yields
to the scheduler *before* evaluating, which re-establishes the invariant
even after arbitrarily long local compute bursts.

A rank program is a *generator*: wherever it would block it delegates
(``yield from``) into the context's ``*_g`` methods, whose park points
yield a private marker that bubbles up the ``yield from`` chain to the
scheduler. A plain function that never blocks is also a valid target.
See docs/engine_scheduling.md.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from types import GeneratorType
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.mpisim.checkpoint import (
    PICKLE_PROTOCOL,
    CheckpointConfig,
    EngineSnapshot,
    ReplicatedCheckpointStore,
    make_snapshot,
    save_checkpoint,
)
from repro.mpisim.counters import CommMatrix, RunCounters
from repro.mpisim.errors import (
    DeadlockError,
    RankFailure,
    RecoveryFailed,
    SimAbort,
    SimKilled,
    SimLimitExceeded,
)
from repro.mpisim.faults import FaultPlan
from repro.mpisim.machine import MachineModel
from repro.mpisim.message import Message, ReceiveQueue
from repro.mpisim.recovery import RecoveryConfig
from repro.mpisim.tracing import RunProfile, SpanRecorder

# rank run states
_NEW = "new"
_READY = "ready"  # waiting for its turn, no wait condition
_RUNNING = "running"  # holds the execution token
_BLOCKED = "blocked"  # waiting on a predicate (message / collective)
_DONE = "done"
_FAILED = "failed"
_CRASHED = "crashed"  # killed by the fault plan at its scheduled time

_INF = float("inf")

#: Sentinel yielded by the engine's park points. The generator driver
#: rejects anything else surfacing from a rank program — a stray
#: ``yield`` in user code would otherwise be silently treated as a park
#: with whatever wake state was left behind.
_PARK = object()


def run_inline(gen):
    """Drive a simulator-call generator to completion without a scheduler.

    For code that runs off-engine — unit tests of ``MatchingState`` or
    :class:`~repro.mpisim.reliable.ReliableChannel` against scripted
    transports — where a ``*_g``
    call never reaches a park point, so one ``next`` runs it to
    ``StopIteration`` and the return value is exact. Reaching a park
    means non-generator code tried to block, which cannot be suspended;
    fail loudly instead of corrupting the schedule.
    """
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise RuntimeError(
        "blocking simulator call reached a park point under run_inline; "
        "convert the calling code to generator style "
        "('yield from ctx.<op>_g(...)')"
    )


def _never_wake() -> float | None:
    """Wake potential of a tick-parked rank: only the checkpoint
    assembly (not any message/collective event) may release it."""
    return None


@dataclass(slots=True)
class _RankState:
    rank: int
    clock: float = 0.0
    state: str = _NEW
    # this rank's program generator (None once finished)
    gen: Any = None
    queue: ReceiveQueue = field(default_factory=ReceiveQueue)
    # blocked-state wait condition:
    wake_potential: Callable[[], float | None] | None = None
    # NIC serialization bookkeeping
    nic_out_free: float = 0.0
    nic_in_free: float = 0.0
    # RMA: completion times of outstanding puts per window id
    rma_outstanding: dict[int, float] = field(default_factory=dict)
    result: Any = None
    error: BaseException | None = None
    describe: str = ""  # last operation, for deadlock dumps
    # span profiling: phase attributed to scheduler idle advances while
    # this rank is parked ("recv-wait", "collective-wait", ...)
    wait_phase: str = "wait"
    # crash notifications already consumed by this rank's wake logic
    failures_seen: set[int] = field(default_factory=set)
    # heap scheduler: version of this rank's newest candidate-heap entry;
    # any entry carrying an older version is stale and skipped on pop.
    heap_ver: int = 0
    # checkpointing: set while parked at a backend-marked safepoint wait
    # (a spec like ("probe", src, tag, deadline) the resume path replays)
    safepoint: tuple | None = None
    # checkpointing: parked at an explicit ctx.checkpoint_tick() boundary
    ckpt_tick: bool = False


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    nprocs: int
    makespan: float  #: max final virtual clock over ranks (the "runtime")
    rank_results: list[Any]
    counters: RunCounters
    machine: MachineModel
    scheduler_switches: int
    total_ops: int
    crashed_ranks: tuple[int, ...] = ()  #: ranks killed by the fault plan
    final_clocks: tuple[float, ...] = ()  #: per-rank final virtual clocks
    trace: list | None = None  #: TraceEvent list when tracing was enabled
    profile: RunProfile | None = None  #: span profile when profiling was enabled
    #: rollback-recovery report (recoveries, spares used, rollback vtime,
    #: cuts lost to buddy death, replication traffic, mean recovery
    #: latency) when the run had a RecoveryConfig; None otherwise
    recovery: dict | None = None

    def max_clock(self) -> float:
        return self.makespan


class Engine:
    """Runs ``nprocs`` rank programs under one machine model.

    Parameters
    ----------
    nprocs:
        Number of simulated MPI ranks.
    machine:
        Cost model; must have strictly positive ``alpha``.
    max_ops:
        Abort with :class:`SimLimitExceeded` after this many charged
        operations (guards against runaway programs in tests).
    max_vtime:
        Abort when any rank's clock passes this virtual time.
    profile:
        Record phase-attributed :class:`~repro.mpisim.tracing.Span`\\ s
        for every virtual second of every rank; the finalized
        :class:`~repro.mpisim.tracing.RunProfile` is returned on
        ``EngineResult.profile``. Off by default (zero cost, and the
        differential suite proves the disabled path bit-identical).
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel,
        *,
        max_ops: int | None = None,
        max_vtime: float | None = None,
        trace: bool = False,
        profile: bool = False,
        faults: FaultPlan | None = None,
        checkpoint: CheckpointConfig | None = None,
        kill_at: float | None = None,
        restore: EngineSnapshot | None = None,
        recovery: RecoveryConfig | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if machine.alpha <= 0.0:
            raise ValueError("machine.alpha must be strictly positive (DES safety)")
        if faults is not None:
            if faults.is_null():
                faults = None  # a null plan is behaviourally absent
            else:
                bad = [r for r in faults.crashes if not 0 <= r < nprocs]
                if bad:
                    raise ValueError(f"fault plan crashes unknown ranks {bad}")
        if faults is not None and faults.has_churn() and recovery is None:
            raise ValueError(
                "a churn fault plan streams crashes through the whole run "
                "and requires recovery=RecoveryConfig(...) (spares + buddy "
                "replication) to be survivable"
            )
        if recovery is not None:
            if checkpoint is None:
                raise ValueError(
                    "recovery= requires checkpoint=CheckpointConfig(...): "
                    "rollback needs coordinated cuts to roll back to"
                )
            if profile:
                raise ValueError(
                    "profile=True cannot be combined with recovery= (the "
                    "span profiler cannot unwind rolled-back spans)"
                )
            if not isinstance(checkpoint.store, ReplicatedCheckpointStore):
                # Adopt the caller's cadence/dir but replicate the cuts:
                # diskless recovery is only possible from buddy copies.
                checkpoint = CheckpointConfig(
                    interval=checkpoint.interval,
                    store=ReplicatedCheckpointStore(
                        replicas=recovery.replicas,
                        keep=checkpoint.store.keep,
                    ),
                    dir=checkpoint.dir,
                    prefix=checkpoint.prefix,
                )
        self.nprocs = nprocs
        self.machine = machine
        self.max_ops = max_ops
        self.max_vtime = max_vtime
        # The hot paths test one precomputed bound each (inf when off).
        self._op_limit = _INF if max_ops is None else max_ops
        self._vtime_limit = min(
            (v for v in (max_vtime, kill_at) if v is not None), default=_INF)
        self.faults = faults
        self._heap: list[tuple[float, int, int]] = []
        # Blocked ranks whose wake potential may have changed since their
        # last indexing. Drained (re-evaluated + re-pushed) once per
        # scheduling decision, so a burst of deliveries to one parked
        # rank costs one closure evaluation, not one per message.
        self._stale: set[int] = set()

        self.counters = RunCounters(nprocs)
        self.trace: list | None = [] if trace else None
        # Span profiler: records a phase-attributed span at every clock
        # advance. None when disabled, so the hot paths pay one branch.
        self.profiler: SpanRecorder | None = SpanRecorder(nprocs) if profile else None
        self._ranks = [_RankState(r) for r in range(nprocs)]
        self._abort = False
        self._send_seq = 0
        # Per-(src, dst) last delivery time: MPI guarantees non-overtaking
        # point-to-point ordering, so a small message sent after a large
        # one must not arrive earlier.
        self._pair_arrival: dict[tuple[int, int], float] = {}
        self._op_count = 0
        self._post_count = 0  # fault-fate index: one per post_message call
        self._put_count = 0  # one-sided fate index: one per issued put
        self._crashed: dict[int, float] = {}  # rank -> time it was killed
        # ULFM-style revocation: scope_id -> (revoke time, crashed rank that
        # triggered it). Entrants of ops on a revoked scope raise instead
        # of waiting for a rendezvous that can never complete.
        self._revoked_scopes: dict[Any, tuple[float, int]] = {}
        self._switches = 0
        self._started = False

        # collective bookkeeping: scope_id -> per-rank next sequence number
        self._coll_seq: dict[tuple[int, int], int] = {}
        self._coll_ops: dict[tuple[int, int], Any] = {}
        self._next_scope_id = 1  # scope 0 = COMM_WORLD
        self._windows: list[Any] = []
        self._topologies: list[Any] = []
        # Deterministic simulator-internal shared state (e.g. a window
        # store adopted by ranks arriving from different failure epochs):
        # first caller's factory wins, later callers get the same object.
        self._shared_objects: dict[Any, Any] = {}

        # ---- automatic rollback-recovery ----
        self._recovery = recovery
        self._spares_left = recovery.spares if recovery is not None else 0
        # Crash events that already fired (and were healed): a clock
        # rewind must never refire them. Deliberately NOT part of
        # snapshots — fault history belongs to the engine, not the cut.
        self._fired_crashes: set[int] = set()
        self._churn_fired: dict[int, int] = {}  # rank -> consumed events
        self._recovery_due: tuple[int, float] | None = None
        self._relaunch: tuple | None = None
        self._recovery_stats: dict | None = None
        if recovery is not None:
            self._recovery_stats = {
                "recoveries": 0,
                "spares_used": 0,
                "rollback_vtime": 0.0,
                "cuts_lost": 0,
                "replica_msgs": 0,
                "replica_bytes": 0,
                "recovery_latency": [],
                "crashes_survived": [],
            }

        # ---- coordinated checkpoint/restart ----
        self.kill_at = kill_at
        self._ckpt = checkpoint
        self._ckpt_epoch = 0
        self._ckpt_next_due = checkpoint.interval if checkpoint is not None else _INF
        self._ckpt_providers: dict[int, Callable[[], Any]] = {}
        self._restore_state: dict | None = None
        if restore is not None:
            if profile:
                raise ValueError(
                    "profile=True cannot be combined with restore= (the span "
                    "profiler requires observing the run from virtual time 0)"
                )
            st = restore.state()
            if st["nprocs"] != nprocs:
                raise ValueError(
                    f"snapshot was taken with nprocs={st['nprocs']}, "
                    f"engine has nprocs={nprocs}"
                )
            if st["machine"] != machine:
                raise ValueError(
                    "snapshot was taken under a different machine model; "
                    "restore requires the identical model for bit-identity"
                )
            if st["faults"] != faults:
                raise ValueError(
                    "snapshot was taken under a different fault plan; "
                    "restore requires the identical plan for bit-identity"
                )
            # Re-arm checkpointing exactly as the snapshot left it: the
            # interval and the next due point must match the original run
            # so every later cut (and deterministic skip) replays
            # identically. A caller-passed config contributes only its
            # store/dir/prefix; the cadence always comes from the snapshot.
            ck = st["ckpt"]
            if checkpoint is not None:
                self._ckpt = CheckpointConfig(
                    interval=ck["interval"], store=checkpoint.store,
                    dir=checkpoint.dir, prefix=checkpoint.prefix,
                )
            else:
                self._ckpt = CheckpointConfig(interval=ck["interval"])
            self._ckpt_next_due = ck["next_due"]
            self._ckpt_epoch = ck["epoch"]
            self._restore_state = st

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        target: Callable[..., Any],
        args: Sequence[Any] = (),
        per_rank_args: Sequence[Sequence[Any]] | None = None,
    ) -> EngineResult:
        """Execute ``target(ctx, *args)`` on every rank to completion.

        ``per_rank_args`` optionally supplies a distinct argument tuple per
        rank (appended after the shared ``args``).
        """
        if self._started:
            raise RuntimeError("an Engine instance can only run once")
        self._started = True

        self._relaunch = (target, tuple(args), per_rank_args)
        restore = self._restore_state
        if restore is not None:
            self._apply_restore_globals(restore)
        self._launch_ranks(restore)

        try:
            for rs in self._ranks:
                self._push_candidate(rs)
            self._scheduler_loop()
        finally:
            self._abort = True
            self._unwind_ranks()

        failed = [rs for rs in self._ranks if rs.state == _FAILED]
        if failed:
            first = failed[0]
            if isinstance(first.error, (SimLimitExceeded, SimKilled)):
                raise first.error
            raise RankFailure(first.rank, first.error) from first.error

        makespan = max(rs.clock for rs in self._ranks)
        profile = None
        if self.profiler is not None:
            profile = self.profiler.finalize(
                tuple(rs.clock for rs in self._ranks), makespan,
                dict(self._crashed),
            )
        return EngineResult(
            nprocs=self.nprocs,
            makespan=makespan,
            rank_results=[rs.result for rs in self._ranks],
            counters=self.counters,
            machine=self.machine,
            scheduler_switches=self._switches,
            total_ops=self._op_count,
            crashed_ranks=tuple(sorted(self._crashed)),
            final_clocks=tuple(rs.clock for rs in self._ranks),
            trace=self.trace,
            profile=profile,
            recovery=self.recovery_report(),
        )

    def recovery_report(self) -> dict | None:
        """Summarize rollback-recovery activity, or None when disabled."""
        s = self._recovery_stats
        if s is None:
            return None
        lat = s["recovery_latency"]
        return {
            "recoveries": s["recoveries"],
            "spares_used": s["spares_used"],
            "spares_left": self._spares_left,
            "rollback_vtime": s["rollback_vtime"],
            "cuts_lost": s["cuts_lost"],
            "replica_msgs": s["replica_msgs"],
            "replica_bytes": s["replica_bytes"],
            "mean_recovery_latency": (sum(lat) / len(lat)) if lat else 0.0,
            "crashes_survived": tuple(s["crashes_survived"]),
            # The effective (replicated) store is internal — the caller's
            # CheckpointConfig.store stays untouched — so the cut count
            # must travel in the report.
            "cuts_held": len(self._ckpt.store),
        }

    def _launch_ranks(self, restore: dict | None) -> None:
        """(Re)launch every rank body, optionally from a snapshot's
        per-rank records. Shared by :meth:`run` (process start) and the
        recovery controller (mid-run rollback, where the dead slot's
        record is adopted by a spare under the same rank id)."""
        from repro.mpisim.context import RankContext  # cycle-free at runtime

        target, args, per_rank_args = self._relaunch
        for rs in self._ranks:
            rsnap = restore["ranks"][rs.rank] if restore is not None else None
            if rsnap is not None and rsnap["status"] != "live":
                # Finished and crashed ranks need no body: their final
                # state is already part of the snapshot.
                rs.clock = rsnap["clock"]
                rs.nic_out_free = rsnap.get("nic_out_free", 0.0)
                rs.nic_in_free = rsnap.get("nic_in_free", 0.0)
                if rsnap["status"] == "done":
                    rs.state = _DONE
                    rs.result = rsnap["result"]
                else:
                    rs.state = _CRASHED
                continue
            extra = tuple(per_rank_args[rs.rank]) if per_rank_args else ()
            ctx = RankContext(self, rs.rank)
            if rsnap is not None:
                rs.clock = rsnap["clock"]
                rs.queue = rsnap["queue"]
                rs.nic_out_free = rsnap["nic_out_free"]
                rs.nic_in_free = rsnap["nic_in_free"]
                rs.rma_outstanding = rsnap["rma_outstanding"]
                rs.failures_seen = rsnap["failures_seen"]
                ctx._resume = rsnap
            rs.gen = self._gen_main(rs, ctx, target, args + extra)
            rs.state = _READY

        if restore is not None:
            # Ranks recorded at a safepoint wait (e.g. a probe) were
            # already parked when the cut was assembled, so they must be
            # back in that park before any scheduling decision: the next
            # cut can be due before their candidate time, and the
            # uninterrupted run assembles it while they sit blocked. The
            # path from generator start to the re-issued park charges no
            # virtual time and emits no trace, so running it eagerly (in
            # rank order) is invisible to the replayed schedule.
            for rs in self._ranks:
                rsnap = restore["ranks"][rs.rank]
                if rs.state != _READY or rsnap["status"] != "live":
                    continue
                wait = rsnap.get("wait")
                if wait is not None and wait[0] != "tick":
                    self._switch_to(rs)

    # ------------------------------------------------------------------
    # rank bodies (one generator per rank)
    # ------------------------------------------------------------------
    def _gen_main(self, rs: _RankState, ctx, target, args):
        """Rank body: the exception envelope around one rank program.
        Park markers from the program's ``yield from`` chain pass
        straight through to the driver in :meth:`_switch_to`."""
        try:
            res = target(ctx, *args)
            if isinstance(res, GeneratorType):
                res = yield from res
            rs.result = res
            rs.state = _DONE
            # A finished rank is never captured again; dropping its hook
            # frees the application state it closes over now, instead of
            # with the engine's reference cycles at the next GC pass.
            self._ckpt_providers.pop(rs.rank, None)
        except SimAbort:
            if rs.state not in (_FAILED, _CRASHED):
                rs.state = _DONE
        except GeneratorExit:
            # close() during teardown/GC; shutdown proper throws SimAbort.
            if rs.state not in (_DONE, _FAILED, _CRASHED):
                rs.state = _DONE
            raise
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            rs.error = exc
            rs.state = _FAILED

    def _unwind_ranks(self) -> None:
        """Unwind every still-suspended rank generator: SimAbort at the
        park point, absorbed by the :meth:`_gen_main` envelope. Shared by
        the end of :meth:`run` and the recovery controller, which
        relaunches the slots from a restored cut afterwards."""
        for rs in self._ranks:
            gen, rs.gen = rs.gen, None
            if gen is None:
                continue
            try:
                gen.throw(SimAbort)
            except StopIteration:
                pass
            except SimAbort:
                # Never-started generator: the throw propagates without
                # running the envelope.
                if rs.state not in (_FAILED, _CRASHED):
                    rs.state = _DONE

    # ------------------------------------------------------------------
    # scheduler: indexed candidates, lazy invalidation
    # ------------------------------------------------------------------
    def _push_candidate(self, rs: _RankState) -> None:
        """(Re)index ``rs``'s candidate time.

        Bumps the rank's entry version first, so any previously pushed key
        for this rank becomes stale and is discarded lazily on pop. A
        blocked rank whose wake potential is None gets no entry (it cannot
        act until a future event re-indexes it).
        """
        rs.heap_ver += 1
        if rs.state == _READY:
            heappush(self._heap, (rs.clock, rs.rank, rs.heap_ver))
        elif rs.state == _BLOCKED:
            t = rs.wake_potential()
            if t is not None:
                if t < rs.clock:
                    t = rs.clock
                heappush(self._heap, (t, rs.rank, rs.heap_ver))

    def notify_ranks(self, ranks: Iterable[int]) -> None:
        """Mark blocked ranks whose wake potential may have changed.

        Called at every instrumented event site (message delivery,
        collective completion, neighborhood-collective entry). The marks
        are drained lazily — once per scheduler decision and once per
        rank-side yield — so a burst of deliveries to one parked rank
        costs one wake-potential evaluation, not one per message.
        """
        states = self._ranks
        stale = self._stale
        for r in ranks:
            if states[r].state == _BLOCKED:
                stale.add(r)

    def _drain_stale(self) -> None:
        """Re-index every marked rank (scheduler side, once per decision)."""
        stale = self._stale
        if stale:
            ranks = self._ranks
            for r in stale:
                rs = ranks[r]
                if rs.state == _BLOCKED:
                    self._push_candidate(rs)
            stale.clear()

    def _heap_min(self) -> tuple[float, int] | None:
        """Valid heap minimum ``(t, rank)`` after discarding stale keys."""
        heap = self._heap
        ranks = self._ranks
        while heap:
            t, rank, ver = heap[0]
            rs = ranks[rank]
            if ver != rs.heap_ver or (rs.state != _READY and rs.state != _BLOCKED):
                heappop(heap)
                continue
            return (t, rank)
        return None

    def _scheduler_loop(self) -> None:
        faults = self.faults
        while True:
            if self._recovery_due is not None:
                self._perform_recovery()
                continue
            ranks = self._ranks
            self._drain_stale()
            best = self._heap_min()
            if self._ckpt is not None and self._ckpt_poll(best):
                continue
            if best is None:
                if all(rs.state in (_DONE, _CRASHED) for rs in ranks):
                    return
                if any(rs.state == _FAILED for rs in ranks):
                    return  # abort the run; run() raises
                if self._crash_next_pending():
                    continue
                self._raise_deadlock()
            # The chosen key stays in the heap: from here on its rank is
            # running, crashed, finished or re-indexed, so _heap_min
            # discards the key like any other stale entry.
            t, rank = best
            rs = ranks[rank]
            if faults is not None:
                # Crash event: the rank dies at its scheduled time instead
                # of acting at or after it.
                tc = self._scheduled_crash(rank)
                if tc is not None and t >= tc:
                    self._crash_rank(rs, tc)
                    continue
            if t > rs.clock:
                self.counters.ranks[rank].idle_time += t - rs.clock
                if self.profiler is not None:
                    self.profiler.add(rank, rs.wait_phase, rs.clock, t,
                                      is_wait=True)
                rs.clock = t
            self._switch_to(rs)
            if rs.state == _FAILED:
                return

    def _switch_to(self, rs: _RankState) -> None:
        self._switches += 1
        rs.state = _RUNNING
        rs.wake_potential = None
        # Step the rank's generator until its next park (it yields the
        # park marker) or its completion (the _gen_main envelope has
        # already recorded result/error and final state).
        gen = rs.gen
        try:
            yielded = next(gen)
        except StopIteration:
            rs.gen = None
            return
        if yielded is not _PARK:
            rs.gen = None
            gen.close()
            raise RuntimeError(
                f"rank {rs.rank} yielded {yielded!r} to the scheduler; "
                "rank programs may only suspend through the simulator's "
                "park points (did the program 'yield' a value instead of "
                "'yield from' a ctx call?)"
            )

    # ------------------------------------------------------------------
    # coordinated checkpointing (scheduler side)
    # ------------------------------------------------------------------
    def _ckpt_poll(self, best: tuple[float, int] | None) -> bool:
        """Check whether the next checkpoint cut can be assembled.

        A cut is taken when every live rank is parked at a checkpoint
        boundary — either an explicit ``ctx.checkpoint_tick()`` park
        (collective-style backends) or a backend-marked safepoint wait
        (probe-loop backends) — and no rank can still act before the due
        time. Returns True when it consumed this scheduling decision
        (snapshot taken and/or tick-parked ranks released); the loop then
        re-evaluates from scratch.

        Deadlock breaker: when the only wakeable events are held by
        tick-parked ranks (e.g. a rank parked inside a neighborhood
        collective is waiting for a peer that parked at its loop-top
        tick), the due point is *skipped deterministically* — ticks are
        released without a snapshot and the next due time advances. A
        restored run replays the same skip because every snapshot records
        the advanced ``next_due``.
        """
        due = self._ckpt_next_due
        if best is not None and best[0] < due:
            return False
        live = [rs for rs in self._ranks if rs.state not in (_DONE, _CRASHED)]
        if not live or any(rs.state == _FAILED for rs in live):
            return False
        ticked = [rs for rs in live if rs.state == _BLOCKED and rs.ckpt_tick]
        all_parked = all(
            rs.state == _BLOCKED and (rs.ckpt_tick or rs.safepoint is not None)
            for rs in live
        )
        if all_parked and (ticked or best is not None):
            self._take_checkpoint(due)
            self._ckpt_next_due = due + self._ckpt.interval
            self._release_ticks(ticked)
            return True
        if best is None and ticked:
            self._ckpt_next_due = due + self._ckpt.interval
            self._release_ticks(ticked)
            return True
        return False

    def _release_ticks(self, ticked: list[_RankState]) -> None:
        """Wake tick-parked ranks at their own clocks (zero virtual cost)."""
        for rs in ticked:
            rs.ckpt_tick = False
            rs.state = _READY
            rs.wake_potential = None
            self._push_candidate(rs)

    def _take_checkpoint(self, due: float) -> None:
        """Capture one coordinated cut and append it to the store.

        The whole engine state goes into a single pickle, which preserves
        object identity across ranks (a window store shared by all ranks
        is restored as one shared object) and isolates the snapshot from
        any mutation after this instant. Checkpointing charges no virtual
        time and emits no trace events, so a checkpointed run is
        bit-identical to an uncheckpointed one.
        """
        ranks_state: list[dict] = []
        for rs in self._ranks:
            if rs.state == _DONE:
                ranks_state.append({
                    "status": "done", "clock": rs.clock, "result": rs.result,
                    "nic_out_free": rs.nic_out_free,
                    "nic_in_free": rs.nic_in_free,
                })
                continue
            if rs.state == _CRASHED:
                ranks_state.append({"status": "crashed", "clock": rs.clock})
                continue
            provider = self._ckpt_providers.get(rs.rank)
            ranks_state.append({
                "status": "live",
                "clock": rs.clock,
                "queue": rs.queue,
                "nic_out_free": rs.nic_out_free,
                "nic_in_free": rs.nic_in_free,
                "rma_outstanding": rs.rma_outstanding,
                "failures_seen": rs.failures_seen,
                "wait": ("tick",) if rs.ckpt_tick else rs.safepoint,
                "app": provider() if provider is not None else None,
            })
        state = {
            "nprocs": self.nprocs,
            "machine": self.machine,
            "faults": self.faults,
            "vtime": due,
            "ranks": ranks_state,
            "send_seq": self._send_seq,
            "pair_arrival": self._pair_arrival,
            "op_count": self._op_count,
            "post_count": self._post_count,
            "put_count": self._put_count,
            "crashed": self._crashed,
            "revoked_scopes": self._revoked_scopes,
            "switches": self._switches,
            "coll_seq": self._coll_seq,
            "coll_ops": self._coll_ops,
            "next_scope_id": self._next_scope_id,
            "shared_objects": self._shared_objects,
            "counters": self.counters,
            "trace_len": len(self.trace) if self.trace is not None else 0,
            "ckpt": {
                "interval": self._ckpt.interval,
                "next_due": due + self._ckpt.interval,
                "epoch": self._ckpt_epoch + 1,
            },
        }
        snap = make_snapshot(self._ckpt_epoch, due, self.nprocs, state)
        self._ckpt_epoch += 1
        self._ckpt.store.add(snap)
        if self._recovery is not None:
            self._charge_replication(snap, ranks_state)
        if self._ckpt.dir is not None:
            ckdir = Path(self._ckpt.dir)
            ckdir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(
                snap, ckdir / f"{self._ckpt.prefix}-epoch{snap.epoch}.ckpt"
            )

    def _charge_replication(self, snap: EngineSnapshot, ranks_state: list) -> None:
        """Push every live rank's slice of a fresh cut to its buddies.

        Diskless checkpointing is not free: each owner is charged the
        machine-model cost of ``k`` real sends of its pickled slice
        (origin CPU + wire + injection) at the instant the cut is
        assembled. The copies live only in the buddies' memory — no disk
        — which is exactly why a later holder death can erase them. Runs
        without a RecoveryConfig never reach this path, so plain
        checkpointing stays pure instrumentation.
        """
        store: ReplicatedCheckpointStore = self._ckpt.store
        sizes: dict[int, int] = {}
        for rs in self._ranks:
            if rs.state in (_DONE, _CRASHED):
                continue
            sizes[rs.rank] = len(
                pickle.dumps(ranks_state[rs.rank], protocol=PICKLE_PROTOCOL)
            )
        store.record_replication(snap, sizes)
        k = min(store.replicas, self.nprocs - 1)
        if k == 0:
            return
        m = self.machine
        stats = self._recovery_stats
        for r in sorted(sizes):
            nb = sizes[r]
            cost = k * (m.send_origin_cost(nb) + m.transit_time(nb)
                        + m.injection_time(nb))
            self._ranks[r].clock += cost
            stats["replica_msgs"] += k
            stats["replica_bytes"] += k * nb
        # Parked owners' candidate times moved with their clocks.
        self._stale.update(r for r in sizes if self._ranks[r].state == _BLOCKED)

    def _apply_restore_globals(self, st: dict) -> None:
        """Adopt the snapshot's engine-global state (restore path).

        All these structures come out of one pickle, so cross-references
        survive: restored agreement collectives' ``crashed_at`` is the
        same dict object as ``st["crashed"]``, which becomes
        ``self._crashed`` here — kills after resume stay visible to
        collectives created before the cut. The explicit rewiring below
        is belt-and-braces for snapshots assembled by other means.
        """
        self._send_seq = st["send_seq"]
        self._pair_arrival = st["pair_arrival"]
        self._op_count = st["op_count"]
        self._post_count = st["post_count"]
        self._put_count = st["put_count"]
        self._crashed = st["crashed"]
        self._revoked_scopes = st["revoked_scopes"]
        self._switches = st["switches"]
        self._coll_seq = st["coll_seq"]
        self._coll_ops = st["coll_ops"]
        self._next_scope_id = st["next_scope_id"]
        self._shared_objects = st["shared_objects"]
        self.counters = st["counters"]
        from repro.mpisim.collectives import AgreementCollective

        for op in self._coll_ops.values():
            if isinstance(op, AgreementCollective):
                op.crashed_at = self._crashed

    # ------------------------------------------------------------------
    # automatic rollback-recovery (scheduler side)
    # ------------------------------------------------------------------
    def _perform_recovery(self) -> None:
        """Heal the crash recorded in ``_recovery_due``.

        ULFM-style sequence, compressed into one deterministic scheduler
        action: survivors agree on the newest *complete* buddy-replicated
        cut (every slice still has a living holder), every live rank
        rolls back to it through the same restore machinery used by
        ``Engine(restore=...)``, and a warm spare adopts the dead rank's
        slot — same rank id, its slice fetched from the first surviving
        buddy — so P and the process topology are unchanged. The cost
        (detection latency + agreement + slice fetch) is charged to every
        surviving clock; determinism of the matching result under the
        shifted schedule is exactly the confluence property the restart
        suite already pins.

        Raises :class:`RecoveryFailed` (classified, with the store's
        per-cut report) when no complete cut survives, no cut was ever
        taken, or the spare budget is exhausted.
        """
        dead, tc = self._recovery_due
        self._recovery_due = None
        store: ReplicatedCheckpointStore = self._ckpt.store
        stats = self._recovery_stats
        stats["crashes_survived"].append((dead, tc))
        # The holder died: its own slice and every buddy copy it stored
        # (for every cut still in the store) die with it — permanently.
        store.mark_rank_lost(dead)
        snap, _ = store.latest_complete()
        if snap is None:
            reason = "no-cut-taken" if len(store) == 0 else "no-complete-cut"
            raise RecoveryFailed(reason, dead, tc, store.explain())
        if self._spares_left <= 0:
            raise RecoveryFailed("spares-exhausted", dead, tc, store.explain())
        self._spares_left -= 1

        # Unwind every still-live rank body, then restore the engine and
        # all rank slots from the chosen cut (the spare adopts the dead
        # slot's record). Cuts newer than the chosen one belong to the
        # abandoned timeline; count them as lost to buddy death.
        self._unwind_ranks()
        st = snap.state()
        self._apply_restore_globals(st)
        if self.trace is not None:
            del self.trace[st["trace_len"]:]
        ck = st["ckpt"]
        self._ckpt_next_due = ck["next_due"]
        self._ckpt_epoch = ck["epoch"]
        self._ckpt_providers.clear()
        stats["cuts_lost"] += store.discard_after(snap.epoch)
        self._ranks = [_RankState(r) for r in range(self.nprocs)]
        self._heap.clear()
        self._stale.clear()
        self._launch_ranks(st)

        # Recovery cost, charged uniformly to every live clock: failure
        # detection, the survivor agreement on the rollback target (one
        # 8-byte allreduce), and the revived slot's slice fetch from its
        # buddy (everyone waits for the straggler before the new epoch).
        delta = self.faults.detect_latency + self.machine.allreduce_cost(
            self.nprocs, 8
        )
        nb = store.slice_size(snap.epoch, dead)
        if nb:
            m = self.machine
            delta += (m.send_origin_cost(nb) + m.transit_time(nb)
                      + m.injection_time(nb))
        for rs in self._ranks:
            if rs.state not in (_DONE, _CRASHED):
                rs.clock += delta
        for rs in self._ranks:
            self._push_candidate(rs)

        stats["recoveries"] += 1
        stats["spares_used"] += 1
        stats["rollback_vtime"] += tc - snap.vtime
        stats["recovery_latency"].append(delta)

    def register_checkpoint_provider(self, rank: int, fn: Callable[[], Any]) -> None:
        """Register the application-state capture hook for ``rank``.

        Called back (scheduler side) at every coordinated cut; must
        return a picklable blob free of engine/context references. The
        blob comes back as ``ctx.resume_app_state()`` after a restore.
        """
        self._ckpt_providers[rank] = fn

    def checkpoint_tick_g(self, rank: int):
        """Rank-side checkpoint boundary for collective-style backends.

        A no-op until this rank's clock reaches the next due cut; then
        the rank parks (with no wake condition) until the scheduler has
        assembled the cut and releases it at its own clock. Charges
        nothing, so runs with checkpointing enabled stay bit-identical.
        """
        if self._ckpt is None:
            return
        rs = self._ranks[rank]
        if rs.clock < self._ckpt_next_due:
            return
        if self.faults is not None:
            self._check_self_crash(rank)
        rs.describe = "checkpoint-tick"
        rs.wait_phase = "checkpoint-wait"
        rs.state = _BLOCKED
        rs.wake_potential = _never_wake
        rs.ckpt_tick = True
        # Invalidate any stale heap entry for this rank: a tick park
        # must only be released by the checkpoint assembly itself.
        rs.heap_ver += 1
        yield _PARK
        if self._abort:
            raise SimAbort()
        rs.state = _RUNNING
        rs.ckpt_tick = False
        rs.describe = ""

    # ------------------------------------------------------------------
    # fault-plan crash machinery
    # ------------------------------------------------------------------
    def _scheduled_crash(self, rank: int) -> float | None:
        """Pending crash time for ``rank``, or None (already dead counts).

        Under recovery, events that already fired and were healed are
        excluded (``_fired_crashes`` / the per-rank churn cursor): a
        rollback rewinds clocks but never refires a survived crash. A
        churn event targets a *slot*, so after a spare substitution the
        next event on the same slot kills the substitute.
        """
        if self.faults is None or rank in self._crashed:
            return None
        cand = None
        if rank not in self._fired_crashes:
            cand = self.faults.crash_time(rank)
        cp = self.faults.churn_plan
        if cp is not None:
            events = cp.events_for(rank)
            i = self._churn_fired.get(rank, 0)
            if i < len(events) and (cand is None or events[i] < cand):
                cand = events[i]
        return cand

    def _mark_crash_fired(self, rank: int, tc: float) -> None:
        """Consume the crash event(s) behind a kill at ``tc`` and, when
        recovery is armed, schedule the rollback (scheduler side)."""
        if self._recovery is None:
            return
        static = self.faults.crash_time(rank)
        if static is not None and static <= tc:
            self._fired_crashes.add(rank)
        cp = self.faults.churn_plan
        if cp is not None:
            events = cp.events_for(rank)
            i = self._churn_fired.get(rank, 0)
            while i < len(events) and events[i] <= tc:
                i += 1
            self._churn_fired[rank] = i
        self._recovery_due = (rank, tc)

    def _crash_rank(self, rs: _RankState, tc: float) -> None:
        """Kill ``rs`` at virtual time ``tc`` (scheduler side).

        The rank's generator stays parked; it is unwound via SimAbort
        during shutdown. Its final clock is the crash time, so a crashed rank
        contributes exactly ``tc`` to the makespan.
        """
        # The kill can be detected after the rank's clock already ran past
        # tc (an op charged through the crash time before the next check):
        # stamp the trace event at the overrun clock so per-rank traces
        # stay monotone, while the detail and final clock keep exact tc.
        stamp = max(rs.clock, tc)
        rs.clock = min(rs.clock, tc) if rs.state == _RUNNING else tc
        rs.state = _CRASHED
        rs.wake_potential = None
        self._crashed[rs.rank] = tc
        self._trace_event_at(rs.rank, stamp, "fault", kind="crash", t=tc)
        self._mark_crash_fired(rs.rank, tc)
        # A kill is an event, not a plan-derived time: wake predicates
        # that consult the confirmed-dead set (survivor agreements) must
        # be re-evaluated, so conservatively re-index every parked rank.
        self._stale.update(r.rank for r in self._ranks if r.state == _BLOCKED)

    def _check_self_crash(self, rank: int) -> None:
        """Called from rank programs at every communication yield point:
        if this rank's clock has reached its scheduled crash time, it dies
        here (unwinding the generator) instead of issuing the operation."""
        tc = self._scheduled_crash(rank)
        if tc is None:
            return
        rs = self._ranks[rank]
        if rs.clock >= tc:
            stamp = rs.clock
            rs.clock = tc
            rs.state = _CRASHED
            self._crashed[rank] = tc
            self._trace_event_at(rank, stamp, "fault", kind="crash", t=tc)
            self._mark_crash_fired(rank, tc)
            raise SimAbort()

    def _crash_next_pending(self) -> bool:
        """Fire the earliest still-pending crash, if any; True if one fired."""
        pend = [
            (tc, rs.rank, rs)
            for rs in self._ranks
            if rs.state in (_READY, _BLOCKED)
            and (tc := self._scheduled_crash(rs.rank)) is not None
        ]
        if not pend:
            return False
        tc, _, rs = min(pend)
        self._crash_rank(rs, tc)
        return True

    def failure_wake_potential(self, rank: int) -> float | None:
        """Earliest failure notification this rank has not yet woken for."""
        if self.faults is None or not self.faults.has_crashes():
            return None
        if self._recovery is not None:
            # Recovery heals crashes before survivors can observe them:
            # the failure detector stays silent, so rank programs run
            # exactly as in a fault-free schedule (spurious_detections
            # is zero by construction).
            return None
        return self.faults.next_notification(self._ranks[rank].failures_seen)

    def consume_failure_notifications(self, rank: int) -> frozenset[int]:
        """All peers whose failure is detectable at this rank's clock.

        Marks them consumed for wake bookkeeping so a blocked rank is not
        re-woken forever by the same notification.
        """
        if self.faults is None or self._recovery is not None:
            return frozenset()
        rs = self._ranks[rank]
        notified = self.faults.notified_failures(rs.clock)
        rs.failures_seen |= notified
        return notified

    def crashed_at(self) -> dict[int, float]:
        return dict(self._crashed)

    def crashed_at_live(self) -> dict[int, float]:
        """The engine's *live* rank -> crash-time dict (shared, read-only).

        Survivor-agreement collectives hold this so their completion
        predicate tracks kills as they fire; callers must not mutate it.
        """
        return self._crashed

    # ------------------------------------------------------------------
    # ULFM-style scope revocation
    # ------------------------------------------------------------------
    def revoke_scope(self, scope_id: Any, t: float, dead_rank: int) -> None:
        """Revoke a communication scope (``MPIX_Comm_revoke`` analogue).

        Called by a rank that abandons a collective on ``scope_id`` after
        detecting a crashed member. Every rank blocked in — or later
        entering — an operation on that scope observes the revocation and
        raises :class:`RankCrashed`, so survivors whose rendezvous sets do
        not contain the dead rank cannot be stranded waiting on a peer
        that already moved to recovery.
        """
        if scope_id in self._revoked_scopes:
            return
        self._revoked_scopes[scope_id] = (t, dead_rank)
        self._stale.update(r.rank for r in self._ranks if r.state == _BLOCKED)

    def scope_revocation(self, scope_id: Any) -> tuple[float, int] | None:
        """(revoke time, triggering dead rank) for a revoked scope, or None."""
        return self._revoked_scopes.get(scope_id)

    def next_put_index(self) -> int:
        """Global one-sided fate index (one per issued put, retries included)."""
        self._put_count += 1
        return self._put_count

    def shared_object(self, key: Any, factory) -> Any:
        """Get-or-create a deterministic simulator-internal shared object.

        The first caller's ``factory`` builds the object; later callers
        (possibly arriving from a larger failure epoch) adopt it. Safe
        because ranks run strictly sequentially.
        """
        obj = self._shared_objects.get(key)
        if obj is None:
            obj = factory()
            self._shared_objects[key] = obj
        return obj

    def _raise_deadlock(self) -> None:
        last_events: dict[int, Any] = {}
        if self.trace:
            for e in self.trace:
                last_events[e.rank] = e
        states: dict[int, str] = {}
        details: dict[int, dict] = {}
        for rs in self._ranks:
            if rs.state in (_DONE, _CRASHED):
                continue
            le = last_events.get(rs.rank)
            details[rs.rank] = {
                "state": rs.state,
                "clock": rs.clock,
                "in": rs.describe or "?",
                "queue_depth": len(rs.queue),
                "last_event": le,
            }
            last = f", last={le.op}@t={le.time:.6g}" if le is not None else ""
            states[rs.rank] = (
                f"{rs.state} @t={rs.clock:.6g} in {rs.describe or '?'} "
                f"(queue depth {len(rs.queue)}{last})"
            )
        self._abort = True
        raise DeadlockError(
            f"deadlock: {len(states)} rank(s) stuck, none wakeable",
            states,
            details,
            collectives=self._stalled_collectives(),
        )

    def _stalled_collectives(self) -> list[dict]:
        """Membership report for every incomplete in-flight collective.

        One entry per stalled op: its key, kind, the ranks that entered,
        the ranks some entrant is still waiting on, and — the diagnosis
        that matters under a fault plan — which of the missing ranks are
        already dead. Attached to every deadlock dump so a fault-induced
        hang names the collective and the corpse blocking it.
        """
        out: list[dict] = []
        for key, op in sorted(self._coll_ops.items(), key=lambda kv: repr(kv[0])):
            if getattr(op, "complete", False):
                continue  # complete full/agreement op awaiting pickup only
            missing = op.missing_ranks()
            if not missing:
                continue  # no entrant is waiting on anyone
            out.append(
                {
                    "key": key,
                    "kind": op.kind,
                    "entered": sorted(op.entries),
                    "missing": missing,
                    "crashed_missing": sorted(
                        r for r in missing if r in self._crashed
                    ),
                }
            )
        return out

    # ------------------------------------------------------------------
    # rank-side yield primitives (called from rank generators)
    # ------------------------------------------------------------------
    def keep_running(self, rank: int) -> bool:
        """True when ``rank`` may act now without giving up the token.

        Every communication call asks this first and enters
        :meth:`yield_ready_g` only on False; keeping the token removes
        ~70-90% of switches. Minimality is one O(1) peek at the valid heap
        top (every other wakeable rank is indexed).
        """
        if self.faults is not None:
            self._check_self_crash(rank)
        # Drain stale marks first: a collective this rank completed can
        # wake a peer at a time <= our current clock (rendezvous = max
        # entry times), so the heap top is only a valid lower bound once
        # every marked rank is re-indexed. The marks batch everything
        # accumulated since the last test.
        if self._stale:
            self._drain_stale()
        top = self._heap_min()
        return top is None or top >= (self._ranks[rank].clock, rank)

    def yield_ready_g(self, rank: int):
        """Give up the token; resume when this rank is next in clock order.

        Entered only after :meth:`keep_running` said False.
        """
        rs = self._ranks[rank]
        rs.state = _READY
        self._push_candidate(rs)
        yield _PARK
        if self._abort:
            raise SimAbort()
        rs.state = _RUNNING

    def block_on_g(
        self,
        rank: int,
        wake_potential: Callable[[], float | None],
        describe: str,
        wait_phase: str = "wait",
        safepoint: tuple | None = None,
        force_park: bool = False,
    ):
        """Park until ``wake_potential()`` yields a time and we are minimal.

        On return the rank's clock has been advanced to the wake time (the
        gap is accounted as idle time, attributed to ``wait_phase`` when
        profiling). A non-None ``safepoint`` marks this park as a
        checkpoint boundary: the coordinated cut may include a rank
        parked here, and the spec (e.g. ``("probe", src, tag, deadline)``)
        is recorded so the resume path can re-issue the identical wait.

        ``force_park`` skips the already-satisfiable fast path. The
        resume path uses it when re-issuing a recorded safepoint wait:
        the original rank was genuinely parked (a fast-path wait records
        no safepoint), and messages that landed in the queue between the
        original park and the cut must not turn the re-issued wait into
        an immediate return — the rank has to sit blocked until the
        replayed token order reaches its candidate time, exactly as the
        uninterrupted run's rank did.
        """
        if self.faults is not None:
            self._check_self_crash(rank)
        rs = self._ranks[rank]
        rs.describe = describe
        rs.wait_phase = wait_phase
        # Fast path: already satisfiable and we are minimal.
        if not force_park:
            t = wake_potential()
            if t is not None and t <= rs.clock:
                if not self.keep_running(rank):
                    yield from self.yield_ready_g(rank)
                return
        rs.state = _BLOCKED
        rs.wake_potential = wake_potential
        rs.safepoint = safepoint
        self._push_candidate(rs)
        yield _PARK
        if self._abort:
            raise SimAbort()
        rs.state = _RUNNING
        rs.safepoint = None
        rs.describe = ""

    # ------------------------------------------------------------------
    # cost charging (called from the rank holding the token)
    # ------------------------------------------------------------------
    def _over_budget(self) -> None:
        raise SimLimitExceeded(f"operation budget exceeded ({self.max_ops} ops)")

    def charge_comm(self, rank: int, seconds: float, phase: str = "comm") -> None:
        # Ticking here (not just in post_message) lets the op budget
        # catch collective-only livelock — e.g. a recovery loop spinning
        # on agreements without ever posting a point-to-point message.
        self._op_count += 1
        if self._op_count > self._op_limit:
            self._over_budget()
        rs = self._ranks[rank]
        if self.profiler is not None and seconds > 0.0:
            self.profiler.add(rank, phase, rs.clock, rs.clock + seconds)
        rs.clock += seconds
        self.counters.ranks[rank].comm_time += seconds
        if rs.clock > self._vtime_limit:
            self._check_vtime(rs)

    def _check_vtime(self, rs: _RankState) -> None:
        """Raise for the budget a clock past ``_vtime_limit`` broke."""
        if self.max_vtime is not None and rs.clock > self.max_vtime:
            raise SimLimitExceeded(
                f"virtual time budget exceeded ({self.max_vtime}s) on rank {rs.rank}"
            )
        if self.kill_at is not None and rs.clock > self.kill_at:
            raise SimKilled(self.kill_at)

    # ------------------------------------------------------------------
    # transport (senders call this while holding the token)
    # ------------------------------------------------------------------
    def post_message(
        self,
        src: int,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
        *,
        one_sided: bool = False,
        matrix: CommMatrix | None = None,
        deliver: bool = True,
    ) -> float:
        """Compute network timing for one message; optionally enqueue it.

        Returns the arrival time at the destination. Timing includes NIC
        injection serialization at the sender and drain serialization at
        the receiver when the machine model enables them. When a fault
        plan is active, the plan decides the message's fate: degraded NIC
        windows scale injection/latency, and delivered messages can be
        dropped, duplicated, delayed, or blackholed into a crashed rank
        — each outcome counted and traced at the sender. With no plan the
        NIC factor is 1.0 and delivery skips the fate machinery (the
        no-fault fast path), which the differential suite proves
        arithmetic-identical.
        """
        self._op_count += 1
        if self._op_count > self._op_limit:
            self._over_budget()
        m = self.machine
        srs = self._ranks[src]
        plan = self.faults
        factor = 1.0 if plan is None else plan.nic_factor(src, srs.clock)
        inject = m.injection_time(nbytes, one_sided, factor)
        start = srs.clock
        if m.nic_serialization:
            if srs.nic_out_free > start:
                start = srs.nic_out_free
            srs.nic_out_free = start + inject
        arrival = start + inject + (m.alpha * factor if factor != 1.0 else m.alpha)
        if dst != src and m.drain_serialization:
            drs = self._ranks[dst]
            if drs.nic_in_free > arrival:
                arrival = drs.nic_in_free
            drs.nic_in_free = arrival + inject
        if matrix is not None:
            matrix.record(src, dst, nbytes)
        if not deliver:
            return arrival
        # Non-overtaking (MPI point-to-point ordering guarantee). The clamp
        # applies to the fault-free arrival; injected delays are added
        # after it, so a delayed copy genuinely arrives late and can be
        # overtaken by subsequent traffic.
        pair = (src, dst)
        prev = self._pair_arrival.get(pair, 0.0)
        if prev > arrival:
            arrival = prev
        self._pair_arrival[pair] = arrival
        if plan is None:
            # No-fault fast path: exactly one copy, no fate draw, no crash
            # blackholing, no per-post counter.
            self._send_seq += 1
            drs = self._ranks[dst]
            drs.queue.push(
                Message(src, dst, tag, payload, nbytes, srs.clock, arrival,
                        self._send_seq)
            )
            # Unexpected-message-queue memory pressure at the receiver:
            # payload plus MPI-internal per-message metadata, released
            # on receive (see RankContext.recv). RankCounters.alloc,
            # inlined.
            rc = self.counters.ranks[dst]
            nb = int(nbytes + m.p2p_msg_overhead_bytes)
            held = rc.allocations
            held["unexpected-queue"] = held.get("unexpected-queue", 0) + nb
            rc.current_bytes += nb
            if rc.current_bytes > rc.peak_bytes:
                rc.peak_bytes = rc.current_bytes
            if drs.state == _BLOCKED:
                self._stale.add(dst)
            return arrival
        src_rc = self.counters.ranks[src]
        self._post_count += 1
        if plan.partitions and plan.partitioned(src, dst, srs.clock):
            # An active partition window swallows the send entirely
            # (evaluated at send time; the fate stream is untouched —
            # fates are pure functions of the post index).
            src_rc.msgs_partitioned += 1
            self.trace_event(src, "fault", kind="partition", dst=dst, tag=tag)
            return arrival
        fate = plan.message_fate(src, dst, self._post_count)
        if fate.copies == 0:
            src_rc.msgs_dropped += 1
            self.trace_event(src, "fault", kind="drop", dst=dst, tag=tag)
            return arrival
        if fate.copies > 1:
            src_rc.msgs_duplicated += 1
            self.trace_event(src, "fault", kind="dup", dst=dst, tag=tag)
        # Under recovery a crash is healed before anyone can observe
        # it (the dead slot is re-occupied by a spare at the same
        # rank id), so messages are never blackholed on a planned
        # crash time — the destination will be alive to receive them.
        dead_at = None if self._recovery is not None else plan.crash_time(dst)
        delivered = False
        for c in range(fate.copies):
            extra = fate.delays[c]
            arr = arrival + extra
            if extra > 0.0:
                src_rc.msgs_delayed += 1
                self.trace_event(
                    src, "fault", kind="delay", dst=dst, tag=tag, extra=extra
                )
            if dead_at is not None and arr >= dead_at:
                # Receiver is dead on arrival: the message vanishes.
                src_rc.crash_blackholed += 1
                self.trace_event(src, "fault", kind="blackhole", dst=dst, tag=tag)
                continue
            self._send_seq += 1
            self._ranks[dst].queue.push(Message(
                src, dst, tag, payload, nbytes, srs.clock, arr, self._send_seq,
                "dup" if c > 0 else ("delay" if extra > 0.0 else None)))
            delivered = True
            self.counters.ranks[dst].alloc(
                nbytes + m.p2p_msg_overhead_bytes, "unexpected-queue"
            )
        if delivered and self._ranks[dst].state == _BLOCKED:
            self._stale.add(dst)
        return arrival

    def trace_event(self, rank: int, op: str, **detail: Any) -> None:
        """Record a trace event if tracing is enabled (cheap no-op otherwise)."""
        self._trace_event_at(rank, self._ranks[rank].clock, op, **detail)

    def _trace_event_at(self, rank: int, t: float, op: str, /, **detail: Any) -> None:
        """Record a trace event with an explicit timestamp (used when the
        rank's clock was rolled back, e.g. to a crash time)."""
        if self.trace is not None:
            from repro.mpisim.tracing import TraceEvent

            self.trace.append(TraceEvent(t, rank, op, detail))

    # ------------------------------------------------------------------
    # collective bookkeeping (generic; semantics live in collectives.py)
    # ------------------------------------------------------------------
    def new_scope_id(self) -> int:
        sid = self._next_scope_id
        self._next_scope_id += 1
        return sid

    def next_coll_key(self, scope_id, rank: int):
        """Next (scope, seq) key for ``rank`` on ``scope_id``.

        Scope ids are ints for ordinary scopes; recovery collectives use
        hashable tuple scopes (e.g. ``("agree", epoch)``) that cannot
        collide with them.
        """
        k = (scope_id, rank)
        seq = self._coll_seq.get(k, 0)
        self._coll_seq[k] = seq + 1
        return (scope_id, seq)

    def coll_ops(self) -> dict[tuple[int, int], Any]:
        return self._coll_ops

    # RMA outstanding-put tracking --------------------------------------
    def note_put(self, origin: int, win_id: int, completion: float) -> None:
        rs = self._ranks[origin]
        prev = rs.rma_outstanding.get(win_id, 0.0)
        if completion > prev:
            rs.rma_outstanding[win_id] = completion

    def flush_window(self, origin: int, win_id: int) -> float:
        """Latest outstanding completion for (origin, window); resets it."""
        rs = self._ranks[origin]
        return rs.rma_outstanding.pop(win_id, 0.0)
