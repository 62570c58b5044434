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

This module is the core only: fault plans, checkpoints, restore,
rollback recovery and revocation live in :mod:`repro.mpisim.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.mpisim.context import RankContext
from repro.mpisim.counters import CommMatrix, RunCounters
from repro.mpisim.errors import (
    DeadlockError,
    RankFailure,
    SimAbort,
    SimKilled,
    SimLimitExceeded,
)
from repro.mpisim.machine import MachineModel
from repro.mpisim.message import Message, ReceiveQueue
from repro.mpisim.tracing import RunProfile, SpanRecorder, TraceEvent

if TYPE_CHECKING:
    from repro.mpisim.checkpoint import CheckpointConfig, EngineSnapshot
    from repro.mpisim.faults import FaultPlan
    from repro.mpisim.resilience import RecoveryConfig

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
        if faults is not None and faults.is_null():
            faults = None  # a null plan is behaviourally absent
        self.nprocs = nprocs
        self.machine = machine
        self.max_ops = max_ops
        self.kill_at = kill_at
        # The hot paths test one precomputed bound each (inf when off).
        self._op_limit = _INF if max_ops is None else max_ops
        self._vtime_limit = _INF if kill_at is None else kill_at
        #: the run's fault plan; None when absent or null
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
        # Per-(src, dst) last delivery time, keyed by ``src * nprocs + dst``:
        # MPI guarantees non-overtaking point-to-point ordering, so a small
        # message sent after a large one must not arrive earlier.
        self._pair_arrival: dict[int, float] = {}
        self._op_count = 0
        self._crashed: dict[int, float] = {}  # rank -> time it was killed
        self._switches = 0
        self._program: tuple | None = None  # (target, args, per_rank_args)

        # collective bookkeeping: scope_id -> per-rank next sequence number
        self._coll_seq: dict[tuple[int, int], int] = {}
        self._coll_ops: dict[tuple[int, int], Any] = {}
        self._next_scope_id = 1  # scope 0 = COMM_WORLD
        # Deterministic simulator-internal shared state (e.g. a window
        # store adopted by ranks arriving from different failure epochs):
        # first caller's factory wins, later callers get the same object.
        self._shared_objects: dict[Any, Any] = {}

        #: the fault plan, checkpointing, restore and recovery
        #: (:class:`~repro.mpisim.resilience.Resilience`); None in a run
        #: with none of them, which then never leaves the core
        self.resilience = None
        if not (faults is None and checkpoint is None and restore is None
                and recovery is None):
            from repro.mpisim.resilience import Resilience

            self.resilience = Resilience(
                self, faults, checkpoint, restore, recovery, profile)

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
        if self._program is not None:
            raise RuntimeError("an Engine instance can only run once")
        self._program = (target, tuple(args), per_rank_args)
        res = self.resilience
        if res is None or not res.resume():
            for rs in self._ranks:
                self._spawn(rs)

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
            recovery=None if res is None else res.report(),
        )

    def _spawn(self, rs: _RankState):
        """Create ``rs``'s rank body, ready but not yet stepped; returns
        its context."""
        target, args, per_rank_args = self._program
        extra = tuple(per_rank_args[rs.rank]) if per_rank_args else ()
        ctx = RankContext(self, rs.rank)
        rs.gen = self._gen_main(rs, ctx, target, args + extra)
        rs.state = _READY
        return ctx

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
        the end of :meth:`run` and the resilience layer's recovery
        controller, which relaunches the slots from a restored cut
        afterwards."""
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
        res = self.resilience
        while True:
            self._drain_stale()
            best = self._heap_min()
            if res is not None and res.decide(best):
                continue
            ranks = self._ranks
            if best is None:
                if all(rs.state in (_DONE, _CRASHED) for rs in ranks):
                    return
                if any(rs.state == _FAILED for rs in ranks):
                    return  # abort the run; run() raises
                self._raise_deadlock()
            # The chosen key stays in the heap: from here on its rank is
            # running, crashed, finished or re-indexed, so _heap_min
            # discards the key like any other stale entry.
            t, rank = best
            rs = ranks[rank]
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
        res = self.resilience
        if res is not None:
            res.gate(rank)
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
        res = self.resilience
        if res is not None:
            res.gate(rank)
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
            self._check_vtime()

    def _check_vtime(self) -> None:
        """A clock passed ``kill_at``: the scheduled whole-job kill."""
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
        the receiver when the machine model enables them. Under a fault
        plan, degraded NIC windows scale injection/latency and the
        resilience layer decides the delivered message's fate
        (:meth:`~repro.mpisim.resilience.Resilience.post`). With no plan
        the NIC factor is 1.0 and the message is enqueued here, exactly
        once.
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
        pair = src * self.nprocs + dst
        prev = self._pair_arrival.get(pair, 0.0)
        if prev > arrival:
            arrival = prev
        self._pair_arrival[pair] = arrival
        if plan is not None:
            return self.resilience.post(src, dst, tag, payload, nbytes, arrival)
        self._enqueue(src, dst, tag, payload, nbytes, srs.clock, arrival)
        return arrival

    def _enqueue(self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
                 send_time: float, arrival: float, fault: str | None = None):
        """Deliver one message copy into ``dst``'s receive queue."""
        self._send_seq += 1
        drs = self._ranks[dst]
        drs.queue.push(Message(src, dst, tag, payload, nbytes, send_time,
                               arrival, self._send_seq, fault))
        # Unexpected-message-queue memory pressure at the receiver:
        # payload plus MPI-internal per-message metadata, released
        # on receive (see RankContext.recv). RankCounters.alloc,
        # inlined.
        rc = self.counters.ranks[dst]
        nb = int(nbytes + self.machine.p2p_msg_overhead_bytes)
        held = rc.allocations
        held["unexpected-queue"] = held.get("unexpected-queue", 0) + nb
        rc.current_bytes += nb
        if rc.current_bytes > rc.peak_bytes:
            rc.peak_bytes = rc.current_bytes
        if drs.state == _BLOCKED:
            self._stale.add(dst)

    def trace_event(self, rank: int, op: str, **detail: Any) -> None:
        """Record a trace event if tracing is enabled (cheap no-op otherwise)."""
        if self.trace is not None:
            self.trace.append(TraceEvent(self._ranks[rank].clock, rank, op, detail))

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
