"""Per-rank MPI-like API handed to rank programs.

This is the simulated analogue of an ``MPI_Comm`` plus the rank-local
runtime: point-to-point (``isend_g`` / ``iprobe_g`` / ``recv_g``), classic
collectives, distributed graph topologies with neighborhood collectives,
and RMA window allocation. Method names follow mpi4py's lower-case
conventions where a direct analogue exists.

Every operation that can block is a generator, spelled with a ``_g``
suffix (``recv_g``, ``barrier_g``, ...): a rank program delegates into it
(``msg = yield from ctx.recv_g(...)``) and the park points inside suspend
the whole ``yield from`` chain back to the scheduler. Operations that
never block (``compute``, ``alloc``, ``irecv``) are plain methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.mpisim.aggregate import (
    MessageAggregator,
    PersistentSendRequest,
    RecvRequest,
    waitall_g as _waitall_g,
)
from repro.mpisim.collectives import get_or_create_agreement, get_or_create_full
from repro.mpisim.errors import CommMismatchError, RankCrashed
from repro.mpisim.message import ANY_SOURCE, ANY_TAG
from repro.mpisim.topology import DistGraphTopology, payload_nbytes
from repro.mpisim.window import Window, _WindowStore

if TYPE_CHECKING:
    from repro.mpisim.reliable import ReliableChannel


class RankContext:
    """The communication and timing API for one simulated rank."""

    #: wildcard constants re-exported for rank programs
    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG

    def __init__(self, engine, rank: int):
        self._engine = engine
        self.rank = rank
        self.nprocs = engine.nprocs
        self.machine = engine.machine
        # This rank's engine slot and counters, which live as long as this
        # context: a rollback relaunches every rank with a new context.
        self._rs = engine._ranks[rank]
        self._rc = engine.counters.ranks[rank]
        #: the run's resilience layer (repro.mpisim.resilience), or None
        self._res = res = engine.resilience
        #: can this run's ranks observe a crash? (``Resilience
        #: .crashes_visible``: false without a crash plan and under
        #: rollback recovery.) Backends and topologies take their
        #: survivor paths only when it is true.
        self.crashes_visible = res is not None and res.crashes_visible
        #: the fault plan when ranks can observe crashes, else None: the
        #: one gate of every crash-aware wait, refusal and notification below
        self._detector = res.faults if self.crashes_visible else None
        # set by Engine.run on a restore: this rank's snapshot record
        self._resume: dict | None = None
        # set while resuming from a tick park: the next checkpoint_tick
        # was already consumed by the cut's release in the original run
        self._skip_tick = False
        # set while re-issuing a recorded probe wait: the next probe
        # must park even if the restored queue already satisfies it
        self._reissue_force = False

    # ------------------------------------------------------------------
    # local time / work / memory
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time on this rank (seconds)."""
        return self._rs.clock

    def compute(self, units: float = 0.0, *, seconds: float | None = None) -> None:
        """Advance local time by a compute burst.

        ``units`` are abstract work units priced by
        ``machine.work_unit``; pass ``seconds`` to charge wall time
        directly.
        """
        dt = float(units) * self.machine.work_unit if seconds is None else seconds
        if dt > 0.0:
            eng, rs = self._engine, self._rs
            if eng.profiler is not None:
                eng.profiler.add(self.rank, "compute", rs.clock, rs.clock + dt)
            rs.clock += dt
            self._rc.compute_time += dt
            if rs.clock > eng._vtime_limit:
                eng._check_vtime()
            if self._res is not None:
                # A compute burst can carry the clock past this rank's
                # scheduled crash; don't let it outrun death.
                self._res.gate(self.rank)

    def alloc(self, nbytes: int, label: str = "misc") -> None:
        """Register a memory allocation for the memory-usage model."""
        self._rc.alloc(nbytes, label)

    def free(self, nbytes: int, label: str = "misc") -> None:
        self._rc.free(nbytes, label)

    def counters(self):
        """This rank's :class:`~repro.mpisim.counters.RankCounters`."""
        return self._rc

    # ------------------------------------------------------------------
    # span-profiler annotations (no-ops when profiling is disabled; they
    # never touch the virtual clock, so annotating is always safe)
    # ------------------------------------------------------------------
    def prof_stage(self, stage: str) -> None:
        """Label subsequent spans with an application stage (e.g. the
        paper's Push / Evoke / Process loop sections)."""
        prof = self._engine.profiler
        if prof is not None:
            prof.set_stage(self.rank, stage)

    def prof_iteration(self, iteration: int) -> None:
        """Label subsequent spans with the outer-loop iteration number."""
        prof = self._engine.profiler
        if prof is not None:
            prof.set_iteration(self.rank, iteration)

    # ------------------------------------------------------------------
    # fault model / failure notification (ULFM-flavoured)
    # ------------------------------------------------------------------
    @property
    def fault_plan(self):
        """The run's :class:`~repro.mpisim.faults.FaultPlan`, or None."""
        return self._engine.faults

    def failed_ranks(self) -> frozenset[int]:
        """Peers whose crash has been detected by this rank's local time.

        The simulated analogue of ULFM's ``MPIX_Comm_failure_ack`` +
        ``get_acked``: deterministic (crash time + detection latency) and
        monotone in local time. Also consumes pending failure wake-ups,
        so a blocked rank is woken exactly once per new failure.
        """
        plan = self._detector
        if plan is None:
            return frozenset()
        notified = plan.notified_failures(self._rs.clock)
        self._rs.failures_seen |= notified
        return notified

    def _failure_wake_potential(self) -> float | None:
        """Earliest failure notification this rank has not yet woken for."""
        plan = self._detector
        return None if plan is None else plan.next_notification(self._rs.failures_seen)

    def is_failed(self, rank: int) -> bool:
        """Has ``rank``'s failure been detected by now? (No side effects.)"""
        plan = self._detector
        if plan is None:
            return False
        tc = plan.crash_time(rank)
        return tc is not None and self.now >= tc + plan.detect_latency

    # ------------------------------------------------------------------
    # coordinated checkpoint/restart
    # ------------------------------------------------------------------
    def checkpoint_tick_g(self):
        """Mark a checkpoint boundary (collective-style backend loop top).

        A no-op unless checkpointing is on and a cut is due, in which
        case the rank parks (charging nothing) until every live rank has
        reached a boundary and the coordinated snapshot is taken.
        Probe-loop backends still mark their loop tops with this so a cut
        can be assembled while traffic is in flight; their ``ctx.probe``
        parks are additionally safepoints.
        """
        if self._skip_tick:
            # Restored from a tick park: the original run consumed this
            # boundary when the assembly released the rank, so the first
            # post-resume tick must not re-park (the rank's clock may
            # already sit past the *next* due point under clock skew).
            self._skip_tick = False
            return
        if self._res is not None:
            yield from self._res.checkpoint_tick_g(self.rank)

    def register_checkpoint_provider(self, fn) -> None:
        """Register this rank's application-state capture hook.

        ``fn()`` is called at every coordinated cut and must return a
        picklable blob with no engine/context references; after a
        restore the same blob comes back via :meth:`resume_app_state`.
        """
        if self._res is not None:
            self._res.register_checkpoint_provider(self.rank, fn)

    @property
    def resuming(self) -> bool:
        """True when this rank is starting from a restored checkpoint."""
        return self._resume is not None

    def resume_app_state(self) -> Any:
        """The application blob this rank's provider captured at the cut."""
        return self._resume["app"] if self._resume is not None else None

    def reissue_parked_wait_g(self):
        """Re-enter the wait this rank was parked in at the checkpoint.

        Bit-identity argument: safepoint parks charge nothing before
        blocking (``probe`` builds its wake closure and parks; all costs
        are charged *after* the wake), so re-issuing the recorded wait
        from restored state reproduces the original wake decision
        exactly. Tick parks are not re-issued: the assembly released the
        rank *through* its tick, so the first post-resume
        ``checkpoint_tick`` is skipped — otherwise a rank whose clock
        already passed the next due point would park one iteration
        earlier than the uninterrupted run did. Consumes the resume
        record.
        """
        resume = self._resume
        self._resume = None
        if resume is None:
            return
        wait = resume.get("wait")
        if wait is None:
            return
        if wait[0] == "tick":
            self._skip_tick = True
            return
        if wait[0] == "probe":
            # Force the park: the recorded wait proves the rank was
            # genuinely blocked at the cut, but messages captured in the
            # restored queue may already satisfy the wait — the rank
            # must still sit parked until the replayed token order
            # reaches its candidate time, as the original run's did.
            _, source, tag, deadline = wait
            self._reissue_force = True
            yield from self.probe_g(source, tag, deadline=deadline)
            return
        raise ValueError(f"unknown checkpoint wait spec {wait!r}")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend_g(
        self, dest: int, payload: Any, *, tag: int = 0, nbytes: int | None = None,
        _persistent: bool = False,
    ):
        """Nonblocking send; returns the (virtual) arrival time.

        Models eager-protocol completion: the send buffer is logically
        copied, so the operation completes locally once the origin overhead
        has been charged (rendezvous sends absorb the handshake cost).

        A persistent request's ``start_g`` sends through here with
        ``_persistent=True``: the charging sequence (yield → origin
        overhead → wire posting → counters → trace) is the
        bit-reproducibility contract, and the two differ only in the
        origin cost charged and the trace verb.
        """
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        eng = self._engine
        rank = self.rank
        if self._detector is not None and self.is_failed(dest):
            # ULFM semantics: the library refuses communication with a
            # peer it already knows to be dead (MPI_ERR_PROC_FAILED).
            raise RankCrashed(dest)
        if not eng.keep_running(rank):
            yield from eng.yield_ready_g(rank)
        m = self.machine
        cost = m.persistent_start_cost if _persistent else m.send_origin_cost
        eng.charge_comm(rank, cost(nbytes), phase="send")
        arrival = eng.post_message(
            rank, dest, tag, payload, nbytes, matrix=eng.counters.p2p
        )
        # RankCounters.note_inflight and .alloc, inlined
        rc = self._rc
        rc.sends += 1
        rc.bytes_sent += nbytes
        rc.pending_inflight += 1
        if rc.pending_inflight > rc.peak_inflight:
            rc.peak_inflight = rc.pending_inflight
        nb = m.send_request_bytes
        held = rc.allocations
        held["send-requests"] = held.get("send-requests", 0) + nb
        rc.current_bytes += nb
        if rc.current_bytes > rc.peak_bytes:
            rc.peak_bytes = rc.current_bytes
        if _persistent:
            rc.persistent_starts += 1
        if eng.trace is not None:
            eng.trace_event(rank, "start" if _persistent else "send",
                            dest=dest, tag=tag, nbytes=nbytes)
        return arrival

    def send_init_g(self, dest: int, *, tag: int = 0):
        """Build a persistent send request (``MPI_Send_init``).

        Pays the envelope-construction overhead (``machine.o_send_init``)
        once, here; each subsequent :meth:`PersistentSendRequest.start`
        costs only ``machine.o_send_start`` instead of the full
        ``o_send`` — the standard amortization for fixed communication
        partners (which is exactly what a matching rank's neighbor set is).
        """
        eng = self._engine
        if not eng.keep_running(self.rank):
            yield from eng.yield_ready_g(self.rank)
        eng.charge_comm(self.rank, self.machine.o_send_init, phase="send")
        eng.trace_event(self.rank, "send-init", dest=dest, tag=tag)
        return PersistentSendRequest(self, dest, tag)

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> RecvRequest:
        """Post a nonblocking receive (``MPI_Irecv``); returns a request.

        Posting is free local bookkeeping — the receive's costs are
        charged when the request completes (``test``/``wait``), exactly
        as :meth:`recv_g` would charge them.
        """
        return RecvRequest(self, source, tag)

    def waitall_g(self, requests: Sequence[PersistentSendRequest | RecvRequest]):
        """Complete every request in order (``MPI_Waitall``).

        Returns each request's completion value: the arrival time for
        send requests, the delivered :class:`Message` for receives.
        """
        return (yield from _waitall_g(requests))

    def aggregator(
        self,
        *,
        flush_bytes: int | None = None,
        flush_count: int | None = None,
        channel: ReliableChannel | None = None,
    ) -> MessageAggregator:
        """Create a :class:`~repro.mpisim.aggregate.MessageAggregator`
        that coalesces this rank's small same-destination messages into
        batched wire messages. With a ``channel`` (a
        :class:`~repro.mpisim.reliable.ReliableChannel` of this rank)
        every batch is one reliable DATA message — acked, retransmitted
        on timeout and deduplicated — as drop/dup/delay fault plans
        require. See the class docstring for the flush policy and
        charging model."""
        return MessageAggregator(
            self, flush_bytes=flush_bytes, flush_count=flush_count,
            channel=channel,
        )

    def iprobe_g(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *, receive: bool = False
    ):
        """Nonblocking probe: ``(src, tag, nbytes)`` if a matching message
        has physically arrived, else ``None``.

        ``receive=True`` goes on to receive that message, exactly as
        ``recv_g(src, tag)`` would, and returns it instead of its header
        (``MPI_Improbe`` + ``MPI_Mrecv``). The receive reuses the probe's
        queue match unless the rank gave up the token in between.
        """
        eng = self._engine
        rank = self.rank
        if not eng.keep_running(rank):
            yield from eng.yield_ready_g(rank)
        eng.charge_comm(rank, self.machine.o_probe, phase="probe")
        self._rc.probes += 1
        rs = self._rs
        q = rs.queue
        idx = q.match_index(source, tag, rs.clock)
        if idx is None:
            return None
        m = q.peek(idx)
        if not receive:
            return (m.src, m.tag, m.nbytes)
        if not eng.keep_running(rank):
            yield from eng.yield_ready_g(rank)
            idx = q.match_index(m.src, m.tag, rs.clock)
        return self._receive(idx)

    def recv_g(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive of the earliest matching message.

        Under a fault plan with rank crashes, a *directed* receive raises
        :class:`~repro.mpisim.errors.RankCrashed` once the source's
        failure notification arrives with no matching message available
        (ULFM: a receive from a failed process must not hang forever).
        """
        eng = self._engine
        rank = self.rank
        rs = self._rs
        q = rs.queue
        # An already-arrived match is taken as block_on_g's satisfied
        # fast path would take it, without building its wait closure.
        idx = q.match_index(source, tag, rs.clock)
        if idx is not None:
            if not eng.keep_running(rank):
                yield from eng.yield_ready_g(rank)
                idx = q.match_index(source, tag, rs.clock)
            return self._receive(idx)

        def potential() -> float | None:
            m = q.earliest_match(source, tag)
            t = None if m is None else m.arrival
            tf = self._failure_wake_potential()
            if tf is None:
                return t
            return tf if t is None else min(t, tf)

        while True:
            yield from eng.block_on_g(
                rank, potential, f"recv(src={source},tag={tag})",
                wait_phase="recv-wait")
            idx = q.match_index(source, tag, rs.clock)
            if idx is not None:
                return self._receive(idx)
            if self._detector is None:
                raise AssertionError("recv resumed without a matching message")
            # Woken by a failure notification, not a message.
            failed = self.failed_ranks()
            if source != ANY_SOURCE and source in failed:
                raise RankCrashed(source)
            # Unrelated failure (or wildcard receive): keep waiting.

    def _receive(self, idx: int):
        """Receive the queued message at logical index ``idx``: the
        receive's cost, counters and trace event."""
        eng = self._engine
        rank = self.rank
        msg = self._rs.queue.pop(idx)
        if eng.profiler is not None:
            # The wait (if any) ended because this message arrived: the
            # critical path continues at the sender's send time.
            eng.profiler.attach_dep(rank, msg.src, msg.send_time, "message")
        m = self.machine
        eng.charge_comm(rank, m.o_recv, phase="recv")
        rc = self._rc
        rc.recvs += 1
        rc.bytes_received += msg.nbytes
        # RankCounters.free twice, inlined; an over-release still goes
        # through it to be counted.
        nb = int(msg.nbytes + m.p2p_msg_overhead_bytes)
        held = rc.allocations
        have = held.get("unexpected-queue", 0)
        if nb > have:
            rc.free(nb, "unexpected-queue")
        else:
            held["unexpected-queue"] = have - nb
            rc.current_bytes -= nb
        src_rc = eng.counters.ranks[msg.src]
        src_rc.pending_inflight -= 1  # a decrement never moves the peak
        nb = m.send_request_bytes
        held = src_rc.allocations
        have = held.get("send-requests", 0)
        if nb > have:
            src_rc.free(nb, "send-requests")
        else:
            held["send-requests"] = have - nb
            src_rc.current_bytes -= nb
        if eng.trace is not None:
            eng.trace_event(rank, "recv", src=msg.src, tag=msg.tag, nbytes=msg.nbytes)
        return msg

    def probe_g(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        deadline: float | None = None,
    ):
        """Block until a matching message is available (MPI_Probe).

        Rank programs use this instead of spinning on :meth:`iprobe_g` when
        they have no local work left; it fast-forwards the local clock to
        the next arrival instead of simulating a busy-wait.

        ``deadline`` turns it into a timed probe: the wait also ends at
        that virtual time with no message (the hook reliable-delivery
        retry loops use for ack timeouts). Under a fault plan with rank
        crashes, the wait additionally ends at the first not-yet-seen
        failure notification, so a rank waiting on a dead peer wakes up
        and can inspect :meth:`failed_ranks`.
        """
        eng = self._engine
        q = self._rs.queue

        def potential() -> float | None:
            m = q.earliest_match(source, tag)
            cands = [] if m is None else [m.arrival]
            if deadline is not None:
                cands.append(deadline)
            tf = self._failure_wake_potential()
            if tf is not None:
                cands.append(tf)
            return min(cands) if cands else None

        force = self._reissue_force
        self._reissue_force = False
        yield from eng.block_on_g(
            self.rank, potential, f"probe(src={source},tag={tag})",
            wait_phase="recv-wait",
            safepoint=("probe", source, tag, deadline),
            force_park=force)
        if eng.profiler is not None:
            m = q.earliest_match(source, tag)
            if m is not None and m.arrival <= self._rs.clock:
                eng.profiler.attach_dep(self.rank, m.src, m.send_time, "message")
        if self._detector is not None:
            # Consume any notification we were woken for: wake-once
            # semantics (failed_ranks recomputes from the plan, so the
            # application still observes every failure).
            self.failed_ranks()

    # ------------------------------------------------------------------
    # classic collectives on COMM_WORLD (scope 0)
    # ------------------------------------------------------------------
    def barrier_g(self):
        yield from self._full_collective_g("barrier", None, 0, {})

    def allreduce_g(self, value: Any, op: str = "sum"):
        nbytes = payload_nbytes(value)
        return (yield from self._full_collective_g(
            "allreduce", value, nbytes, {"op": op}))

    def bcast_g(self, value: Any, root: int = 0):
        nbytes = payload_nbytes(value)
        return (yield from self._full_collective_g(
            "bcast", value, nbytes, {"root": root}))

    def gather_g(self, value: Any, root: int = 0):
        nbytes = payload_nbytes(value)
        return (yield from self._full_collective_g(
            "gather", value, nbytes, {"root": root}))

    def allgather_g(self, value: Any):
        nbytes = payload_nbytes(value)
        return (yield from self._full_collective_g("allgather", value, nbytes, {}))

    def alltoall_g(self, items: Sequence[Any], nbytes_per_pair: int | None = None):
        if len(items) != self.nprocs:
            raise ValueError(f"alltoall needs {self.nprocs} items, got {len(items)}")
        if nbytes_per_pair is None:
            nbytes_per_pair = max((payload_nbytes(x) for x in items), default=8)
        return (yield from self._full_collective_g(
            "alltoall", list(items), int(nbytes_per_pair),
            {"nbytes_per_pair": nbytes_per_pair}))

    def _full_collective_g(self, kind: str, data: Any, nbytes: int, params: dict):
        eng = self._engine
        rank = self.rank
        key = eng.next_coll_key(0, rank)
        op = get_or_create_full(eng.coll_ops(), key, kind, self.nprocs, params)
        op.enter(rank, self._rs.clock, data, kind, params)
        if op.complete:
            # Last participant in: every parked peer's wake potential just
            # flipped from None to the rendezvous time — re-index them for
            # the heap scheduler (no-op under the reference scheduler).
            eng.notify_ranks(op.entries.keys())
        potential = self._op_or_failure(op)
        while True:
            yield from eng.block_on_g(rank, potential, f"{kind}#{key[1]}",
                                      wait_phase="collective-wait")
            if op.wake_potential(rank) is not None:
                break
            # Woken by a failure notification. If a crashed rank is among
            # the missing participants the collective can never complete,
            # so the survivor raises RankCrashed (ULFM
            # MPI_ERR_PROC_FAILED) instead of hanging; a failure that
            # does not block this collective re-enters the wait.
            failed = self.failed_ranks()
            dead_missing = [q for q in op.missing_ranks() if q in failed]
            if dead_missing:
                raise RankCrashed(dead_missing[0])
        if eng.profiler is not None:
            sq, st = op.straggler()
            if sq != rank:
                eng.profiler.attach_dep(rank, sq, st, "collective")

        m = self.machine
        p = self.nprocs
        if kind == "barrier":
            cost = m.barrier_cost(p)
        elif kind == "allreduce":
            cost = m.allreduce_cost(p, nbytes)
        elif kind == "bcast":
            cost = m.bcast_cost(p, nbytes)
        elif kind == "gather":
            cost = m.gather_cost(p, nbytes)
        elif kind == "allgather":
            # gather to a virtual root + broadcast of the concatenation
            cost = m.gather_cost(p, nbytes) + m.bcast_cost(p, nbytes * p)
        elif kind == "alltoall":
            cost = m.alltoall_cost(p, params.get("nbytes_per_pair", nbytes))
        else:  # pragma: no cover - guarded by collectives module
            raise ValueError(kind)
        eng.charge_comm(rank, cost, phase="collective")
        rc = self._rc
        rc.collectives += 1
        rc.bytes_collective += nbytes
        eng.trace_event(rank, kind, nbytes=nbytes)
        result = op.result_for(rank)
        if op.mark_done(rank):
            eng.coll_ops().pop(key, None)
        return result

    def _op_or_failure(self, op):
        """Wake potential of a wait on collective ``op``: its rendezvous
        time, or — when crashes are visible — the next unseen failure
        notification."""
        rank = self.rank

        def potential() -> float | None:
            t = op.wake_potential(rank)
            return t if t is not None else self._failure_wake_potential()

        return potential

    # ------------------------------------------------------------------
    # survivor agreement / recovery (ULFM shrink-and-rebuild analogue)
    # ------------------------------------------------------------------
    def agree_g(self, value: Any, op: str = "sum", *, epoch: Sequence[int] = (),
                kind: str = "agree", label: str = ""):
        """Deterministic survivor agreement (``MPIX_Comm_agree`` analogue).

        A full collective that completes over the *non-failed* ranks: a
        crashed participant contributes nothing, and the rendezvous waits
        out its failure notification instead of hanging. ``epoch`` is the
        caller's sorted set of known-dead ranks; it keys the collective
        scope, so survivors recovering from different program points
        realign their per-scope sequence numbers. If a failure **not** in
        ``epoch`` is detected mid-wait, the call raises
        :class:`RankCrashed` so the caller restarts recovery at the
        larger epoch — convergent, because epochs only grow.

        ``label`` separates independent agreement streams (topology
        rebuild vs window sizing vs termination): survivors may skip a
        stream entirely on re-entry (e.g. an already-allocated window),
        and per-scope sequence numbers must not couple across streams.
        """
        eng = self._engine
        rank = self.rank
        plan = eng.faults
        detect = plan.detect_latency if plan is not None else 0.0
        epoch = tuple(sorted(int(r) for r in epoch))
        key = eng.next_coll_key(("agree", label, epoch), rank)
        aop = get_or_create_agreement(
            eng.coll_ops(), key, kind, self.nprocs, {"op": op},
            eng._crashed, detect,
        )
        aop.enter(rank, self._rs.clock, value, kind, {"op": op})
        if aop.complete:
            eng.notify_ranks(aop.entries.keys())
        potential = self._op_or_failure(aop)
        while True:
            yield from eng.block_on_g(rank, potential, f"{kind}#{key[1]}@{epoch}",
                                      wait_phase="recovery-wait")
            stale = sorted(q for q in self.failed_ranks() if q not in epoch)
            if stale:
                # Uniform failure reporting (the ULFM agree guarantee):
                # raise even if the rendezvous completed. Every entrant
                # observes the same plan-derived notification set at the
                # same completion time, so either all return or all raise
                # — a late entrant can never adopt a raiser's ghost entry
                # and sail on with a stale epoch.
                raise RankCrashed(stale[0])
            if aop.wake_potential(rank) is not None:
                break
            # Notification for an already-known failure: keep waiting.

        if eng.profiler is not None:
            sq, st = aop.straggler()
            if sq != rank:
                eng.profiler.attach_dep(rank, sq, st, "agreement")
        nbytes = payload_nbytes(value)
        eng.charge_comm(rank, self.machine.allreduce_cost(self.nprocs, nbytes),
                        phase="recovery")
        rc = self._rc
        rc.collectives += 1
        rc.bytes_collective += nbytes
        eng.trace_event(rank, kind, nbytes=nbytes)
        result = aop.result_for(rank)
        if aop.mark_done(rank):
            eng.coll_ops().pop(key, None)
        return result

    def agree_gather_g(self, value: Any, *, epoch: Sequence[int] = (),
                       label: str = ""):
        """Survivor agreement that gathers ``{rank: value}`` over entrants."""
        return (yield from self.agree_g(value, epoch=epoch,
                                        kind="agree_gather", label=label))

    def shrink_rebuild_topology_g(
        self, neighbors: Sequence[int], *, epoch: Sequence[int] = ()
    ):
        """Rebuild a distributed graph topology over the survivors.

        Survivor-agreement analogue of :meth:`dist_graph_create_adjacent_g`:
        the neighbor-list exchange runs as an agreement (crashed ranks
        contribute nothing and get empty neighborhoods), and the topology
        scope is keyed by the failure epoch so rebuilt neighborhood
        collectives cannot collide with abandoned pre-crash ones. Raises
        :class:`RankCrashed` if a rank the agreement skipped is not yet in
        ``epoch`` — the caller must renounce it and retry.
        """
        epoch = tuple(sorted(int(r) for r in epoch))
        my = sorted(set(int(q) for q in neighbors) - set(epoch))
        gathered = yield from self.agree_gather_g(my, epoch=epoch, label="topo")
        silent = [r for r in range(self.nprocs) if r not in gathered and r not in epoch]
        if silent:
            # Crashed after the caller built its epoch; every entrant sees
            # the same gathered table, so every survivor raises here.
            raise RankCrashed(silent[0])
        adjacency = [sorted(gathered.get(r, [])) for r in range(self.nprocs)]
        DistGraphTopology.validate_symmetric(adjacency)
        return DistGraphTopology(self, ("topo", epoch), adjacency, epoch=epoch)

    def revoke_topology(self, topo: DistGraphTopology, dead_rank: int) -> None:
        """Revoke a topology's scope (``MPIX_Comm_revoke`` analogue).

        Any rank blocked in — or later entering — a neighborhood
        collective on this scope raises :class:`RankCrashed` instead of
        waiting for peers that already abandoned it during recovery.
        """
        self._res.revoke_scope(topo.scope_id, self.now, int(dead_rank))

    def win_allocate_survivor_g(
        self, count: int, dtype=np.int64, fill: int = 0,
        *, epoch: Sequence[int] = (), tag: str = "win",
        charge_memory: bool = True,
    ):
        """Survivor-safe RMA window allocation (agreement rendezvous).

        Unlike :meth:`win_allocate_g` this tolerates participants crashing
        mid-call. The backing store is created once per ``tag`` per engine
        and shared, with every rank's buffer sized from the first
        creator's gathered counts — so a straggler re-entering from a
        larger failure epoch adopts the same store instead of allocating
        a divergent one.
        """
        dtype = np.dtype(dtype)
        epoch = tuple(sorted(int(r) for r in epoch))
        sizes = yield from self.agree_gather_g(int(count), epoch=epoch,
                                               label=f"win:{tag}")
        eng = self._engine

        def build() -> _WindowStore:
            return _WindowStore(
                win_id=eng.new_scope_id(),
                dtype=dtype,
                buffers=[
                    np.full(int(sizes.get(r, 0)), fill, dtype=dtype)
                    for r in range(self.nprocs)
                ],
            )

        store = eng.shared_object(("win", tag), build)
        if charge_memory:
            self._rc.alloc(
                int(store.buffers[self.rank].size) * dtype.itemsize, "rma-window"
            )
        return Window(self, store)

    # ------------------------------------------------------------------
    # topology / RMA construction (both collective)
    # ------------------------------------------------------------------
    def dist_graph_create_adjacent_g(self, neighbors: Sequence[int]):
        """Create a distributed graph topology (symmetric neighborhoods).

        Collective: every rank passes the ranks it shares ghost vertices
        with. Mirrors ``MPI_Dist_graph_create_adjacent`` with
        ``sources == destinations``.
        """
        my = sorted(set(int(q) for q in neighbors))
        gathered = yield from self.allgather_g(my)
        # Every rank holds the same gathered object, so rank 0's O(E)
        # symmetry check speaks for all P. Its verdict rides the bcast
        # that was already needed: the scope id all ranks must agree on
        # for subsequent neighborhood ops, or the mismatch to re-raise.
        verdict = None
        if self.rank == 0:
            try:
                DistGraphTopology.validate_symmetric(gathered)
                verdict = self._engine.new_scope_id()
            except CommMismatchError as exc:
                verdict = exc
        verdict = yield from self.bcast_g(verdict, root=0)
        if isinstance(verdict, CommMismatchError):
            raise CommMismatchError(*verdict.args)
        return DistGraphTopology(self, verdict, gathered)

    def win_allocate_g(self, count: int, dtype=np.int64, fill: int = 0):
        """Collectively allocate an RMA window of ``count`` local elements."""
        dtype = np.dtype(dtype)
        sizes = yield from self.allgather_g(int(count))
        # Rank 0 builds the shared store and broadcasts it (object identity
        # is shared across ranks: this is simulator-internal state, not
        # modelled traffic).
        store = None
        if self.rank == 0:
            store = _WindowStore(
                win_id=self._engine.new_scope_id(),
                dtype=dtype,
                buffers=[np.full(s, fill, dtype=dtype) for s in sizes],
            )
        store = yield from self.bcast_g(store, root=0)
        self._rc.alloc(
            int(sizes[self.rank]) * dtype.itemsize, "rma-window"
        )
        return Window(self, store)
