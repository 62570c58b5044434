"""The engine's resilience layer: fault plans, coordinated cuts, restore,
rollback recovery and scope revocation.

The source paper's runs are fault-free, and so is the engine core
(:mod:`repro.mpisim.engine`). A run with a fault plan, a checkpoint
config, a restore snapshot or a recovery config also holds one
:class:`Resilience` as ``engine.resilience``. The core calls it once per
scheduling decision (:meth:`~Resilience.decide`), at every rank-side
yield (:meth:`~Resilience.gate`) and for every message the plan may
perturb (:meth:`~Resilience.post`). Nothing that enters a cut references
it. Rollback recovery (:class:`RecoveryConfig`) is described in
docs/fault_model.md ("Recovery").
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.mpisim.checkpoint import (
    PICKLE_PROTOCOL,
    CheckpointConfig,
    EngineSnapshot,
    ReplicatedCheckpointStore,
    make_snapshot,
    save_checkpoint,
)
from repro.mpisim.engine import (
    _BLOCKED,
    _CRASHED,
    _DONE,
    _FAILED,
    _INF,
    _PARK,
    _READY,
    _RUNNING,
    _RankState,
)
from repro.mpisim.errors import RecoveryFailed, SimAbort
from repro.mpisim.faults import FaultPlan
from repro.mpisim.tracing import TraceEvent


@dataclass(frozen=True)
class RecoveryConfig:
    """Turn on automatic rollback-recovery for an engine run.

    ``spares`` is the warm-standby budget: each healed crash consumes one
    spare (the substitute adopts the dead rank's slot, so rank ids and
    the topology never change). Spares are outside the communicator and
    cost nothing while idle. ``replicas`` is the buddy-replication degree
    ``k`` used when the engine wraps a plain store; when the caller
    supplies a :class:`~repro.mpisim.checkpoint.ReplicatedCheckpointStore`
    directly, the store's own degree wins.
    """

    spares: int = 1
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.spares < 0:
            raise ValueError(
                f"RecoveryConfig.spares must be >= 0, got {self.spares}"
            )
        if self.replicas < 0:
            raise ValueError(
                f"RecoveryConfig.replicas must be >= 0, got {self.replicas}"
            )


def _never_wake() -> float | None:
    """Wake potential of a tick-parked rank: only the checkpoint
    assembly (not any message/collective event) may release it."""
    return None


class Resilience:
    """Fault plan, checkpointing, restore and recovery of one engine run.

    Built by :class:`~repro.mpisim.engine.Engine` from the arguments of
    the same names, which this constructor validates.
    """

    def __init__(
        self,
        engine,
        faults: FaultPlan | None,
        checkpoint: CheckpointConfig | None,
        restore: EngineSnapshot | None,
        recovery: RecoveryConfig | None,
        profile: bool,
    ):
        nprocs = engine.nprocs
        if faults is not None:
            bad = [r for r in faults.crashes if not 0 <= r < nprocs]
            if bad:
                raise ValueError(f"fault plan crashes unknown ranks {bad}")
            if faults.has_churn() and recovery is None:
                raise ValueError(
                    "a churn fault plan streams crashes through the whole "
                    "run and requires recovery=RecoveryConfig(...) (spares "
                    "+ buddy replication) to be survivable"
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
                checkpoint = replace(checkpoint, store=ReplicatedCheckpointStore(
                    replicas=recovery.replicas))
        self._eng = engine
        self.faults = faults
        #: Can a rank observe a crash in this run? Only when the plan
        #: crashes ranks and no recovery is armed: recovery heals a crash
        #: before any survivor can observe it (a spare refills the dead
        #: slot under the same rank id), so its failure detector stays
        #: silent and rank programs run as in a fault-free schedule.
        self.crashes_visible = (
            faults is not None and faults.has_crashes() and recovery is None
        )
        #: Can the plan kill a rank at all? Drop, delay, partition,
        #: put-fate and NIC-only plans cannot, and then neither
        #: :meth:`decide` nor :meth:`gate` looks for a crash time.
        self._kills = faults is not None and (
            faults.has_crashes() or faults.has_churn())
        self._post_count = 0  # fault-fate index: one per lossy post
        self._put_count = 0  # one-sided fate index: one per issued put
        # ULFM-style revocation: scope_id -> (revoke time, crashed rank that
        # triggered it). Entrants of ops on a revoked scope raise instead
        # of waiting for a rendezvous that can never complete.
        self._revoked_scopes: dict[Any, tuple[float, int]] = {}

        # ---- automatic rollback-recovery ----
        self._recovery = recovery
        # Crash events that already fired (and were healed): a clock
        # rewind must never refire them. Deliberately NOT part of
        # snapshots — fault history belongs to the run, not the cut.
        self._fired_crashes: set[int] = set()
        self._churn_fired: dict[int, int] = {}  # rank -> consumed events
        self._recovery_due: tuple[int, float] | None = None
        # one (dead rank, crash time, recovery latency) per healed crash;
        # each consumed one spare
        self._healed: list[tuple[int, float, float]] = []
        self._recovery_stats = None if recovery is None else {
            "rollback_vtime": 0.0, "cuts_lost": 0,
            "replica_msgs": 0, "replica_bytes": 0,
        }

        # ---- coordinated checkpoint/restart ----
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
            if st["machine"] != engine.machine:
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
            # interval and the next due point (set by _restore) must match
            # the original run so every later cut (and deterministic skip)
            # replays identically. A caller-passed config contributes only
            # its store and dir; the cadence always comes from the
            # snapshot.
            interval = st["ckpt"]["interval"]
            self._ckpt = (CheckpointConfig(interval=interval) if checkpoint is None
                          else replace(checkpoint, interval=interval))
            self._restore_state = st

    # ------------------------------------------------------------------
    # the engine core's hooks
    # ------------------------------------------------------------------
    def resume(self) -> bool:
        """Start the run from its restore snapshot; False when it has
        none and starts from virtual time 0."""
        if self._restore_state is None:
            return False
        self._restore(self._restore_state)
        return True

    def decide(self, best: tuple[float, int] | None) -> bool:
        """Take this scheduling decision when a resilience event is due;
        True when it did (the loop then re-evaluates from scratch).

        Order: a pending rollback, the checkpoint poll, then — when no
        rank can act and none has failed — the earliest pending crash;
        otherwise the picked rank dies if its crash time has come.
        """
        if self._recovery_due is not None:
            self._perform_recovery()
            return True
        if self._ckpt is not None and self._ckpt_poll(best):
            return True
        if not self._kills:
            return False
        ranks = self._eng._ranks
        if best is not None:
            t, rank = best
            tc = self._scheduled_crash(rank)
            if tc is None or t < tc:
                return False
        else:
            if any(rs.state == _FAILED for rs in ranks):
                return False  # the core ends the run
            pending = [(tc, rs.rank) for rs in ranks
                       if rs.state in (_READY, _BLOCKED)
                       and (tc := self._scheduled_crash(rs.rank)) is not None]
            if not pending:
                return False
            tc, rank = min(pending)
        self._kill(ranks[rank], tc)
        return True

    def gate(self, rank: int) -> None:
        """Called from rank programs at every communication yield point:
        if this rank's clock has reached its scheduled crash time, it dies
        here (unwinding the generator) instead of issuing the operation."""
        if not self._kills:
            return
        rs = self._eng._ranks[rank]
        tc = self._scheduled_crash(rank)
        if tc is not None and rs.clock >= tc:
            self._kill(rs, tc)
            raise SimAbort()

    def post(self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
             arrival: float) -> float:
        """Deliver one message under the fault plan; returns ``arrival``.

        The plan decides the message's fate: an active partition swallows
        it, and otherwise it is dropped, duplicated, delayed, or
        blackholed into a crashed rank — each outcome counted and traced
        at the sender.
        """
        eng = self._eng
        plan = self.faults
        send_time = eng._ranks[src].clock
        src_rc = eng.counters.ranks[src]
        self._post_count += 1
        if plan.partitions and plan.partitioned(src, dst, send_time):
            # An active partition window swallows the send entirely
            # (evaluated at send time; the fate stream is untouched —
            # fates are pure functions of the post index).
            src_rc.msgs_partitioned += 1
            eng.trace_event(src, "fault", kind="partition", dst=dst, tag=tag)
            return arrival
        fate = plan.message_fate(src, dst, self._post_count)
        if fate.copies == 0:
            src_rc.msgs_dropped += 1
            eng.trace_event(src, "fault", kind="drop", dst=dst, tag=tag)
            return arrival
        if fate.copies > 1:
            src_rc.msgs_duplicated += 1
            eng.trace_event(src, "fault", kind="dup", dst=dst, tag=tag)
        # Only a crash ranks can observe blackholes a message: under
        # recovery the destination will be alive (a spare) to receive it.
        dead_at = plan.crash_time(dst) if self.crashes_visible else None
        for c in range(fate.copies):
            extra = fate.delays[c]
            arr = arrival + extra
            if extra > 0.0:
                src_rc.msgs_delayed += 1
                eng.trace_event(
                    src, "fault", kind="delay", dst=dst, tag=tag, extra=extra
                )
            if dead_at is not None and arr >= dead_at:
                # Receiver is dead on arrival: the message vanishes.
                src_rc.crash_blackholed += 1
                eng.trace_event(src, "fault", kind="blackhole", dst=dst, tag=tag)
                continue
            eng._enqueue(src, dst, tag, payload, nbytes, send_time, arr,
                         "dup" if c > 0 else ("delay" if extra > 0.0 else None))
        return arrival

    def report(self) -> dict | None:
        """Summarize rollback-recovery activity, or None when disabled."""
        s = self._recovery_stats
        if s is None:
            return None
        n = len(self._healed)
        return {
            "recoveries": n,
            "spares_used": n,
            "spares_left": self._recovery.spares - n,
            "rollback_vtime": s["rollback_vtime"],
            "cuts_lost": s["cuts_lost"],
            "replica_msgs": s["replica_msgs"],
            "replica_bytes": s["replica_bytes"],
            "mean_recovery_latency": (
                sum(lat for _, _, lat in self._healed) / n if n else 0.0),
            "crashes_survived": tuple((r, tc) for r, tc, _ in self._healed),
            # The effective (replicated) store is internal — the caller's
            # CheckpointConfig.store stays untouched — so the cut count
            # must travel in the report.
            "cuts_held": len(self._ckpt.store),
        }

    # ------------------------------------------------------------------
    # rank-side services
    # ------------------------------------------------------------------
    def register_checkpoint_provider(self, rank: int, fn: Callable[[], Any]) -> None:
        """Register the application-state capture hook for ``rank``.

        Called back (scheduler side) at every coordinated cut; must
        return a picklable blob free of engine/context references. The
        blob comes back as ``ctx.resume_app_state()`` after a restore.
        A run that takes no cuts keeps no hooks.
        """
        if self._ckpt is not None:
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
        eng = self._eng
        rs = eng._ranks[rank]
        if rs.clock < self._ckpt_next_due:
            return
        self.gate(rank)
        rs.describe = "checkpoint-tick"
        rs.wait_phase = "checkpoint-wait"
        rs.state = _BLOCKED
        rs.wake_potential = _never_wake
        rs.ckpt_tick = True
        # Invalidate any stale heap entry for this rank: a tick park
        # must only be released by the checkpoint assembly itself.
        rs.heap_ver += 1
        yield _PARK
        if eng._abort:
            raise SimAbort()
        rs.state = _RUNNING
        rs.ckpt_tick = False
        rs.describe = ""

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
        eng = self._eng
        eng._stale.update(r.rank for r in eng._ranks if r.state == _BLOCKED)

    def scope_revocation(self, scope_id: Any) -> tuple[float, int] | None:
        """(revoke time, triggering dead rank) for a revoked scope, or None."""
        return self._revoked_scopes.get(scope_id)

    def next_put_index(self) -> int:
        """Global one-sided fate index (one per issued put, retries included)."""
        self._put_count += 1
        return self._put_count

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
        live = [rs for rs in self._eng._ranks if rs.state not in (_DONE, _CRASHED)]
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
            self._eng._push_candidate(rs)

    def _take_checkpoint(self, due: float) -> None:
        """Capture one coordinated cut and append it to the store.

        The whole engine state goes into a single pickle, which preserves
        object identity across ranks (a window store shared by all ranks
        is restored as one shared object) and isolates the snapshot from
        any mutation after this instant. Checkpointing charges no virtual
        time and emits no trace events, so a checkpointed run is
        bit-identical to an uncheckpointed one.
        """
        eng = self._eng
        ranks_state: list[dict] = []
        for rs in eng._ranks:
            if rs.state == _DONE:
                # A finished rank is never captured again; dropping its
                # hook frees the application state it closes over.
                self._ckpt_providers.pop(rs.rank, None)
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
            "nprocs": eng.nprocs,
            "machine": eng.machine,
            "faults": self.faults,
            "vtime": due,
            "ranks": ranks_state,
            "send_seq": eng._send_seq,
            # the cut's layout: keyed by (src, dst), in the same order
            "pair_arrival": {divmod(key, eng.nprocs): t
                             for key, t in eng._pair_arrival.items()},
            "op_count": eng._op_count,
            "post_count": self._post_count,
            "put_count": self._put_count,
            "crashed": eng._crashed,
            "revoked_scopes": self._revoked_scopes,
            "switches": eng._switches,
            "coll_seq": eng._coll_seq,
            "coll_ops": eng._coll_ops,
            "next_scope_id": eng._next_scope_id,
            "shared_objects": eng._shared_objects,
            "counters": eng.counters,
            "trace_len": len(eng.trace) if eng.trace is not None else 0,
            "ckpt": {
                "interval": self._ckpt.interval,
                "next_due": due + self._ckpt.interval,
                "epoch": self._ckpt_epoch + 1,
            },
        }
        snap = make_snapshot(self._ckpt_epoch, due, eng.nprocs, state)
        self._ckpt_epoch += 1
        self._ckpt.store.add(snap)
        if self._recovery is not None:
            self._charge_replication(snap, ranks_state)
        if self._ckpt.dir is not None:
            ckdir = Path(self._ckpt.dir)
            ckdir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(snap, ckdir / f"checkpoint-epoch{snap.epoch}.ckpt")

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
        eng = self._eng
        store: ReplicatedCheckpointStore = self._ckpt.store
        sizes: dict[int, int] = {}
        for rs in eng._ranks:
            if rs.state in (_DONE, _CRASHED):
                continue
            sizes[rs.rank] = len(
                pickle.dumps(ranks_state[rs.rank], protocol=PICKLE_PROTOCOL)
            )
        store.record_replication(snap, sizes)
        k = min(store.replicas, eng.nprocs - 1)
        if k == 0:
            return
        m = eng.machine
        stats = self._recovery_stats
        for r in sorted(sizes):
            nb = sizes[r]
            cost = k * (m.send_origin_cost(nb) + m.transit_time(nb)
                        + m.injection_time(nb))
            eng._ranks[r].clock += cost
            stats["replica_msgs"] += k
            stats["replica_bytes"] += k * nb
        # Parked owners' candidate times moved with their clocks.
        eng._stale.update(r for r in sizes if eng._ranks[r].state == _BLOCKED)

    def _restore(self, st: dict) -> None:
        """Adopt a cut: the run's globals, then fresh rank slots launched
        from its per-rank records. Shared by :meth:`resume` (process
        start) and the recovery controller (mid-run rollback, where a
        spare adopts the dead slot's record under the same rank id).

        All the globals come out of one pickle, so cross-references
        survive: restored agreement collectives' ``crashed_at`` is the
        same dict object as ``st["crashed"]``, which becomes the engine's
        crash record here — kills after resume stay visible to
        collectives created before the cut.
        """
        eng = self._eng
        eng._send_seq = st["send_seq"]
        eng._pair_arrival = {src * eng.nprocs + dst: t
                             for (src, dst), t in st["pair_arrival"].items()}
        eng._op_count = st["op_count"]
        self._post_count = st["post_count"]
        self._put_count = st["put_count"]
        eng._crashed = st["crashed"]
        self._revoked_scopes = st["revoked_scopes"]
        eng._switches = st["switches"]
        eng._coll_seq = st["coll_seq"]
        eng._coll_ops = st["coll_ops"]
        eng._next_scope_id = st["next_scope_id"]
        eng._shared_objects = st["shared_objects"]
        eng.counters = st["counters"]
        if eng.trace is not None:
            del eng.trace[st["trace_len"]:]
        ck = st["ckpt"]
        self._ckpt_next_due = ck["next_due"]
        self._ckpt_epoch = ck["epoch"]
        self._ckpt_providers.clear()
        eng._ranks = [_RankState(r) for r in range(eng.nprocs)]
        eng._heap.clear()
        eng._stale.clear()
        for rs in eng._ranks:
            rsnap = st["ranks"][rs.rank]
            if rsnap["status"] != "live":
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
            ctx = eng._spawn(rs)
            rs.clock = rsnap["clock"]
            rs.queue = rsnap["queue"]
            rs.nic_out_free = rsnap["nic_out_free"]
            rs.nic_in_free = rsnap["nic_in_free"]
            rs.rma_outstanding = rsnap["rma_outstanding"]
            rs.failures_seen = rsnap["failures_seen"]
            ctx._resume = rsnap

        # Ranks recorded at a safepoint wait (e.g. a probe) were already
        # parked when the cut was assembled, so they must be back in that
        # park before any scheduling decision: the next cut can be due
        # before their candidate time, and the uninterrupted run
        # assembles it while they sit blocked. The path from generator
        # start to the re-issued park charges no virtual time and emits
        # no trace, so running it eagerly (in rank order) is invisible to
        # the replayed schedule.
        for rs in eng._ranks:
            rsnap = st["ranks"][rs.rank]
            if rs.state != _READY or rsnap["status"] != "live":
                continue
            wait = rsnap.get("wait")
            if wait is not None and wait[0] != "tick":
                eng._switch_to(rs)

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
        eng = self._eng
        dead, tc = self._recovery_due
        self._recovery_due = None
        store: ReplicatedCheckpointStore = self._ckpt.store
        stats = self._recovery_stats
        # The holder died: its own slice and every buddy copy it stored
        # (for every cut still in the store) die with it — permanently.
        store.mark_rank_lost(dead)
        snap, _ = store.latest_complete()
        if snap is None:
            reason = "no-cut-taken" if len(store) == 0 else "no-complete-cut"
            raise RecoveryFailed(reason, dead, tc, store.explain())
        if len(self._healed) >= self._recovery.spares:
            raise RecoveryFailed("spares-exhausted", dead, tc, store.explain())

        # Unwind every still-live rank body, then restore the engine and
        # all rank slots from the chosen cut (the spare adopts the dead
        # slot's record). Cuts newer than the chosen one belong to the
        # abandoned timeline; count them as lost to buddy death.
        eng._unwind_ranks()
        stats["cuts_lost"] += store.discard_after(snap.epoch)
        self._restore(snap.state())

        # Recovery cost, charged uniformly to every live clock: failure
        # detection, the survivor agreement on the rollback target (one
        # 8-byte allreduce), and the revived slot's slice fetch from its
        # buddy (everyone waits for the straggler before the new epoch).
        m = eng.machine
        delta = self.faults.detect_latency + m.allreduce_cost(eng.nprocs, 8)
        nb = store.slice_size(snap.epoch, dead)
        if nb:
            delta += (m.send_origin_cost(nb) + m.transit_time(nb)
                      + m.injection_time(nb))
        for rs in eng._ranks:
            if rs.state not in (_DONE, _CRASHED):
                rs.clock += delta
        for rs in eng._ranks:
            eng._push_candidate(rs)

        stats["rollback_vtime"] += tc - snap.vtime
        self._healed.append((dead, tc, delta))

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
        if self.faults is None or rank in self._eng._crashed:
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

    def _kill(self, rs: _RankState, tc: float) -> None:
        """Kill ``rs`` at virtual time ``tc``.

        Its final clock is the crash time, so a crashed rank contributes
        exactly ``tc`` to the makespan; a rank killed scheduler side
        keeps its generator parked until shutdown unwinds it. Under
        recovery, the crash event is consumed and the rollback scheduled.
        """
        eng = self._eng
        # The kill can be detected after the rank's clock already ran past
        # tc (an op charged through the crash time before the next check):
        # stamp the trace event at the overrun clock so per-rank traces
        # stay monotone, while the detail and final clock keep exact tc.
        stamp = max(rs.clock, tc)
        rs.clock = tc
        rs.state = _CRASHED
        rs.wake_potential = None
        eng._crashed[rs.rank] = tc
        if eng.trace is not None:
            eng.trace.append(
                TraceEvent(stamp, rs.rank, "fault", {"kind": "crash", "t": tc}))
        if self._recovery is not None:
            self._mark_crash_fired(rs.rank, tc)
        # A kill is an event, not a plan-derived time: wake predicates
        # that consult the confirmed-dead set (survivor agreements) must
        # be re-evaluated, so conservatively re-index every parked rank.
        eng._stale.update(r.rank for r in eng._ranks if r.state == _BLOCKED)

    def _mark_crash_fired(self, rank: int, tc: float) -> None:
        """Consume the crash event(s) behind a kill at ``tc`` and
        schedule the rollback."""
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
