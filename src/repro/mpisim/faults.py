"""Deterministic fault injection for the simulated MPI runtime.

A :class:`FaultPlan` describes everything that can go wrong in one run:

* per-message **drop / duplicate / delay** faults on two-sided traffic,
* transient per-rank **NIC degradation** windows (a multiplier on
  injection and latency cost while the window is open),
* **rank crashes** at a fixed virtual time, with ULFM-style failure
  notification after a detection latency,
* **network partitions**: windows during which rank groups are mutually
  unreachable (messages between groups are lost in flight), after which
  the network heals. Unlike a crash, every rank stays alive — the
  failure detector never reports a partitioned peer as dead, so
  recovery is the transport's job (retry past the heal), not the
  membership layer's.

Determinism is the whole point: the fate of a message is a pure function
of ``(plan.seed, src, dst, message index)`` via a counter-based
splitmix64 hash — no RNG state is consumed in call order, so two runs of
the same workload under the same plan produce bit-identical virtual
clocks and traces, and adding a new consumer of randomness never
perturbs existing fates. A plan with all rates zero, no degradation
windows, and no crashes is behaviourally identical to running without a
plan (the engine skips every draw).

The plan is *schedule*, not *mechanism*: the engine consults it in
``post_message`` and in the scheduler loop; recovery (ack/retry,
renouncing edges to dead ranks) lives with the rank programs — see
``repro.mpisim.reliable`` and ``docs/fault_model.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.rng import derive_seed

_U63 = float(1 << 63)


def _unit(seed: int, *stream: int | str) -> float:
    """Uniform [0, 1) draw as a pure function of (seed, stream)."""
    return derive_seed(seed, *stream) / _U63


@dataclass(frozen=True)
class NicDegradation:
    """One transient slow-NIC window on one rank.

    While ``t_start <= t < t_end`` on ``rank``'s clock, message injection
    and wire latency for messages *sent by* that rank are multiplied by
    ``factor`` (>= 1). Models a throttled/overheating NIC or a congested
    router port, not a hard failure.
    """

    rank: int
    t_start: float
    t_end: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(
                f"NicDegradation.factor must be >= 1, got {self.factor}"
            )
        if self.t_start < 0.0:
            raise ValueError(
                f"NicDegradation.t_start must be >= 0, got {self.t_start}"
            )
        if self.t_end <= self.t_start:
            raise ValueError(
                f"NicDegradation.t_end must be > t_start, got "
                f"t_end={self.t_end} <= t_start={self.t_start}"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """One transient network partition.

    While ``t_start <= t < t_end`` (virtual send time), ranks belonging
    to *different* entries of ``groups`` cannot exchange two-sided
    messages: anything posted across the cut is silently lost in flight
    (counted in the sender's ``msgs_partitioned``). Ranks not listed in
    any group are unaffected — they can reach, and be reached by,
    everyone. At ``t_end`` the network heals; nothing lost is replayed
    by the network, so recovery is the job of the reliable transports
    (ack/retry past the heal).

    A partition is *not* a crash: every rank keeps executing and the
    failure detector (:meth:`FaultPlan.notified_failures`) never reports
    a partitioned-but-alive peer. See docs/fault_model.md.
    """

    t_start: float
    t_end: float
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.t_start < 0.0:
            raise ValueError(
                f"PartitionWindow.t_start must be >= 0, got {self.t_start}"
            )
        if self.t_end <= self.t_start:
            raise ValueError(
                f"PartitionWindow.t_end must be > t_start, got "
                f"t_end={self.t_end} <= t_start={self.t_start}"
            )
        groups = tuple(tuple(sorted(int(r) for r in grp)) for grp in self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2:
            raise ValueError(
                f"PartitionWindow.groups needs >= 2 groups to cut anything, "
                f"got {len(groups)}"
            )
        seen: dict[int, int] = {}
        for gi, grp in enumerate(groups):
            if not grp:
                raise ValueError(f"PartitionWindow.groups[{gi}] is empty")
            for r in grp:
                if r < 0:
                    raise ValueError(
                        f"PartitionWindow.groups[{gi}] contains negative rank {r}"
                    )
                if r in seen:
                    raise ValueError(
                        f"PartitionWindow.groups: rank {r} appears in both "
                        f"groups[{seen[r]}] and groups[{gi}]"
                    )
                seen[r] = gi
        object.__setattr__(self, "_group_of", seen)

    def separates(self, a: int, b: int) -> bool:
        """True if this window (while open) cuts the (a, b) pair."""
        ga = self._group_of.get(a)
        if ga is None:
            return False
        gb = self._group_of.get(b)
        return gb is not None and gb != ga


@dataclass(frozen=True)
class ChurnPlan:
    """Continuous Poisson crash churn over a whole run.

    Every rank draws an independent stream of crash events with
    exponential inter-arrival times of mean ``mtbf`` (virtual seconds),
    up to ``horizon``. Events are a pure function of ``(seed, rank,
    event index)`` via the same counter-based splitmix64 stream as the
    rest of the plan, so two runs see bit-identical churn.

    Churn only makes sense with automatic rollback-recovery enabled
    (spares + a replicated checkpoint store): a churn event kills
    whichever live rank occupies the slot at that time, recovery rolls
    the run back to the newest complete cut and substitutes a spare —
    the engine rejects churn plans without a recovery config.
    """

    mtbf: float
    horizon: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.mtbf > 0.0:
            raise ValueError(f"ChurnPlan.mtbf must be > 0, got {self.mtbf}")
        if not self.horizon > 0.0:
            raise ValueError(
                f"ChurnPlan.horizon must be > 0, got {self.horizon}"
            )
        object.__setattr__(self, "_events", {})

    def events_for(self, rank: int) -> tuple[float, ...]:
        """Time-sorted churn crash times for ``rank`` (cached)."""
        cached = self._events.get(rank)
        if cached is None:
            out: list[float] = []
            t = 0.0
            idx = 0
            while True:
                u = _unit(self.seed, "churn", rank, idx)
                t += -self.mtbf * math.log(1.0 - u)
                if t >= self.horizon:
                    break
                out.append(t)
                idx += 1
            cached = tuple(out)
            self._events[rank] = cached
        return cached

    def expected_events(self, nprocs: int) -> float:
        """Expected total crash count (used by chaos plan sizing)."""
        return nprocs * self.horizon / self.mtbf


@dataclass(frozen=True)
class MessageFate:
    """What the network does to one posted message."""

    copies: int  #: 0 = dropped, 1 = normal, 2 = duplicated
    delays: tuple[float, ...]  #: extra seconds added to each copy's arrival


_NO_FAULT = MessageFate(copies=1, delays=(0.0,))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic schedule of injected faults."""

    seed: int = 0
    drop_rate: float = 0.0  #: P(message is lost in the network)
    dup_rate: float = 0.0  #: P(message is delivered twice)
    delay_rate: float = 0.0  #: P(a copy picks up extra transit delay)
    delay_min: float = 0.0  #: extra delay lower bound (seconds)
    delay_max: float = 50e-6  #: extra delay upper bound (seconds)
    degradations: tuple[NicDegradation, ...] = ()
    #: transient network partitions (rank groups mutually unreachable)
    partitions: tuple[PartitionWindow, ...] = ()
    #: rank -> virtual crash time; the rank stops executing at that time
    crashes: dict[int, float] = field(default_factory=dict)
    #: seconds after a crash before survivors' MPI layer reports the
    #: failure (``RankContext.failed_ranks`` / ``RankCrashed``)
    detect_latency: float = 1e-5
    #: P(a one-sided put silently vanishes on the wire) — models a lost
    #: RDMA write that hardware retry failed to recover
    rma_drop_rate: float = 0.0
    #: P(a one-sided put lands bit-flipped in the target window)
    rma_corrupt_rate: float = 0.0
    #: continuous Poisson crash churn (see :class:`ChurnPlan`); requires
    #: the engine's rollback-recovery subsystem
    churn_plan: ChurnPlan | None = None

    @classmethod
    def churn(
        cls,
        *,
        mtbf: float,
        horizon: float,
        seed: int = 0,
        detect_latency: float = 1e-5,
        **kwargs,
    ) -> "FaultPlan":
        """Build a plan that streams Poisson crashes through a run.

        ``mtbf`` is the per-rank mean time between failures and
        ``horizon`` the virtual time past which no more churn events
        fire; extra ``kwargs`` forward to :class:`FaultPlan` so churn can
        be combined with degradations, partitions, etc.
        """
        return cls(
            seed=seed,
            detect_latency=detect_latency,
            churn_plan=ChurnPlan(mtbf=mtbf, horizon=horizon, seed=seed),
            **kwargs,
        )

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "delay_rate",
                     "rma_drop_rate", "rma_corrupt_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"FaultPlan.{name} must be in [0, 1], got {v}")
        if self.delay_min < 0.0:
            raise ValueError(
                f"FaultPlan.delay_min must be >= 0, got {self.delay_min}"
            )
        if self.delay_max < self.delay_min:
            raise ValueError(
                f"FaultPlan.delay_max must be >= delay_min, got "
                f"delay_max={self.delay_max} < delay_min={self.delay_min}"
            )
        if self.detect_latency < 0.0:
            raise ValueError(
                f"FaultPlan.detect_latency must be >= 0, got "
                f"{self.detect_latency}"
            )
        for r, t in self.crashes.items():
            if r < 0:
                raise ValueError(f"FaultPlan.crashes contains negative rank {r}")
            if t < 0.0:
                raise ValueError(
                    f"FaultPlan.crashes[{r}] must be >= 0, got {t}"
                )
        # Derived lookup structures, cached once: the engine consults the
        # plan on every posted message and every blocked-rank wake check,
        # so these must not be recomputed per call. (The dataclass is
        # frozen, hence object.__setattr__.)
        object.__setattr__(
            self,
            "_msg_faults",
            self.drop_rate > 0.0 or self.dup_rate > 0.0 or self.delay_rate > 0.0,
        )
        object.__setattr__(
            self,
            "_rma_faults",
            self.rma_drop_rate > 0.0 or self.rma_corrupt_rate > 0.0,
        )
        by_rank: dict[int, list[NicDegradation]] = {}
        for d in self.degradations:
            by_rank.setdefault(d.rank, []).append(d)
        object.__setattr__(
            self, "_deg_by_rank", {r: tuple(ds) for r, ds in by_rank.items()}
        )
        object.__setattr__(
            self,
            "_notify_schedule",
            tuple(
                sorted((tc + self.detect_latency, r) for r, tc in self.crashes.items())
            ),
        )
        object.__setattr__(
            self,
            "_partitions_sorted",
            tuple(sorted(self.partitions, key=lambda w: (w.t_start, w.t_end))),
        )

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def has_message_faults(self) -> bool:
        return self._msg_faults

    def has_rma_faults(self) -> bool:
        return self._rma_faults

    def has_crashes(self) -> bool:
        return bool(self.crashes)

    def has_churn(self) -> bool:
        return self.churn_plan is not None

    def has_degradations(self) -> bool:
        return bool(self.degradations)

    def has_partitions(self) -> bool:
        return bool(self.partitions)

    def is_null(self) -> bool:
        """True if this plan cannot change behaviour at all."""
        return not (
            self.has_message_faults()
            or self.has_rma_faults()
            or self.has_crashes()
            or self.has_churn()
            or self.has_degradations()
            or self.has_partitions()
        )

    def needs_reliability(self) -> bool:
        """Do rank programs need an ack/retry shim to run correctly?

        True for message fates (drop/dup/delay) and for partitions —
        both lose messages that only an ack/retry transport can recover.
        """
        return self.has_message_faults() or self.has_partitions()

    # ------------------------------------------------------------------
    # message fates
    # ------------------------------------------------------------------
    def message_fate(self, src: int, dst: int, index: int) -> MessageFate:
        """Fate of the ``index``-th message posted in this run.

        ``index`` is the engine's global post counter, so retransmissions
        of a logically identical message draw fresh, independent fates.
        """
        if not self._msg_faults:
            return _NO_FAULT
        if self.drop_rate > 0.0 and _unit(self.seed, "drop", src, dst, index) < self.drop_rate:
            return MessageFate(copies=0, delays=())
        copies = 1
        if self.dup_rate > 0.0 and _unit(self.seed, "dup", src, dst, index) < self.dup_rate:
            copies = 2
        delays = []
        for c in range(copies):
            d = 0.0
            if (
                self.delay_rate > 0.0
                and _unit(self.seed, "delay?", src, dst, index, c) < self.delay_rate
            ):
                u = _unit(self.seed, "delay", src, dst, index, c)
                d = self.delay_min + u * (self.delay_max - self.delay_min)
            delays.append(d)
        return MessageFate(copies=copies, delays=tuple(delays))

    # ------------------------------------------------------------------
    # one-sided (RMA) put fates
    # ------------------------------------------------------------------
    def put_fate(self, origin: int, target: int, index: int) -> str:
        """Fate of the ``index``-th one-sided put issued in this run.

        Returns ``"ok"``, ``"drop"`` (the write never reaches the target
        window) or ``"corrupt"`` (it lands bit-flipped). ``index`` is the
        engine's global put counter, so a retried put draws a fresh,
        independent fate.
        """
        if not self._rma_faults:
            return "ok"
        if (
            self.rma_drop_rate > 0.0
            and _unit(self.seed, "rma-drop", origin, target, index) < self.rma_drop_rate
        ):
            return "drop"
        if (
            self.rma_corrupt_rate > 0.0
            and _unit(self.seed, "rma-corrupt", origin, target, index)
            < self.rma_corrupt_rate
        ):
            return "corrupt"
        return "ok"

    def corrupt_word(self, origin: int, target: int, index: int, size: int) -> tuple[int, int]:
        """Deterministic (word position, nonzero xor mask) for a corrupt put."""
        pos = derive_seed(self.seed, "rma-pos", origin, target, index) % max(1, size)
        mask = derive_seed(self.seed, "rma-mask", origin, target, index) | 1
        return int(pos), int(mask & 0x7FFFFFFFFFFFFFFF)

    # ------------------------------------------------------------------
    # NIC degradation
    # ------------------------------------------------------------------
    def nic_factor(self, rank: int, t: float) -> float:
        """Cost multiplier for messages injected by ``rank`` at time ``t``."""
        ds = self._deg_by_rank.get(rank)
        if ds is None:
            return 1.0
        f = 1.0
        for d in ds:
            if d.t_start <= t < d.t_end:
                f *= d.factor
        return f

    # ------------------------------------------------------------------
    # network partitions
    # ------------------------------------------------------------------
    def partitioned(self, src: int, dst: int, t: float) -> bool:
        """True if a message sent src -> dst at time ``t`` crosses a cut.

        Evaluated at *send* time: a message posted inside an open window
        whose groups separate the pair is lost (the window closing while
        it is in flight does not save it — the network dropped it at
        injection). Self-sends never partition.
        """
        if not self.partitions or src == dst:
            return False
        for w in self._partitions_sorted:
            if w.t_start <= t < w.t_end and w.separates(src, dst):
                return True
        return False

    def partition_clear_time(self, src: int, dst: int, t: float) -> float:
        """Earliest time >= ``t`` at which src -> dst is not partitioned.

        Returns ``t`` itself when the pair is reachable now. Retry
        transports use this to defer a retransmission past the heal
        instead of burning retry attempts into a dead wire.
        """
        if not self.partitions or src == dst:
            return t
        cleared = t
        # Windows may overlap or chain; iterate until no open window
        # separates the pair at the candidate time.
        for _ in range(len(self._partitions_sorted) + 1):
            blocked = False
            for w in self._partitions_sorted:
                if w.t_start <= cleared < w.t_end and w.separates(src, dst):
                    cleared = w.t_end
                    blocked = True
            if not blocked:
                return cleared
        return cleared

    # ------------------------------------------------------------------
    # crashes / failure notification
    # ------------------------------------------------------------------
    def crash_time(self, rank: int) -> float | None:
        return self.crashes.get(rank)

    def notified_failures(self, t: float) -> frozenset[int]:
        """Ranks whose failure is detectable by an observer at time ``t``.

        Detection is plan-derived (crash time + detection latency), so
        every rank sees a consistent, deterministic failure epoch.
        """
        return frozenset(
            r for r, tc in self.crashes.items() if tc + self.detect_latency <= t
        )

    def next_notification(self, after_seen: set[int]) -> float | None:
        """Earliest notification time of a crash not yet in ``after_seen``.

        Walks the precomputed time-sorted schedule, so the common case
        (first crash not yet seen) is O(1) instead of rebuilding a list —
        this runs inside every blocked-receive wake evaluation.
        """
        for tn, r in self._notify_schedule:
            if r not in after_seen:
                return tn
        return None
