"""Exception types raised by the simulated MPI runtime."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulator errors."""


class DeadlockError(SimError):
    """No rank can make progress, but not all ranks have finished.

    Carries a human-readable per-rank state dump so test failures are
    diagnosable (which rank is stuck in which call, with what predicate),
    plus structured ``details``: per rank, the run state, clock, blocking
    operation, pending receive-queue depth, and the last trace event (when
    tracing was enabled) — enough to diagnose fault-induced hangs from the
    exception alone.
    """

    def __init__(
        self,
        message: str,
        rank_states: dict[int, str] | None = None,
        details: dict[int, dict] | None = None,
        collectives: list[dict] | None = None,
    ):
        self.rank_states = rank_states or {}
        self.details = details or {}
        #: stalled in-flight collectives: each entry carries ``key``,
        #: ``kind``, ``entered``, ``missing`` and ``crashed_missing``
        self.collectives = collectives or []
        if self.rank_states:
            dump = "\n".join(
                f"  rank {r}: {s}" for r, s in sorted(self.rank_states.items())
            )
            message = f"{message}\n{dump}"
        if self.collectives:
            lines = []
            for c in self.collectives:
                crashed = (
                    f" (crashed: {c['crashed_missing']})"
                    if c.get("crashed_missing")
                    else ""
                )
                lines.append(
                    f"  {c['kind']}@{c['key']}: entered={c['entered']} "
                    f"missing={c['missing']}{crashed}"
                )
            message = f"{message}\nstalled collectives:\n" + "\n".join(lines)
        super().__init__(message)


class RankFailure(SimError):
    """A rank's target function raised; wraps the original exception."""

    def __init__(self, rank: int, original: BaseException):
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


class SimAbort(BaseException):
    """Internal: thrown into parked rank generators to unwind them on abort.

    Derives from BaseException so user-level ``except Exception`` handlers
    inside rank targets cannot swallow it.
    """


class SimLimitExceeded(SimError):
    """The engine exceeded its configured operation budget (``max_ops``)."""


class SimKilled(SimError):
    """The run was killed at a scheduled virtual time (``kill_at``).

    Models an external job kill (wall-clock limit, node reclaim) for
    checkpoint/restart testing: the engine aborts the moment any rank's
    clock passes the kill time. Checkpoints taken before the kill
    survive in the run's :class:`~repro.mpisim.checkpoint.CheckpointStore`
    and the run can be resumed from the latest one.
    """

    def __init__(self, t: float):
        super().__init__(f"run killed at virtual time {t:.9g}")
        self.t = t


class RankCrashed(SimError):
    """Communication with a rank that is known (detected) to have crashed.

    The simulated analogue of ULFM's ``MPI_ERR_PROC_FAILED``: raised when
    a rank program sends to — or does a directed receive from — a peer
    whose failure notification has already reached the caller.
    """

    def __init__(self, rank: int):
        super().__init__(f"rank {rank} has crashed")
        self.rank = rank


class RetryExhausted(SimError):
    """A reliable-delivery channel gave up on a message after max retries."""


class RecoveryFailed(SimError):
    """Automatic rollback-recovery could not heal the run.

    Raised by the engine's recovery controller when a crash cannot be
    survived: no stored cut is complete (every copy of some rank's slice
    died with its holders), no cut had been taken yet, or the spare-rank
    budget is exhausted. ``reason`` is a stable machine-readable tag
    (``"no-complete-cut"`` / ``"no-cut-taken"`` / ``"spares-exhausted"``)
    and ``report`` the deterministic per-cut explanation from
    :meth:`~repro.mpisim.checkpoint.ReplicatedCheckpointStore.explain`.
    """

    def __init__(self, reason: str, rank: int, t: float, report: str):
        super().__init__(
            f"recovery failed after crash of rank {rank} at t={t:.9g}: "
            f"{reason}\n{report}"
        )
        self.reason = reason
        self.rank = rank
        self.t = t
        self.report = report


class CommMismatchError(SimError):
    """Ranks disagreed about a collective operation (wrong sequence/size)."""
