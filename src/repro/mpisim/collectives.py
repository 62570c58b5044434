"""Collective-operation bookkeeping for the engine.

Two families:

* :class:`FullCollective` — classic communicator-wide operations (barrier,
  allreduce, bcast, gather, allgather, alltoall). All ranks rendezvous; a
  rank's completion time is ``max(entry times) + cost`` where the cost comes
  from the machine model's analytic expression.

* :class:`NeighborhoodCollective` — MPI-3 neighborhood operations over a
  distributed graph topology. Rank ``r`` only rendezvouses with
  ``{r} ∪ N(r)``; its completion time is ``max(entry over that set) +
  cost_r`` where ``cost_r`` scales with r's *process-graph degree* — the
  mechanism behind the paper's observation that NCL collapses on dense
  process neighborhoods (Fig. 4c, Tables III/IV).

Waiting for stragglers is accounted as idle time by the engine scheduler;
the exchange cost itself is charged as communication time after resume.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mpisim.errors import CommMismatchError


def _reduce(values: list[Any], op: str) -> Any:
    """Combine per-rank contributions (scalars, sequences, numpy arrays).

    Mirrors MPI_SUM / MPI_MIN / MPI_MAX / MPI_LAND / MPI_LOR; min/max on
    array-likes are element-wise, as in MPI.
    """
    import numpy as np

    def is_arraylike(x: Any) -> bool:
        return hasattr(x, "__len__") and not isinstance(x, (str, bytes))

    if op == "sum":
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        return acc
    if op in ("min", "max"):
        fn_scalar = min if op == "min" else max
        fn_array = np.minimum if op == "min" else np.maximum
        acc = values[0]
        for v in values[1:]:
            acc = fn_array(acc, v) if is_arraylike(acc) else fn_scalar(acc, v)
        return acc
    if op == "land":
        return all(bool(v) for v in values)
    if op == "lor":
        return any(bool(v) for v in values)
    raise ValueError(f"unknown reduction op {op!r}")


class FullCollective:
    """One in-flight communicator-wide collective call instance."""

    __slots__ = (
        "key",
        "kind",
        "nprocs",
        "params",
        "entries",
        "done",
        "_result_cache",
        "_base",
    )

    def __init__(self, key: tuple[int, int], kind: str, nprocs: int, params: dict):
        self.key = key
        self.kind = kind
        self.nprocs = nprocs
        self.params = params
        self.entries: dict[int, tuple[float, Any]] = {}
        self.done: set[int] = set()
        self._result_cache: Any = None
        self._base: float | None = None

    def enter(self, rank: int, time: float, data: Any, kind: str, params: dict) -> None:
        if kind != self.kind:
            raise CommMismatchError(
                f"collective mismatch at {self.key}: rank {rank} called {kind}, "
                f"others called {self.kind}"
            )
        if rank in self.entries:
            raise CommMismatchError(f"rank {rank} entered {self.key} twice")
        self.entries[rank] = (time, data)

    @property
    def complete(self) -> bool:
        return len(self.entries) == self.nprocs

    def base_time(self) -> float:
        if self._base is None:
            self._base = max(t for t, _ in self.entries.values())
        return self._base

    def wake_potential(self, rank: int) -> float | None:
        """Engine block predicate: time rank may resume, or None."""
        return self.base_time() if self.complete else None

    def straggler(self) -> tuple[int, float]:
        """(rank, entry time) of the last entrant — the participant the
        rendezvous was serialized on (smallest rank on ties). Only valid
        once the collective is complete; used by the profiler to attach
        a cross-rank dependency to collective waits."""
        base = self.base_time()
        rank = min(r for r, (t, _) in self.entries.items() if t == base)
        return rank, base

    def result_for(self, rank: int) -> Any:
        if self._result_cache is None:
            self._result_cache = self._combine()
        per_rank = self._result_cache
        return per_rank[rank]

    def _combine(self) -> list[Any]:
        datas = [self.entries[r][1] for r in range(self.nprocs)]
        kind = self.kind
        if kind == "barrier":
            return [None] * self.nprocs
        if kind == "allreduce":
            red = _reduce(datas, self.params.get("op", "sum"))
            return [red] * self.nprocs
        if kind == "bcast":
            root = self.params["root"]
            return [datas[root]] * self.nprocs
        if kind == "gather":
            root = self.params["root"]
            return [list(datas) if r == root else None for r in range(self.nprocs)]
        if kind == "allgather":
            # One list shared by all ranks: dist_graph_create_adjacent
            # validates it once on the strength of that identity.
            return [list(datas)] * self.nprocs
        if kind == "alltoall":
            # datas[q] is the length-p list rank q sends; result[r][q] is
            # what q sent to r.
            return [[datas[q][r] for q in range(self.nprocs)] for r in range(self.nprocs)]
        raise ValueError(f"unknown collective kind {kind!r}")

    def mark_done(self, rank: int) -> bool:
        """Record pickup; returns True when every rank has collected."""
        self.done.add(rank)
        return len(self.done) == self.nprocs

    def missing_ranks(self) -> list[int]:
        """Ranks that have not yet entered this collective."""
        entries = self.entries
        return [r for r in range(self.nprocs) if r not in entries]


class AgreementCollective(FullCollective):
    """ULFM-style survivor agreement: a full collective over live ranks.

    Completion does not require *every* rank to enter — only every rank
    that has not crashed (engine-confirmed kill). The completion time is
    the latest of the entrants' entry times and the failure-notification
    times of the crashed non-entrants, modelling a recovery protocol that
    must wait out its failure detector before concluding a peer is gone.

    The reduction combines the entrants' contributions only; a crashed
    rank contributes nothing, exactly as in ``MPIX_Comm_agree`` over a
    shrunken communicator.
    """

    __slots__ = ("crashed_at", "detect_latency")

    def __init__(self, key, kind: str, nprocs: int, params: dict,
                 crashed_at, detect_latency: float):
        super().__init__(key, kind, nprocs, params)
        #: live view of the engine's rank -> crash-time dict
        self.crashed_at = crashed_at
        self.detect_latency = detect_latency

    @property
    def complete(self) -> bool:
        entries = self.entries
        crashed = self.crashed_at
        return all(r in entries or r in crashed for r in range(self.nprocs))

    def wake_potential(self, rank: int) -> float | None:
        if not self.complete:
            return None
        if self._base is None:
            times = [t for t, _ in self.entries.values()]
            times.extend(
                tc + self.detect_latency
                for r, tc in self.crashed_at.items()
                if r not in self.entries
            )
            self._base = max(times)
        return self._base

    def participants(self) -> list[int]:
        return sorted(self.entries)

    def straggler(self) -> tuple[int, float]:
        """Last event the agreement waited on: either the final entrant
        or the failure notification of a crashed non-entrant."""
        base = self.wake_potential(-1)
        cands = [r for r, (t, _) in self.entries.items() if t == base]
        if not cands:
            cands = [
                r for r, tc in self.crashed_at.items()
                if r not in self.entries and tc + self.detect_latency == base
            ]
        if not cands:  # float mismatch cannot happen; stay safe anyway
            cands = sorted(self.entries)
        return min(cands), base

    def _combine(self) -> list[Any]:
        ranks = self.participants()
        datas = [self.entries[r][1] for r in ranks]
        kind = self.kind
        if kind == "agree":
            red = _reduce(datas, self.params.get("op", "sum"))
            return [red] * self.nprocs
        if kind == "agree_gather":
            table = {r: d for r, d in zip(ranks, datas)}
            return [table] * self.nprocs
        raise ValueError(f"unknown agreement kind {kind!r}")

    def mark_done(self, rank: int) -> bool:
        self.done.add(rank)
        # every *entrant* has collected (crashed ranks never will)
        return self.done >= self.entries.keys()


class NeighborhoodCollective:
    """One in-flight neighborhood collective over a graph topology.

    ``adjacency`` maps every rank to its (sorted) neighbor list; the
    topology layer guarantees symmetry. A rank enters with its *lanes*:
    one item per neighbor, aligned with its own neighbor list (MPI
    neighbor_alltoall(v) buffer order), plus, for the ``v`` variant, the
    byte count of each lane.

    Host cost. An entry does the O(degree) integer readiness update and
    drops each lane (and byte count) straight into the receiver's inbox,
    at the sender's position in the receiver's list — positions the
    topology handle computed once (:attr:`DistGraphTopology.peer_slots`).
    A receiver's inbox *is* its result, so collecting costs nothing per
    lane, and no lane's contents are ever touched: a lane costs the same
    whether it carries a thousand triples or none.

    ``members`` is how many ranks take part: all of them, less the ranks
    of the topology's failure epoch, which have no neighborhood and never
    enter. The op is retired once every member has collected.
    """

    __slots__ = (
        "key",
        "kind",
        "nprocs",
        "adjacency",
        "params",
        "entries",
        "done",
        "members",
        "_pending",
        "_latest",
        "_inbox",
        "_inbytes",
    )

    def __init__(
        self,
        key: tuple[int, int],
        kind: str,
        nprocs: int,
        adjacency: list[list[int]],
        params: dict,
        members: int | None = None,
    ):
        if kind not in ("neighbor_alltoall", "neighbor_alltoallv"):
            raise ValueError(kind)
        self.key = key
        self.kind = kind
        self.nprocs = nprocs
        self.adjacency = adjacency
        self.params = params
        #: rank -> entry time
        self.entries: dict[int, float] = {}
        self.done: set[int] = set()
        self.members = nprocs if members is None else members
        # Readiness, kept incrementally: per rank r, how many members of
        # {r} ∪ N(r) have yet to enter, and the latest entry time among
        # those that have (max is exact, so this is the scan's float).
        self._pending = [len(ns) + 1 for ns in adjacency]
        self._latest = [float("-inf")] * nprocs
        # Per receiver, what each neighbor sent it, aligned with its list.
        self._inbox = [[None] * len(ns) for ns in adjacency]
        self._inbytes = (
            [[0] * len(ns) for ns in adjacency]
            if kind == "neighbor_alltoallv" else None
        )

    def enter(
        self, rank: int, time: float, data: Any, kind: str, params: dict,
        slots: Sequence[int] = (), nbytes: Sequence[int] | None = None,
    ) -> list[int]:
        """Record ``rank``'s entry; returns the neighbors whose rendezvous
        this entry completed (the only ranks whose wake potential moved).

        ``data`` is ``rank``'s lanes (``None``: nothing to deliver) and
        ``nbytes`` their byte counts; lane ``i`` goes to neighbor
        ``adjacency[rank][i]``, whose inbox keeps it at ``slots[i]``.
        """
        if kind != self.kind:
            raise CommMismatchError(
                f"collective mismatch at {self.key}: rank {rank} called {kind}, "
                f"others called {self.kind}"
            )
        if rank in self.entries:
            raise CommMismatchError(f"rank {rank} entered {self.key} twice")
        self.entries[rank] = time
        pending = self._pending
        latest = self._latest
        pending[rank] -= 1
        if time > latest[rank]:
            latest[rank] = time
        completed = []
        nbrs = self.adjacency[rank]
        for q in nbrs:
            if time > latest[q]:
                latest[q] = time
            pending[q] -= 1
            if not pending[q]:
                completed.append(q)
        inbox = self._inbox
        if nbytes is not None:
            inbytes = self._inbytes
            for q, s, x, n in zip(nbrs, slots, data, nbytes):
                inbox[q][s] = x
                inbytes[q][s] = n
        elif data is not None:
            for q, s, x in zip(nbrs, slots, data):
                inbox[q][s] = x
        return completed

    def ready_for(self, rank: int) -> bool:
        return not self._pending[rank]

    def wake_potential(self, rank: int) -> float | None:
        return None if self._pending[rank] else self._latest[rank]

    def straggler_for(self, rank: int) -> tuple[int, float]:
        """Last entrant of ``rank``'s rendezvous set ``{rank} ∪ N(rank)``
        (smallest rank on ties). Only valid once ``ready_for(rank)``."""
        base = self.wake_potential(rank)
        group = [rank, *self.adjacency[rank]]
        return min(q for q in group if self.entries[q] == base), base

    def result_for(self, rank: int) -> list[Any]:
        """Received items, aligned with ``adjacency[rank]`` order: item
        ``i`` is the lane ``adjacency[rank][i]`` sent to ``rank``. Valid
        once ``ready_for(rank)``; the list is the caller's to keep."""
        return self._inbox[rank]

    def nbytes_for(self, rank: int) -> list[int]:
        """Received lane byte counts (``v`` variant), aligned like
        :meth:`result_for`."""
        return self._inbytes[rank]

    def mark_done(self, rank: int) -> bool:
        """Record pickup; returns True once every member has collected."""
        self.done.add(rank)
        return len(self.done) == self.members

    def missing_for(self, rank: int) -> list[int]:
        """Members of ``rank``'s rendezvous set that have not entered."""
        entries = self.entries
        out = [q for q in self.adjacency[rank] if q not in entries]
        if rank not in entries:
            out.append(rank)
        return sorted(out)

    def missing_ranks(self) -> list[int]:
        """Ranks some entrant is still waiting on."""
        entries = self.entries
        waited: set[int] = set()
        for r in entries:
            waited.update(q for q in self.adjacency[r] if q not in entries)
        return sorted(waited)


CollectiveLike = FullCollective | NeighborhoodCollective


def get_or_create_full(
    ops: dict, key: tuple[int, int], kind: str, nprocs: int, params: dict
) -> FullCollective:
    op = ops.get(key)
    if op is None:
        op = FullCollective(key, kind, nprocs, params)
        ops[key] = op
    elif not isinstance(op, FullCollective):
        raise CommMismatchError(f"collective kind clash at {key}")
    return op


def get_or_create_agreement(
    ops: dict,
    key,
    kind: str,
    nprocs: int,
    params: dict,
    crashed_at,
    detect_latency: float,
) -> AgreementCollective:
    op = ops.get(key)
    if op is None:
        op = AgreementCollective(key, kind, nprocs, params, crashed_at, detect_latency)
        ops[key] = op
    elif not isinstance(op, AgreementCollective):
        raise CommMismatchError(f"collective kind clash at {key}")
    return op


def get_or_create_neighborhood(
    ops: dict,
    key: tuple[int, int],
    kind: str,
    nprocs: int,
    adjacency: list[list[int]],
    params: dict,
    members: int | None = None,
) -> NeighborhoodCollective:
    op = ops.get(key)
    if op is None:
        op = NeighborhoodCollective(key, kind, nprocs, adjacency, params, members)
        ops[key] = op
    elif not isinstance(op, NeighborhoodCollective):
        raise CommMismatchError(f"collective kind clash at {key}")
    return op
