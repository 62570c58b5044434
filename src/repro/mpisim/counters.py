"""Per-rank and per-run instrumentation.

Every simulated communication operation updates these counters natively —
this is the simulator's replacement for the TAU / CrayPat profiling the
paper used, and it is what the communication-matrix figures (Figs. 2, 9,
11) and the energy/memory table (Table VIII) are generated from.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RankCounters:
    """Counters for one rank."""

    rank: int

    # op counts
    sends: int = 0
    recvs: int = 0
    probes: int = 0
    puts: int = 0
    gets: int = 0
    flushes: int = 0
    collectives: int = 0
    neighbor_collectives: int = 0

    # byte volumes (payload bytes, excluding simulated headers)
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_put: int = 0
    bytes_collective: int = 0

    # time split (virtual seconds)
    compute_time: float = 0.0
    comm_time: float = 0.0
    idle_time: float = 0.0

    # memory accounting (bytes)
    allocations: dict[str, int] = field(default_factory=dict)
    current_bytes: int = 0
    peak_bytes: int = 0
    free_underflows: int = 0  #: frees exceeding the label's balance
    underflow_bytes: int = 0  #: bytes those frees over-released

    # transient transport state
    pending_inflight: int = 0
    peak_inflight: int = 0

    # fault injection / recovery (all zero in a fault-free run)
    msgs_dropped: int = 0  #: messages this rank sent that the network lost
    msgs_duplicated: int = 0  #: messages delivered twice
    msgs_delayed: int = 0  #: message copies that picked up extra delay
    crash_blackholed: int = 0  #: sends addressed to an already-dead rank
    retransmits: int = 0  #: reliable-channel resends after an ack timeout
    #: (a triple under nsr, a whole batch under nsr-agg)
    dup_suppressed: int = 0  #: duplicate deliveries discarded by dedup
    acks_sent: int = 0  #: reliable-channel acknowledgment messages
    abandoned: int = 0  #: unacked messages given up after max retries
    puts_dropped: int = 0  #: one-sided puts the network silently lost
    puts_corrupted: int = 0  #: one-sided puts that landed bit-flipped
    put_retries: int = 0  #: puts reissued after a failed checksum verify
    msgs_partitioned: int = 0  #: sends swallowed by an active partition window
    partition_deferrals: int = 0  #: retries deferred (not burned) while the
    #: destination was unreachable through a partition
    spurious_detections: int = 0  #: ranks renounced as dead that the fault
    #: plan never crashed (must stay zero: a healed partition is not a death)

    # message aggregation (repro.mpisim.aggregate; zero when unused)
    agg_msgs_coalesced: int = 0  #: small messages that rode in a batch
    agg_batches: int = 0  #: aggregated wire messages sent
    agg_batch_bytes: int = 0  #: wire bytes of those batches (payload+framing)
    agg_bytes_saved: int = 0  #: envelope bytes not sent vs one-per-message
    agg_msgs_delivered: int = 0  #: coalesced messages unpacked at this rank
    agg_batches_received: int = 0  #: batches unpacked at this rank
    agg_dropped_dead: int = 0  #: buffered messages discarded because the
    #: destination rank was detected dead before the flush
    persistent_starts: int = 0  #: MPI_Start calls on persistent requests

    def alloc(self, nbytes: int, label: str = "misc") -> None:
        nbytes = int(nbytes)
        self.allocations[label] = self.allocations.get(label, 0) + nbytes
        self.current_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def free(self, nbytes: int, label: str = "misc") -> None:
        """Release bytes previously registered under ``label``.

        A free exceeding the label's outstanding balance (double-free or
        mislabeled free — e.g. a duplicated message releasing the same
        send request twice) is clamped at zero instead of silently
        driving ``current_bytes`` negative, and counted in
        ``free_underflows`` / ``underflow_bytes``.
        """
        nbytes = int(nbytes)
        have = self.allocations.get(label, 0)
        if nbytes > have:
            self.free_underflows += 1
            self.underflow_bytes += nbytes - have
            self.allocations[label] = 0
            self.current_bytes -= have
        else:
            self.allocations[label] = have - nbytes
            self.current_bytes -= nbytes

    def note_inflight(self, delta: int) -> None:
        self.pending_inflight += delta
        self.peak_inflight = max(self.peak_inflight, self.pending_inflight)

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time + self.idle_time

    def comm_fraction(self) -> float:
        """Fraction of active+idle time spent in MPI (the paper's 'MPI %')."""
        total = self.total_time
        if total <= 0.0:
            return 0.0
        return (self.comm_time + self.idle_time) / total


class CommMatrix:
    """Message counts and bytes per (sender, receiver) pair, stored
    sparsely: what a run holds is proportional to the pairs that
    exchanged something, not to ``nprocs**2``.

    ``counts`` / ``bytes`` are dense ``(nprocs, nprocs)`` int64 views
    built on demand (row = sender, column = receiver — the orientation of
    the paper's TAU plots, "vertical axis represents the sender process
    ids"); they are for plotting and tests, never read on the run path.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        #: ``src * nprocs + dst`` -> slot in the two columns below; slots
        #: are numbered in insertion order
        self._messages: dict[int, int] = {}
        self._counts = array("q")  #: messages per slot
        self._volume = array("q")  #: bytes per slot
        #: ``src`` -> ``[(dsts, messages, bytes), ...]``, one lane per
        #: neighbour array that rank has passed to :meth:`record_row`
        self._lanes: dict[int, list[tuple]] = {}

    def record(self, src: int, dst: int, nbytes: int, count: int = 1) -> None:
        """``count`` messages of ``nbytes`` each from ``src`` to ``dst``."""
        n = self.nprocs
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"pair ({src}, {dst}) outside {n} ranks")
        key = src * n + dst
        slot = self._messages.get(key)
        if slot is None:
            self._messages[key] = len(self._counts)
            self._counts.append(count)
            self._volume.append(count * int(nbytes))
        else:
            self._counts[slot] += count
            self._volume[slot] += count * int(nbytes)

    def record_row(self, src: int, dsts: np.ndarray, nbytes) -> None:
        """One message from ``src`` to each of ``dsts`` (distinct ranks,
        as an index array) carrying ``nbytes[i]``: :meth:`record` over
        the pairs, in one vectorised add on a lane of ``len(dsts)``."""
        for lane in self._lanes.get(src, ()):
            if lane[0] is dsts:
                break
        else:
            lane = self._lane(src, dsts)
        _, messages, volume = lane
        messages += 1
        volume += np.asarray(nbytes, dtype=np.int64)

    def _lane(self, src: int, dsts: np.ndarray) -> tuple:
        """The lane of ``src`` for a neighbour array first seen by
        identity: an equal array's lane re-keyed to ``dsts``, or a new
        one."""
        n = self.nprocs
        if not 0 <= src < n or (
            len(dsts) and not (0 <= dsts.min() and dsts.max() < n)
        ):
            raise IndexError(f"row {src} -> {dsts} outside {n} ranks")
        lanes = self._lanes.setdefault(src, [])
        for i, (known, messages, volume) in enumerate(lanes):
            if np.array_equal(known, dsts):
                lanes[i] = lane = (dsts, messages, volume)
                return lane
        lane = (dsts, np.zeros(len(dsts), np.int64), np.zeros(len(dsts), np.int64))
        lanes.append(lane)
        return lane

    def _parts(self):
        """Raw ``(keys, messages, bytes)`` array triples — the pairs,
        then each lane — with ``key = src * nprocs + dst``."""
        yield (
            np.fromiter(self._messages, np.int64, len(self._messages)),
            np.array(self._counts, dtype=np.int64),
            np.array(self._volume, dtype=np.int64),
        )
        for src, lanes in self._lanes.items():
            for dsts, messages, volume in lanes:
                yield src * self.nprocs + dsts, messages, volume

    def _coo(self, *others: "CommMatrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, messages, bytes)`` over the pairs recorded here (and
        in ``others``), keys ascending and unique — the canonical form:
        a function of what was recorded, not of how or in what order."""
        parts = [part for mat in (self, *others) for part in mat._parts()]
        raw_keys, messages, volume = (np.concatenate(col) for col in zip(*parts))
        keys, inverse = np.unique(raw_keys, return_inverse=True)
        out = np.zeros((2, len(keys)), dtype=np.int64)
        np.add.at(out[0], inverse, messages)
        np.add.at(out[1], inverse, volume)
        return keys, out[0], out[1]

    def _dense(self, which: int) -> np.ndarray:
        coo = self._coo()
        out = np.zeros(self.nprocs * self.nprocs, dtype=np.int64)
        out[coo[0]] = coo[which]
        out.flags.writeable = False
        return out.reshape(self.nprocs, self.nprocs)

    @property
    def counts(self) -> np.ndarray:
        """Dense read-only message-count matrix, built per access."""
        return self._dense(1)

    @property
    def bytes(self) -> np.ndarray:
        """Dense read-only byte matrix, built per access."""
        return self._dense(2)

    def __getstate__(self) -> tuple:
        # What a checkpoint cut pickles: the canonical triple, so equal
        # histories give equal bytes whatever mix of record / record_row
        # / restore produced them.
        return (self.nprocs, *self._coo())

    def __setstate__(self, state: tuple) -> None:
        self.nprocs, keys, messages, volume = state
        self._messages = dict(zip(keys.tolist(), range(len(keys))))
        self._counts = array("q", np.asarray(messages, dtype=np.int64).tobytes())
        self._volume = array("q", np.asarray(volume, dtype=np.int64).tobytes())
        self._lanes = {}

    def merged_with(self, other: "CommMatrix") -> "CommMatrix":
        out = CommMatrix(self.nprocs)
        out.__setstate__((self.nprocs, *self._coo(other)))
        return out

    def nonzero_fraction(self) -> float:
        """Fraction of (src, dst) pairs that exchanged at least one message."""
        n = self.nprocs
        off_diag = n * n - n
        if off_diag == 0:
            return 0.0
        keys, messages, _ = self._coo()
        nz = np.count_nonzero((messages != 0) & (keys // n != keys % n))
        return int(nz) / off_diag

    def total_messages(self) -> int:
        return sum(int(messages.sum()) for _, messages, _ in self._parts())

    def total_bytes(self) -> int:
        return sum(int(volume.sum()) for _, _, volume in self._parts())


@dataclass
class RunCounters:
    """Aggregated instrumentation for a whole engine run."""

    nprocs: int
    ranks: list[RankCounters] = field(default_factory=list)
    p2p: CommMatrix | None = None  # two-sided traffic
    rma: CommMatrix | None = None  # one-sided traffic
    ncl: CommMatrix | None = None  # neighborhood-collective traffic

    def __post_init__(self) -> None:
        if not self.ranks:
            self.ranks = [RankCounters(r) for r in range(self.nprocs)]
        if self.p2p is None:
            self.p2p = CommMatrix(self.nprocs)
        if self.rma is None:
            self.rma = CommMatrix(self.nprocs)
        if self.ncl is None:
            self.ncl = CommMatrix(self.nprocs)

    # convenience aggregates -------------------------------------------------
    def total(self, attr: str) -> float:
        return sum(getattr(rc, attr) for rc in self.ranks)

    def fault_totals(self) -> dict[str, int]:
        """Run-wide fault/recovery event counts (all zero when fault-free)."""
        return {
            attr: int(self.total(attr))
            for attr in (
                "msgs_dropped",
                "msgs_duplicated",
                "msgs_delayed",
                "crash_blackholed",
                "retransmits",
                "dup_suppressed",
                "acks_sent",
                "abandoned",
                "puts_dropped",
                "puts_corrupted",
                "put_retries",
                "msgs_partitioned",
                "partition_deferrals",
                "spurious_detections",
            )
        }

    def aggregation_totals(self) -> dict[str, int]:
        """Run-wide message-aggregation counter sums (zero when unused)."""
        return {
            attr: int(self.total(attr))
            for attr in (
                "agg_msgs_coalesced",
                "agg_batches",
                "agg_batch_bytes",
                "agg_bytes_saved",
                "agg_msgs_delivered",
                "agg_batches_received",
                "agg_dropped_dead",
                "persistent_starts",
            )
        }

    def max_peak_memory(self) -> int:
        return max((rc.peak_bytes for rc in self.ranks), default=0)

    def avg_peak_memory(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(rc.peak_bytes for rc in self.ranks) / len(self.ranks)

    def combined_matrix(self) -> CommMatrix:
        """All traffic regardless of model (for like-for-like volume plots)."""
        return self.p2p.merged_with(self.rma).merged_with(self.ncl)

    def time_split(self) -> tuple[float, float, float]:
        """(compute, comm, idle) summed over ranks."""
        return (
            self.total("compute_time"),
            self.total("comm_time"),
            self.total("idle_time"),
        )
