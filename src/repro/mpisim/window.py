"""MPI-3 RMA windows with passive-target one-sided communication.

Semantics follow the subset of MPI-3 RMA the paper's implementation uses:

* ``win_allocate`` (collective) exposes a per-rank numpy buffer;
* ``put`` / ``accumulate`` issue one-sided transfers to a target region —
  the *origin* specifies all parameters, the target's CPU is not involved;
* ``flush_all`` completes the origin's outstanding operations (passive
  target synchronization, as the paper uses — not fences);
* the target observes incoming data by *polling its own window*
  (:meth:`Window.sync_local_g`), which applies every transfer whose network
  arrival time has passed the target's local clock.

Visibility timing: a put issued at origin time ``t`` becomes visible at
the target at ``t + o_put + alpha + bytes*beta`` (plus NIC serialization).
A ``flush_all`` advances the origin past all of its outstanding completion
times, so the paper's "flush, exchange counts, read window" iteration
observes fully consistent data — the counts exchange is a neighborhood
collective whose completion dominates every flushed put's arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np


@dataclass(slots=True)
class _PendingUpdate:
    arrival: float
    seq: int
    offset: int
    data: np.ndarray
    accumulate: bool = False


#: the order transfers land in: network arrival, then issue sequence
_ARRIVAL_ORDER = attrgetter("arrival", "seq")


@dataclass
class _WindowStore:
    """State shared by all ranks' facades of one window allocation."""

    win_id: int
    dtype: np.dtype
    buffers: list[np.ndarray]
    pending: list[list[_PendingUpdate]] = field(default_factory=list)
    seq: int = 0

    def __post_init__(self) -> None:
        if not self.pending:
            self.pending = [[] for _ in self.buffers]


class Window:
    """Per-rank facade over a collectively allocated RMA window."""

    def __init__(self, ctx, store: _WindowStore):
        self._ctx = ctx
        self._store = store
        self.rank = ctx.rank
        self.win_id = store.win_id

    # ------------------------------------------------------------------
    @property
    def local(self) -> np.ndarray:
        """This rank's exposed buffer (call :meth:`sync_local_g` first to
        apply transfers that have physically arrived)."""
        return self._store.buffers[self.rank]

    def size_of(self, rank: int) -> int:
        return int(self._store.buffers[rank].size)

    # ------------------------------------------------------------------
    # ``data`` is an array or any sequence of numbers (a tuple of ints is
    # the cheapest); either way the transfer carries its own int64 copy.
    # Plain functions returning the generator: one frame less per put.
    def put_g(self, target: int, data, target_offset: int):
        """One-sided write of ``data`` into ``target``'s window region."""
        return self._issue_g(target, data, target_offset, accumulate=False)

    def accumulate_g(self, target: int, data, target_offset: int):
        """One-sided element-wise sum into the target region (MPI_SUM)."""
        return self._issue_g(target, data, target_offset, accumulate=True)

    def _issue_g(self, target: int, data, target_offset: int, accumulate: bool):
        ctx = self._ctx
        eng = ctx._engine
        store = self._store
        # The one array of this transfer: what a pending update holds.
        data = np.array(data, dtype=store.dtype, order="C")
        if target_offset < 0 or target_offset + data.size > store.buffers[target].size:
            raise IndexError(
                f"put outside window: offset {target_offset}+{data.size} "
                f"> size {store.buffers[target].size} (target {target})"
            )
        if not eng.keep_running(self.rank):
            yield from eng.yield_ready_g(self.rank)
        m = eng.machine
        nbytes = int(data.nbytes)
        eng.charge_comm(self.rank, m.put_origin_cost(nbytes), phase="put")
        arrival = eng.post_message(
            self.rank,
            target,
            tag=-2,
            payload=None,
            nbytes=nbytes,
            one_sided=True,
            matrix=eng.counters.rma,
            deliver=False,
        )
        rc = self._ctx.counters()
        plan = eng.faults
        fate = "ok"
        fate_idx = 0
        if plan is not None and plan.has_rma_faults():
            # Timing (origin cost, NIC serialization, flush completion) is
            # charged identically for every fate: a dropped RDMA write
            # still consumed the wire, it just never landed.
            fate_idx = eng.resilience.next_put_index()
            fate = plan.put_fate(self.rank, target, fate_idx)
        if fate == "drop":
            rc.puts_dropped += 1
            eng.trace_event(self.rank, "put-drop", target=target, nbytes=nbytes)
        else:
            payload = data
            if fate == "corrupt":
                pos, mask = plan.corrupt_word(
                    self.rank, target, fate_idx, payload.size
                )
                payload[pos] = payload.dtype.type(int(payload[pos]) ^ mask)
                rc.puts_corrupted += 1
                eng.trace_event(self.rank, "put-corrupt", target=target, nbytes=nbytes)
            store.seq += 1
            store.pending[target].append(
                _PendingUpdate(arrival, store.seq, int(target_offset), payload, accumulate)
            )
        eng.note_put(self.rank, self.win_id, arrival)
        rc.puts += 1
        rc.bytes_put += nbytes
        rc.note_inflight(+1)
        if eng.trace is not None:  # the hottest event: skip even its kwargs
            eng.trace_event(self.rank, "put", target=target, nbytes=nbytes,
                            accumulate=accumulate)

    # ------------------------------------------------------------------
    def flush_all_g(self):
        """Complete all outstanding one-sided operations from this origin."""
        ctx = self._ctx
        eng = ctx._engine
        if not eng.keep_running(self.rank):
            yield from eng.yield_ready_g(self.rank)
        rc = self._ctx.counters()
        latest = eng.flush_window(self.rank, self.win_id)
        now = self._ctx.now
        if latest > now:
            # DMA completion wait is communication time, not idle time.
            eng.charge_comm(self.rank, latest - now, phase="flush")
        eng.charge_comm(self.rank, eng.machine.o_flush, phase="flush")
        rc.flushes += 1
        rc.pending_inflight = 0
        eng.trace_event(self.rank, "flush", win=self.win_id)

    # ------------------------------------------------------------------
    def sync_local_g(self):
        """Apply every arrived transfer to the local buffer.

        Returns the number of transfers applied. Transfers are applied in
        (arrival, issue-seq) order so overlapping writes resolve exactly as
        the network delivered them.
        """
        ctx = self._ctx
        eng = ctx._engine
        if not eng.keep_running(self.rank):
            yield from eng.yield_ready_g(self.rank)
        eng.charge_comm(self.rank, eng.machine.o_win_sync, phase="sync")
        now = self._ctx.now
        pend = self._store.pending[self.rank]
        if not pend:
            return 0
        pend.sort(key=_ARRIVAL_ORDER)
        buf = self._store.buffers[self.rank]
        applied = 0
        for u in pend:
            if u.arrival > now:
                break
            if u.accumulate:
                buf[u.offset : u.offset + u.data.size] += u.data
            else:
                buf[u.offset : u.offset + u.data.size] = u.data
            applied += 1
        if applied:
            del pend[:applied]
        return applied

    def get_g(self, target: int, target_offset: int, count: int):
        """One-sided read of the target region (round-trip at the origin).

        Reads the region as of this origin's completion time, overlaying
        (without consuming) pending transfers that have arrived by then.
        Concurrent target-local stores are a data race, exactly as in MPI.
        """
        ctx = self._ctx
        eng = ctx._engine
        if not eng.keep_running(self.rank):
            yield from eng.yield_ready_g(self.rank)
        m = eng.machine
        store = self._store
        if target_offset < 0 or target_offset + count > store.buffers[target].size:
            raise IndexError(
                f"get outside window: offset {target_offset}+{count} "
                f"> size {store.buffers[target].size} (target {target})"
            )
        nbytes = int(count * store.dtype.itemsize)
        eng.charge_comm(
            self.rank,
            m.o_get + 2 * m.alpha + m.wire_bytes(nbytes, True) * m.beta,
            phase="get",
        )
        rc = self._ctx.counters()
        rc.gets += 1
        eng.counters.rma.record(target, self.rank, nbytes)
        now = self._ctx.now
        region = store.buffers[target][target_offset : target_offset + count].copy()
        for u in sorted(store.pending[target], key=_ARRIVAL_ORDER):
            if u.arrival > now:
                break
            lo = max(u.offset, target_offset)
            hi = min(u.offset + u.data.size, target_offset + count)
            if lo < hi:
                src = u.data[lo - u.offset : hi - u.offset]
                if u.accumulate:
                    region[lo - target_offset : hi - target_offset] += src
                else:
                    region[lo - target_offset : hi - target_offset] = src
        return region

    def free(self) -> None:
        """Release the memory-accounting charge for the local region."""
        rc = self._ctx.counters()
        rc.free(self.local.nbytes, "rma-window")
