"""Persistent requests and message aggregation over the p2p substrate.

The paper attributes much of NCL's advantage over Send-Recv to
*aggregation*: one neighborhood exchange replaces thousands of tiny
per-edge messages, amortizing the per-message software overhead that
dominates the small-message regime (MPI Advance makes the same move as a
portable library layer above MPI). This module provides that capability
independently of the collective machinery, so aggregation can be studied
— and charged under the machine model — on its own:

* :class:`PersistentSendRequest` / :class:`RecvRequest` — the simulated
  analogue of ``MPI_Send_init`` / ``MPI_Start`` / ``MPI_Irecv`` /
  ``MPI_Waitall``. A persistent send pays the envelope-construction cost
  once (``machine.o_send_init``) and a cheaper ``o_send_start`` per
  message, instead of the full ``o_send`` every time.
* :class:`MessageAggregator` — coalesces same-destination small messages
  into batched wire messages. A batch is charged as **one** envelope
  (``machine.header_bytes``) plus the concatenated payloads plus one
  small framing word per coalesced message, so the eager/rendezvous
  crossover and NIC injection serialization see the batch exactly as a
  real packed buffer. Flush policy: byte threshold, message-count
  threshold, and explicit flushes at iteration boundaries.

Everything is crash-aware: messages buffered for a destination whose
failure has been detected are dropped and reported in the per-rank
``agg_dropped_dead`` counter instead of raising mid-flush.

Reliability is composed, not reimplemented: an aggregator built with a
:class:`~repro.mpisim.reliable.ReliableChannel` ships each flushed batch
as one DATA message of that channel, which sequences, acknowledges,
retransmits and deduplicates it like any other. That is what lets the
``nsr-agg`` backend accept drop/duplicate/delay fault plans: a lost
batch is retransmitted whole, a duplicated batch is delivered once.

All batching decisions are deterministic (thresholds in virtual-time
order; ``flush_all_g`` ships every non-empty lane, in ascending
destination order), so aggregated runs are bit-reproducible like
everything else in the simulator.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.mpisim.message import ANY_SOURCE, ANY_TAG, Message

if TYPE_CHECKING:
    from repro.mpisim.reliable import ReliableChannel

#: MPI tag carrying aggregated batches (chosen clear of the matching
#: contexts 1..4 and the reliable-channel tags 100/101)
AGG_TAG = 140


class PersistentSendRequest:
    """A prebuilt send channel to one destination (``MPI_Send_init``).

    Created via :meth:`RankContext.send_init_g`; each :meth:`start_g` ships
    one payload with the amortized ``o_send_start`` overhead. In the
    simulator's eager model a started send completes locally, so
    :meth:`wait_g` never blocks — it exists so ``waitall_g`` can treat send
    and receive requests uniformly.
    """

    __slots__ = ("ctx", "dest", "tag", "starts", "last_arrival")

    def __init__(self, ctx, dest: int, tag: int = 0):
        self.ctx = ctx
        self.dest = dest
        self.tag = tag
        self.starts = 0
        self.last_arrival = 0.0

    def start_g(self, payload: Any, nbytes: int | None = None):
        """Start the request with ``payload``; returns the arrival time."""
        arrival = yield from self.ctx.isend_g(
            self.dest, payload, tag=self.tag, nbytes=nbytes, _persistent=True
        )
        self.starts += 1
        self.last_arrival = arrival
        return arrival

    def wait_g(self):
        """Eager-protocol completion: already done; returns last arrival."""
        yield from ()
        return self.last_arrival


class RecvRequest:
    """A posted nonblocking receive (``MPI_Irecv``).

    ``test_g`` completes the receive if a matching message has physically
    arrived; ``wait_g`` blocks (fast-forwarding the virtual clock) until
    one does. The delivered :class:`Message` is cached, so ``wait_g``
    after a successful ``test_g`` is free.
    """

    __slots__ = ("ctx", "source", "tag", "_msg")

    def __init__(self, ctx, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self.ctx = ctx
        self.source = source
        self.tag = tag
        self._msg: Message | None = None

    @property
    def complete(self) -> bool:
        return self._msg is not None

    def test_g(self):
        """Nonblocking completion attempt (``MPI_Test``)."""
        if self._msg is None:
            if (yield from self.ctx.iprobe_g(self.source, self.tag)) is not None:
                self._msg = yield from self.ctx.recv_g(self.source, self.tag)
        return self._msg

    def wait_g(self):
        """Blocking completion (``MPI_Wait``)."""
        if self._msg is None:
            self._msg = yield from self.ctx.recv_g(self.source, self.tag)
        return self._msg


def waitall_g(requests: Iterable[PersistentSendRequest | RecvRequest]):
    """Complete every request in order; returns each request's result.

    Send requests yield their arrival time, receive requests the
    delivered :class:`Message` — the uniform completion call the MPI-style
    API promises (also available as ``ctx.waitall_g``).
    """
    results = []
    for r in requests:
        results.append((yield from r.wait_g()))
    return results


class _Lane:
    """Sender-side buffer of coalesced messages for one destination."""

    __slots__ = ("entries", "payload_bytes", "request")

    def __init__(self):
        self.entries: list[tuple[int, Any]] = []  # (user_tag, payload)
        self.payload_bytes = 0
        self.request: PersistentSendRequest | None = None


class MessageAggregator:
    """Coalesce same-destination small messages into batched wire messages.

    Owner-driven, like :class:`~repro.mpisim.reliable.ReliableChannel`::

        agg = ctx.aggregator(flush_count=64)
        yield from agg.append_g(dst, tag, payload, nbytes)  # not isend_g
        yield from agg.flush_all_g()            # iteration boundary
        yield from agg.poll_g(handler)          # instead of iprobe+recv

    ``handler(src, user_tag, payload)`` sees each coalesced message
    exactly once, in per-source append order (batches preserve order and
    the p2p substrate is non-overtaking).

    Flush policy: a lane is auto-flushed the moment its buffered payload
    reaches ``flush_bytes`` or its message count reaches ``flush_count``
    (whichever first; ``None`` disables that trigger), and explicitly via
    :meth:`flush_g` / :meth:`flush_all_g` at iteration boundaries.

    Each batch travels as one wire message: ``header_bytes`` once, plus
    every payload, plus ``machine.agg_submsg_header_bytes`` of framing
    per coalesced message — so NIC serialization and the eager/rendezvous
    protocol switch see exactly what a real packed buffer would present.
    Packing and unpacking charge ``machine.pack_byte_cost`` per payload
    byte under the ``pack`` profiler phase.

    Without a ``channel`` a batch is started on the lane's persistent
    request under :data:`AGG_TAG`. With one, it is one DATA message of
    ``channel.send_g`` carrying ``(entries, payload_bytes)``; the channel
    adds its sequence header and owns acks, retransmission (its
    ``service_g``) and duplicate suppression, and :meth:`poll_g` receives
    through ``channel.poll_g``.
    """

    def __init__(
        self,
        ctx,
        *,
        flush_bytes: int | None = None,
        flush_count: int | None = None,
        channel: ReliableChannel | None = None,
    ):
        if flush_bytes is not None and flush_bytes <= 0:
            raise ValueError("flush_bytes must be positive or None")
        if flush_count is not None and flush_count <= 0:
            raise ValueError("flush_count must be positive or None")
        self.ctx = ctx
        self.flush_bytes = flush_bytes
        self.flush_count = flush_count
        self.channel = channel
        self._lanes: dict[int, _Lane] = {}
        # non-empty lanes and their totals: flushes and counts pay for
        # the lanes with data, not for every lane ever opened
        self._dirty: set[int] = set()
        self._pending_msgs = 0
        self._pending_bytes = 0

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def append_g(self, dest: int, tag: int, payload: Any, nbytes: int):
        """Buffer one small message for ``dest``; may auto-flush the lane."""
        if self.ctx.is_failed(dest):
            rc = self.ctx.counters()
            rc.agg_dropped_dead += 1
            return
        lane = self._lanes.get(dest)
        if lane is None:
            lane = self._lanes[dest] = _Lane()
        if not lane.entries:
            self._dirty.add(dest)
        lane.entries.append((tag, payload))
        nbytes = int(nbytes)
        lane.payload_bytes += nbytes
        self._pending_msgs += 1
        self._pending_bytes += nbytes
        if (
            self.flush_count is not None and len(lane.entries) >= self.flush_count
        ) or (
            self.flush_bytes is not None and lane.payload_bytes >= self.flush_bytes
        ):
            yield from self.flush_g(dest)

    def flush_g(self, dest: int):
        """Ship ``dest``'s buffered messages as one batch.

        Returns the number of coalesced messages shipped (0 for an empty
        lane — an empty flush sends nothing and counts nothing). If the
        destination's failure has been detected by now, the buffer is
        dropped and reported instead.
        """
        if dest not in self._dirty:
            return 0
        entries, payload_bytes = self._take(dest)
        ctx = self.ctx
        eng = ctx._engine
        rc = ctx.counters()
        k = len(entries)
        if ctx.is_failed(dest):
            rc.agg_dropped_dead += k
            eng.trace_event(ctx.rank, "agg-drop", dest=dest, msgs=k)
            return 0
        m = ctx.machine
        wire = payload_bytes + k * m.agg_submsg_header_bytes
        # Packing the batch buffer is real sender-side work.
        if m.pack_byte_cost > 0.0:
            eng.charge_comm(ctx.rank, m.pack_byte_cost * payload_bytes,
                            phase="pack")
        if self.channel is not None:
            yield from self.channel.send_g(
                dest, AGG_TAG, (entries, payload_bytes), wire)
        else:
            lane = self._lanes[dest]
            if lane.request is None:
                lane.request = yield from ctx.send_init_g(dest, tag=AGG_TAG)
            yield from lane.request.start_g(entries, nbytes=wire)
        rc.agg_msgs_coalesced += k
        rc.agg_batches += 1
        rc.agg_batch_bytes += wire
        # Envelope bytes an unaggregated sender would have paid, minus the
        # framing the batch adds (can go negative for degenerate k=1
        # batches — honest accounting, not clamped).
        rc.agg_bytes_saved += (k - 1) * m.header_bytes \
            - k * m.agg_submsg_header_bytes
        if eng.trace is not None:
            eng.trace_event(ctx.rank, "agg-flush", dest=dest, msgs=k, nbytes=wire)
        return k

    def flush_all_g(self):
        """Iteration-boundary flush of every non-empty lane, in ascending
        destination order."""
        shipped = 0
        for dest in sorted(self._dirty):
            shipped += yield from self.flush_g(dest)
        self._dirty.clear()  # empty already; this also frees its grown table
        return shipped

    def _take(self, dest: int) -> tuple[tuple, int]:
        """Empty ``dest``'s non-empty lane; returns its entries and bytes."""
        lane = self._lanes[dest]
        entries, nbytes = tuple(lane.entries), lane.payload_bytes
        lane.entries = []
        lane.payload_bytes = 0
        self._dirty.discard(dest)
        self._pending_msgs -= len(entries)
        self._pending_bytes -= nbytes
        return entries, nbytes

    def drop_rank(self, rank: int) -> int:
        """Discard the lane for a crashed peer; returns messages dropped.

        Unacknowledged batches to the peer are the channel's to discard
        (its ``on_rank_failed``).
        """
        if rank not in self._dirty:
            self._lanes.pop(rank, None)
            return 0
        k = len(self._take(rank)[0])
        del self._lanes[rank]
        rc = self.ctx.counters()
        rc.agg_dropped_dead += k
        self.ctx._engine.trace_event(self.ctx.rank, "agg-drop", dest=rank, msgs=k)
        return k

    # ------------------------------------------------------------------
    # checkpoint capture/restore (engine pickles the returned tree)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregator state for a coordinated checkpoint.

        Lanes are captured without their :class:`PersistentSendRequest`
        (it holds a context reference); the request's amortization state
        ``(starts, last_arrival)`` rides along so restore can rebuild it
        without re-charging ``o_send_init``. The non-empty set and the
        totals are not captured: restore derives them from the lanes. A
        channel is its owner's to capture.
        """
        lanes = {
            dest: {
                "entries": list(lane.entries),
                "payload_bytes": lane.payload_bytes,
                "request": None
                if lane.request is None
                else (lane.request.starts, lane.request.last_arrival),
            }
            for dest, lane in self._lanes.items()
        }
        return {"lanes": lanes}

    def restore(self, blob: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot` (resume path)."""
        self._lanes = {}
        self._dirty = set()
        self._pending_msgs = self._pending_bytes = 0
        for dest, ls in blob["lanes"].items():
            lane = _Lane()
            lane.entries = list(ls["entries"])
            lane.payload_bytes = ls["payload_bytes"]
            if lane.entries:
                self._dirty.add(dest)
                self._pending_msgs += len(lane.entries)
                self._pending_bytes += lane.payload_bytes
            if ls["request"] is not None:
                req = PersistentSendRequest(self.ctx, dest, AGG_TAG)
                req.starts, req.last_arrival = ls["request"]
                lane.request = req
            self._lanes[dest] = lane

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_messages(self, dest: int | None = None) -> int:
        """Buffered-but-unflushed message count (one lane or all)."""
        if dest is not None:
            lane = self._lanes.get(dest)
            return 0 if lane is None else len(lane.entries)
        return self._pending_msgs

    def pending_bytes(self, dest: int | None = None) -> int:
        if dest is not None:
            lane = self._lanes.get(dest)
            return 0 if lane is None else lane.payload_bytes
        return self._pending_bytes

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def poll_g(self, handler: Callable[[int, int, Any], None]):
        """Unpack every arrived batch; returns coalesced messages delivered.

        The receiver pays one ``o_recv`` per *batch* (charged by the
        underlying ``recv``) plus the per-byte unpack cost — this is the
        software saving aggregation exists for.
        """
        ctx = self.ctx
        rc = ctx.counters()
        before = rc.agg_msgs_delivered
        if self.channel is not None:
            yield from self.channel.poll_g(
                lambda src, _tag, batch: self._deliver_g(src, *batch, handler))
            return rc.agg_msgs_delivered - before
        framing = ctx.machine.agg_submsg_header_bytes
        while True:
            msg = yield from ctx.iprobe_g(tag=AGG_TAG, receive=True)
            if msg is None:
                return rc.agg_msgs_delivered - before
            entries = msg.payload
            yield from self._deliver_g(
                msg.src, entries, msg.nbytes - len(entries) * framing, handler)

    def _deliver_g(
        self,
        src: int,
        entries: Sequence[tuple[int, Any]],
        payload_bytes: int,
        handler: Callable[[int, int, Any], None],
    ):
        """Unpack one batch and hand each coalesced message up."""
        ctx = self.ctx
        m = ctx.machine
        if m.pack_byte_cost > 0.0 and payload_bytes > 0:
            ctx._engine.charge_comm(ctx.rank, m.pack_byte_cost * payload_bytes,
                                    phase="pack")
        rc = ctx.counters()
        rc.agg_batches_received += 1
        rc.agg_msgs_delivered += len(entries)
        for user_tag, payload in entries:
            # A generator-style handler may itself park
            # — e.g. when handling triggers a reply send; drive it inline.
            res = handler(src, user_tag, payload)
            if isinstance(res, GeneratorType):
                yield from res
