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

With ``reliable=True`` the aggregator additionally runs its own
batch-level ack/retry protocol (per-destination sequence numbers, batch
acknowledgments under ``AGG_ACK_TAG``, timeout + capped-exponential
retransmission in virtual time, and receiver-side duplicate suppression
with in-order release) — the batched analogue of
:class:`~repro.matching.reliable.ReliableChannel`. This is what lets the
``nsr-agg`` backend accept drop/duplicate/delay fault plans: a lost
batch is retransmitted whole, a duplicated batch is delivered once.

All batching decisions are deterministic (thresholds in virtual-time
order, ``flush_all`` in sorted destination order, retransmission
deadlines in pure virtual time), so aggregated runs are bit-reproducible
like everything else in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Callable, Iterable, Sequence

from repro.mpisim.errors import RetryExhausted
from repro.mpisim.message import ANY_SOURCE, ANY_TAG, Message

#: default MPI tag carrying aggregated batches (chosen clear of the
#: matching contexts 1..4 and the reliable-channel tags 100/101)
AGG_TAG = 140
#: MPI tag carrying batch acknowledgments in reliable mode
AGG_ACK_TAG = 141

#: wire size of one batch ack: acknowledged seq + minimal envelope
AGG_ACK_BYTES = 16
#: extra per-batch header in reliable mode: the lane sequence number
AGG_SEQ_HEADER_BYTES = 8


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
        arrival = yield from self.ctx._post_send_g(
            self.dest, payload, self.tag, nbytes, persistent=True
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


@dataclass
class _PendingBatch:
    """One sent-but-unacknowledged batch (reliable mode)."""

    dest: int
    seq: int
    entries: tuple[tuple[int, Any], ...]
    nbytes: int  # wire bytes (payloads + framing + seq header)
    deadline: float  # virtual time of the next retransmission
    attempt: int = 0


@dataclass
class _BatchPeer:
    """Receive-side per-sender batch state (reliable mode)."""

    next_expected: int = 0
    #: out-of-order buffer: seq -> (entries, wire nbytes)
    held: dict[int, tuple[tuple, int]] = field(default_factory=dict)


class MessageAggregator:
    """Coalesce same-destination small messages into batched wire messages.

    Owner-driven, like :class:`~repro.matching.reliable.ReliableChannel`::

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
    """

    def __init__(
        self,
        ctx,
        *,
        flush_bytes: int | None = None,
        flush_count: int | None = None,
        tag: int = AGG_TAG,
        use_persistent: bool = True,
        reliable: bool = False,
        rto: float | None = None,
        rto_max: float | None = None,
        max_retries: int = 25,
    ):
        if flush_bytes is not None and flush_bytes <= 0:
            raise ValueError("flush_bytes must be positive or None")
        if flush_count is not None and flush_count <= 0:
            raise ValueError("flush_count must be positive or None")
        self.ctx = ctx
        self.flush_bytes = flush_bytes
        self.flush_count = flush_count
        self.tag = tag
        self.ack_tag = AGG_ACK_TAG
        self.use_persistent = use_persistent
        self._lanes: dict[int, _Lane] = {}

        # Batch-level reliability (ack/retry/dedup) — same timeout policy
        # as ReliableChannel: comfortably above one data+ack round trip.
        self.reliable = reliable
        m = ctx.machine
        rtt = 2.0 * m.alpha + m.o_send + m.o_recv + m.o_probe + 2.0 * m.o_send
        self.rto = rto if rto is not None else 4.0 * rtt
        self.rto_max = rto_max if rto_max is not None else 64.0 * self.rto
        self.max_retries = max_retries
        self._next_seq: dict[int, int] = {}
        self._unacked: dict[tuple[int, int], _PendingBatch] = {}
        self._peers: dict[int, _BatchPeer] = {}

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
        lane.entries.append((tag, payload))
        lane.payload_bytes += int(nbytes)
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
        lane = self._lanes.get(dest)
        if lane is None or not lane.entries:
            return 0
        ctx = self.ctx
        eng = ctx._engine
        rc = ctx.counters()
        k = len(lane.entries)
        payload_bytes = lane.payload_bytes
        entries = tuple(lane.entries)
        lane.entries = []
        lane.payload_bytes = 0
        if ctx.is_failed(dest):
            rc.agg_dropped_dead += k
            eng.trace_event(ctx.rank, "agg-drop", dest=dest, msgs=k)
            return 0
        m = ctx.machine
        wire = payload_bytes + k * m.agg_submsg_header_bytes
        body: Any = entries
        if self.reliable:
            wire += AGG_SEQ_HEADER_BYTES
            seq = self._next_seq.get(dest, 0)
            self._next_seq[dest] = seq + 1
            body = (seq, entries)
            self._unacked[(dest, seq)] = _PendingBatch(
                dest=dest,
                seq=seq,
                entries=entries,
                nbytes=wire,
                deadline=ctx.now + self.rto,
            )
        # Packing the batch buffer is real sender-side work.
        if m.pack_byte_cost > 0.0:
            eng.charge_comm(ctx.rank, m.pack_byte_cost * payload_bytes,
                            phase="pack")
        if self.use_persistent:
            if lane.request is None:
                lane.request = yield from ctx.send_init_g(dest, tag=self.tag)
            yield from lane.request.start_g(body, nbytes=wire)
        else:
            yield from ctx.isend_g(dest, body, tag=self.tag, nbytes=wire)
        rc.agg_msgs_coalesced += k
        rc.agg_batches += 1
        rc.agg_batch_bytes += wire
        # Envelope bytes an unaggregated sender would have paid, minus the
        # framing the batch adds (can go negative for degenerate k=1
        # batches — honest accounting, not clamped).
        rc.agg_bytes_saved += (k - 1) * m.header_bytes \
            - k * m.agg_submsg_header_bytes
        eng.trace_event(ctx.rank, "agg-flush", dest=dest, msgs=k, nbytes=wire)
        return k

    def flush_all_g(self):
        """Explicit iteration-boundary flush of every lane (sorted order)."""
        shipped = 0
        for dest in sorted(self._lanes):
            shipped += yield from self.flush_g(dest)
        return shipped

    def drop_rank(self, rank: int) -> int:
        """Discard the lane for a crashed peer; returns messages dropped.

        In reliable mode this also discards unacknowledged batches to the
        dead peer — retrying into a black hole forever would otherwise
        prevent quiescence.
        """
        self.on_rank_failed(rank)
        lane = self._lanes.pop(rank, None)
        if lane is None or not lane.entries:
            return 0
        k = len(lane.entries)
        rc = self.ctx.counters()
        rc.agg_dropped_dead += k
        self.ctx._engine.trace_event(self.ctx.rank, "agg-drop", dest=rank, msgs=k)
        return k

    # ------------------------------------------------------------------
    # batch-level reliability (reliable=True)
    # ------------------------------------------------------------------
    def service_g(self, now: float, *, may_abandon: bool = False):
        """Retransmit every overdue unacked batch; returns the count.

        Mirrors :meth:`ReliableChannel.service_g`: a destination that is
        unreachable through an active network partition gets its deadline
        deferred to the heal time *without* burning a retry attempt, so a
        healed partition can never be mistaken for a death. ``may_abandon``
        permits giving up after ``max_retries`` (the caller asserts its
        protocol no longer depends on delivery); otherwise exhaustion
        raises :class:`RetryExhausted`. No-op when ``reliable`` is off.
        """
        if not self.reliable:
            return 0
        fired = 0
        ctx = self.ctx
        rc = ctx.counters()
        plan = ctx.fault_plan
        for key in list(self._unacked):
            p = self._unacked.get(key)
            if p is None or p.deadline > now:
                continue
            if ctx.is_failed(p.dest):
                del self._unacked[key]
                continue
            if (
                plan is not None and plan.partitions
                and plan.partitioned(ctx.rank, p.dest, now)
            ):
                p.deadline = plan.partition_clear_time(ctx.rank, p.dest, now)
                rc.partition_deferrals += 1
                continue
            if p.attempt >= self.max_retries:
                if may_abandon:
                    rc.abandoned += 1
                    del self._unacked[key]
                    continue
                raise RetryExhausted(
                    f"aggregated batch seq={p.seq} to rank {p.dest} unacked "
                    f"after {p.attempt} retransmissions"
                )
            p.attempt += 1
            p.deadline = now + min(self.rto * (2.0 ** p.attempt), self.rto_max)
            rc.agg_batch_retries += 1
            # Retransmissions are exceptional: pay the full (non-persistent)
            # send path instead of threading them through the lane request.
            yield from ctx.isend_g(p.dest, (p.seq, p.entries), tag=self.tag,
                                   nbytes=p.nbytes)
            fired += 1
        return fired

    def next_deadline(self) -> float | None:
        """Earliest pending batch-retransmission deadline, or None."""
        if not self._unacked:
            return None
        return min(p.deadline for p in self._unacked.values())

    def idle(self) -> bool:
        """True when every shipped batch has been acknowledged (always
        true in unreliable mode)."""
        return not self._unacked

    def unacked_count(self) -> int:
        return len(self._unacked)

    def on_rank_failed(self, rank: int) -> int:
        """Discard unacked batches to a crashed peer; returns the count."""
        doomed = [k for k in self._unacked if k[0] == rank]
        for k in doomed:
            del self._unacked[k]
        return len(doomed)

    # ------------------------------------------------------------------
    # checkpoint capture/restore (engine pickles the returned tree)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregator state for a coordinated checkpoint.

        Lanes are captured without their :class:`PersistentSendRequest`
        (it holds a context reference); the request's amortization state
        ``(starts, last_arrival)`` rides along so restore can rebuild it
        without re-charging ``o_send_init``.
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
        return {
            "lanes": lanes,
            "next_seq": self._next_seq,
            "unacked": self._unacked,
            "peers": self._peers,
        }

    def restore(self, blob: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot` (resume path)."""
        self._lanes = {}
        for dest, ls in blob["lanes"].items():
            lane = _Lane()
            lane.entries = list(ls["entries"])
            lane.payload_bytes = ls["payload_bytes"]
            if ls["request"] is not None:
                req = PersistentSendRequest(self.ctx, dest, self.tag)
                req.starts, req.last_arrival = ls["request"]
                lane.request = req
            self._lanes[dest] = lane
        self._next_seq = blob["next_seq"]
        self._unacked = blob["unacked"]
        self._peers = blob["peers"]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_messages(self, dest: int | None = None) -> int:
        """Buffered-but-unflushed message count (one lane or all)."""
        if dest is not None:
            lane = self._lanes.get(dest)
            return 0 if lane is None else len(lane.entries)
        return sum(len(lane.entries) for lane in self._lanes.values())

    def pending_bytes(self, dest: int | None = None) -> int:
        if dest is not None:
            lane = self._lanes.get(dest)
            return 0 if lane is None else lane.payload_bytes
        return sum(lane.payload_bytes for lane in self._lanes.values())

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
        delivered = 0
        while True:
            if self.reliable:
                ahdr = yield from ctx.iprobe_g(tag=self.ack_tag)
                if ahdr is not None:
                    asrc, _, _ = ahdr
                    amsg = yield from ctx.recv_g(source=asrc, tag=self.ack_tag)
                    self._unacked.pop((asrc, amsg.payload), None)
                    continue
            hdr = yield from ctx.iprobe_g(tag=self.tag)
            if hdr is None:
                return delivered
            src, _, _ = hdr
            msg = yield from ctx.recv_g(source=src, tag=self.tag)
            if not self.reliable:
                delivered += yield from self._deliver_g(
                    src, msg.payload, msg.nbytes, handler
                )
                continue
            seq, entries = msg.payload
            # Always ack, even duplicates: the original ack may be the
            # thing the network ate.
            if not ctx.is_failed(src):
                yield from ctx.isend_g(src, seq, tag=self.ack_tag,
                                       nbytes=AGG_ACK_BYTES)
                rc.agg_acks_sent += 1
            peer = self._peers.setdefault(src, _BatchPeer())
            if seq < peer.next_expected or seq in peer.held:
                rc.agg_dup_batches += 1
                continue
            peer.held[seq] = (entries, msg.nbytes)
            while peer.next_expected in peer.held:
                ent, nb = peer.held.pop(peer.next_expected)
                peer.next_expected += 1
                delivered += yield from self._deliver_g(
                    src, ent, nb - AGG_SEQ_HEADER_BYTES, handler
                )

    def _deliver_g(
        self,
        src: int,
        entries: Sequence[tuple[int, Any]],
        nbytes: int,
        handler: Callable[[int, int, Any], None],
    ):
        """Unpack one batch (``nbytes`` = payloads + framing, seq header
        already stripped) and hand each coalesced message up."""
        ctx = self.ctx
        eng = ctx._engine
        rc = ctx.counters()
        m = ctx.machine
        payload_bytes = nbytes - len(entries) * m.agg_submsg_header_bytes
        if m.pack_byte_cost > 0.0 and payload_bytes > 0:
            eng.charge_comm(ctx.rank, m.pack_byte_cost * payload_bytes,
                            phase="pack")
        rc.agg_batches_received += 1
        rc.agg_msgs_delivered += len(entries)
        for user_tag, payload in entries:
            # A generator-style handler may itself park
            # — e.g. when handling triggers a reply send; drive it inline.
            res = handler(src, user_tag, payload)
            if isinstance(res, GeneratorType):
                yield from res
        return len(entries)
