"""Reliable, in-order delivery over the (possibly faulty) p2p substrate.

The fault plan (``repro.mpisim.faults``) can drop, duplicate, and delay
two-sided messages; the matching state machine assumes each cross edge's
REQUEST/REJECT/INVALID arrives exactly once. This module closes the gap
with a small transport protocol layered over ``isend``/``iprobe``/
``recv`` — the simulated analogue of what a production code would build
over an unreliable fabric (or what the fabric's own link layer does).
It is the one reliable transport of the Send-Recv backends: ``nsr``
sends each triple as one DATA message, and a
:class:`~repro.mpisim.aggregate.MessageAggregator` built with a channel
sends each flushed batch as one. The protocol:

* **sequence numbers** per (sender, receiver) channel;
* **positive acknowledgment** of every DATA message;
* **timeout + retransmit** with capped exponential backoff in *virtual*
  time (deadlines are serviced by the owner's event loop via the timed
  ``probe``);
* **duplicate suppression and reorder buffering** at the receiver: user
  payloads are handed up exactly once, in per-channel send order, which
  restores MPI's non-overtaking guarantee under delay faults.

Wire format: DATA carries ``(seq, user_tag, user_payload)`` under
``TAG_DATA``; ACK carries the acknowledged ``seq`` under ``TAG_ACK``.
Everything is deterministic: retransmission deadlines are pure virtual
time, and iteration order of the pending tables is insertion order.

Failure handling: when the owner learns a peer crashed
(``ctx.failed_ranks``), :meth:`ReliableChannel.on_rank_failed` discards
unacknowledged traffic to the dead peer — retrying into a black hole
forever would otherwise prevent quiescence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Callable

from repro.mpisim.context import RankContext
from repro.mpisim.errors import RetryExhausted

#: MPI tags used by the channel (application tags ride inside the payload;
#: matching's context tags are 1..4, so these cannot collide)
TAG_DATA = 100
TAG_ACK = 101

#: wire size of one ACK: acknowledged seq + minimal envelope
ACK_BYTES = 16
#: per-DATA-message header: the channel sequence number
SEQ_HEADER_BYTES = 8


@dataclass
class _Pending:
    """One sent-but-unacknowledged DATA message."""

    dst: int
    seq: int
    user_tag: int
    payload: Any
    nbytes: int  # user payload bytes (header added per send)
    deadline: float  # virtual time of the next retransmission
    attempt: int = 0


@dataclass
class _PeerState:
    """Receive-side state for one sending peer."""

    next_expected: int = 0
    #: out-of-order buffer: seq -> (user_tag, payload)
    held: dict[int, tuple[int, Any]] = field(default_factory=dict)


class ReliableChannel:
    """Ack/retry/in-order delivery shim for one rank.

    The owner drives it from an event loop::

        chan = ReliableChannel(ctx)
        yield from chan.send_g(dst, tag, payload, nbytes)  # not isend_g
        yield from chan.poll_g(handler)          # instead of iprobe+recv
        yield from chan.service_g(ctx.now)       # fire due retransmits
        yield from ctx.probe_g(deadline=chan.next_deadline())  # timed wait

    ``handler(src, user_tag, payload)`` sees each payload exactly once,
    in per-source send order.
    """

    def __init__(
        self,
        ctx: RankContext,
        *,
        rto: float | None = None,
        rto_max: float | None = None,
        max_retries: int = 25,
    ):
        self.ctx = ctx
        m = ctx.machine
        # Initial timeout: comfortably above one round trip (data + ack),
        # including both sides' software overheads.
        rtt = 2.0 * m.alpha + m.o_send + m.o_recv + m.o_probe + 2.0 * m.o_send
        self.rto = rto if rto is not None else 4.0 * rtt
        self.rto_max = rto_max if rto_max is not None else 64.0 * self.rto
        self.max_retries = max_retries

        self._next_seq: dict[int, int] = {}
        self._unacked: dict[tuple[int, int], _Pending] = {}
        self._peers: dict[int, _PeerState] = {}

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def send_g(self, dst: int, user_tag: int, payload: Any, nbytes: int):
        """Reliably send ``payload`` to ``dst`` (returns immediately)."""
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        pend = _Pending(
            dst=dst,
            seq=seq,
            user_tag=user_tag,
            payload=payload,
            nbytes=nbytes,
            deadline=self.ctx.now + self.rto,
        )
        self._unacked[(dst, seq)] = pend
        yield from self._transmit_g(pend)

    def _transmit_g(self, p: _Pending):
        if self.ctx.is_failed(p.dst):
            return  # dead peer; the entry is reaped by service/on_rank_failed
        yield from self.ctx.isend_g(
            p.dst,
            (p.seq, p.user_tag, p.payload),
            tag=TAG_DATA,
            nbytes=p.nbytes + SEQ_HEADER_BYTES,
        )

    def service_g(self, now: float, *, may_abandon: bool = False):
        """Retransmit every overdue unacked message; returns the count.

        ``may_abandon`` permits giving up on a message that has exhausted
        its retries (the caller asserts its own protocol state no longer
        depends on confirmation — e.g. it is locally quiescent); without
        it, exhaustion raises :class:`RetryExhausted`.
        """
        fired = 0
        rc = self.ctx.counters()
        plan = self.ctx.fault_plan
        for key in list(self._unacked):
            p = self._unacked.get(key)
            if p is None or p.deadline > now:
                continue
            if self.ctx.is_failed(p.dst):
                del self._unacked[key]
                continue
            if (
                plan is not None and plan.partitions
                and plan.partitioned(self.ctx.rank, p.dst, now)
            ):
                # The peer is unreachable, not dead: defer the retry to
                # the heal time without burning an attempt. This is what
                # keeps "partitioned" distinct from "crashed" — a healed
                # partition can never exhaust retries into an abandon,
                # and the failure detector (plan-driven) never fires for
                # it, so no spurious shrink is possible.
                p.deadline = plan.partition_clear_time(self.ctx.rank, p.dst, now)
                rc.partition_deferrals += 1
                continue
            if p.attempt >= self.max_retries:
                if may_abandon:
                    rc.abandoned += 1
                    del self._unacked[key]
                    continue
                raise RetryExhausted(
                    f"message seq={p.seq} to rank {p.dst} unacked after "
                    f"{p.attempt} retransmissions"
                )
            p.attempt += 1
            p.deadline = now + min(self.rto * (2.0 ** p.attempt), self.rto_max)
            rc.retransmits += 1
            yield from self._transmit_g(p)
            fired += 1
        return fired

    def next_deadline(self) -> float | None:
        """Earliest pending retransmission deadline, or None if idle."""
        if not self._unacked:
            return None
        return min(p.deadline for p in self._unacked.values())

    def idle(self) -> bool:
        """True when every sent message has been acknowledged."""
        return not self._unacked

    def unacked_count(self) -> int:
        return len(self._unacked)

    def on_rank_failed(self, rank: int) -> int:
        """Discard unacked traffic to a crashed peer; returns the count."""
        doomed = [k for k in self._unacked if k[0] == rank]
        for k in doomed:
            del self._unacked[k]
        return len(doomed)

    # ------------------------------------------------------------------
    # checkpoint capture/restore (engine pickles the returned tree)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Transport state for a coordinated checkpoint (picklable,
        no context references — the engine pickles it immediately)."""
        return {
            "next_seq": self._next_seq,
            "unacked": self._unacked,
            "peers": self._peers,
        }

    def restore(self, blob: dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot` (resume path)."""
        self._next_seq = blob["next_seq"]
        self._unacked = blob["unacked"]
        self._peers = blob["peers"]

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def poll_g(self, handler: Callable[[int, int, Any], None]):
        """Drain every arrived message; returns messages *delivered up*.

        ACKs retire pending sends; DATA is acknowledged, deduplicated,
        and released to ``handler`` in per-source sequence order.
        """
        ctx = self.ctx
        rc = ctx.counters()
        delivered = 0
        while True:
            msg = yield from ctx.iprobe_g(receive=True)
            if msg is None:
                return delivered
            src, tag = msg.src, msg.tag
            if tag == TAG_ACK:
                self._unacked.pop((src, msg.payload), None)
                continue
            if tag != TAG_DATA:  # pragma: no cover - foreign traffic
                raise ValueError(f"unexpected tag {tag} on reliable channel")
            seq, user_tag, payload = msg.payload
            # Always ack, even duplicates: the original ack may be the
            # thing the network ate.
            if not ctx.is_failed(src):
                yield from ctx.isend_g(src, seq, tag=TAG_ACK, nbytes=ACK_BYTES)
                rc.acks_sent += 1
            peer = self._peers.setdefault(src, _PeerState())
            if seq < peer.next_expected or seq in peer.held:
                rc.dup_suppressed += 1
                continue
            peer.held[seq] = (user_tag, payload)
            while peer.next_expected in peer.held:
                ut, pl = peer.held.pop(peer.next_expected)
                peer.next_expected += 1
                # Generator-style handlers may park.
                res = handler(src, ut, pl)
                if isinstance(res, GeneratorType):
                    yield from res
                delivered += 1
