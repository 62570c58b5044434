"""Point-to-point message representation and per-rank receive queues.

The queue implements MPI matching semantics: FIFO per (source, tag) channel,
with ``ANY_SOURCE`` / ``ANY_TAG`` wildcards matching the earliest-arriving
eligible message (deterministic: ties broken by global send sequence number).

Both classes are ``__slots__``-based: a simulated run creates one
:class:`Message` per delivered copy and probes queues on every receive, so
attribute storage and matching are engine hot paths. :class:`Message` is
not ``frozen`` for the same reason: a frozen dataclass sets every field
through ``object.__setattr__``, which made construction several times
slower, and nothing mutates a message after the engine builds it. Not
being frozen also makes it unhashable; no code keys on messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1

_NEG_INF = float("-inf")


@dataclass(slots=True)
class Message:
    """One in-flight or delivered point-to-point message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float  # virtual time the send was issued
    arrival: float  # virtual time the payload is available at the receiver
    seq: int  # global send sequence number (total order tie-break)
    fault: str | None = None  # injected-fault marker: "dup" / "delay" / None

    # Pickled as a list of field values, as the frozen dataclass was: a
    # checkpoint's bytes, and the replication cost charged on its size,
    # must not change with the class's mutability.
    def __getstate__(self):
        return [getattr(self, f) for f in self.__slots__]

    def __setstate__(self, state):
        for f, v in zip(self.__slots__, state):
            setattr(self, f, v)


def _order_key(m: Message) -> tuple[float, int]:
    return (m.arrival, m.seq)


@dataclass(slots=True)
class ReceiveQueue:
    """Arrived-but-unreceived messages for one rank.

    Kept sorted by ``(arrival, seq)`` lazily: messages are appended on
    delivery (senders issue them in nondecreasing virtual time *per sender*
    but interleavings across senders are arbitrary), and we sort on demand.
    ``_tail_arrival``/``_tail_seq`` cache the largest key appended so far so
    the common in-order push is two float compares with no tuple building.

    Indices handed out by :meth:`match_index` are *logical* (0 = earliest
    live message). Internally a consumed-prefix offset ``_head`` makes the
    dominant pop-at-front O(1) instead of ``list.pop(0)``'s O(n); the
    consumed slots are compacted away before any sort and when the prefix
    dominates the storage. Purely representational — every observable
    (match order, pop results, pickled state) is unchanged.
    """

    _items: list[Message] = field(default_factory=list)
    _dirty: bool = False
    _tail_arrival: float = _NEG_INF
    _tail_seq: int = -1
    _head: int = 0  # consumed-prefix length of _items

    def push(self, msg: Message) -> None:
        a = msg.arrival
        ta = self._tail_arrival
        if a < ta or (a == ta and msg.seq < self._tail_seq):
            # Out of order w.r.t. the largest key seen: sort on demand.
            # (The tail cache keeps tracking the max key; after a pop of
            # the true tail it may over-report, which at worst forces a
            # redundant sort — never a missed one.)
            self._dirty = True
        else:
            self._tail_arrival = a
            self._tail_seq = msg.seq
        self._items.append(msg)

    def _compact(self) -> None:
        if self._head:
            del self._items[: self._head]
            self._head = 0

    def _normalize(self) -> None:
        if self._dirty:
            self._compact()
            self._items.sort(key=_order_key)
            self._dirty = False

    def __len__(self) -> int:
        return len(self._items) - self._head

    def match_index(self, source: int, tag: int, before: float | None = None) -> int | None:
        """Logical index of the earliest message matching (source, tag),
        or None.

        ``before`` restricts to messages with ``arrival <= before`` (used to
        model "has this message physically arrived by my local clock").
        """
        if self._dirty:
            self._normalize()
        items = self._items
        head = self._head
        for i in range(head, len(items)):
            m = items[i]
            if before is not None and m.arrival > before:
                # Sorted by arrival: nothing later can qualify.
                return None
            if (source == ANY_SOURCE or m.src == source) and (
                tag == ANY_TAG or m.tag == tag
            ):
                return i - head
        return None

    def earliest_match(self, source: int, tag: int) -> Message | None:
        """Earliest matching message regardless of the local clock."""
        idx = self.match_index(source, tag, before=None)
        return None if idx is None else self._items[self._head + idx]

    def pop(self, index: int) -> Message:
        self._normalize()
        head = self._head
        if index == 0:
            msg = self._items[head]
            self._items[head] = None  # drop the reference until compaction
            head += 1
            # Reclaim once the dead prefix dominates a non-trivial list.
            if head >= 32 and head * 2 >= len(self._items):
                del self._items[:head]
                head = 0
            self._head = head
            return msg
        return self._items.pop(head + index)

    def peek(self, index: int) -> Message:
        self._normalize()
        return self._items[self._head + index]

    # Pickle/deepcopy in canonical (compacted) form: checkpoint snapshot
    # bytes — and their content hashes — must not depend on how many
    # pops happened since the last compaction.
    def __getstate__(self):
        items = self._items[self._head:] if self._head else list(self._items)
        return (items, self._dirty, self._tail_arrival, self._tail_seq)

    def __setstate__(self, state) -> None:
        self._items, self._dirty, self._tail_arrival, self._tail_seq = state
        self._head = 0
