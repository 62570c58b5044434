"""Direct unit tests of the ReceiveQueue matching structure."""

import pickle

import pytest

from repro.mpisim.message import ANY_SOURCE, ANY_TAG, Message, ReceiveQueue


def mk(src=0, tag=0, arrival=1.0, seq=1, payload=None, nbytes=8):
    return Message(
        src=src, dst=9, tag=tag, payload=payload, nbytes=nbytes,
        send_time=arrival - 0.5, arrival=arrival, seq=seq,
    )


def test_push_and_len():
    q = ReceiveQueue()
    assert len(q) == 0
    q.push(mk())
    assert len(q) == 1


def test_match_earliest_by_arrival():
    q = ReceiveQueue()
    q.push(mk(src=1, arrival=3.0, seq=2))
    q.push(mk(src=2, arrival=1.0, seq=1))  # out-of-order push
    m = q.earliest_match(ANY_SOURCE, ANY_TAG)
    assert m.src == 2


def test_match_ties_broken_by_seq():
    q = ReceiveQueue()
    q.push(mk(src=5, arrival=1.0, seq=7))
    q.push(mk(src=6, arrival=1.0, seq=3))
    assert q.earliest_match(ANY_SOURCE, ANY_TAG).src == 6


def test_source_and_tag_filters():
    q = ReceiveQueue()
    q.push(mk(src=1, tag=10, arrival=1.0, seq=1))
    q.push(mk(src=2, tag=20, arrival=2.0, seq=2))
    assert q.earliest_match(2, ANY_TAG).tag == 20
    assert q.earliest_match(ANY_SOURCE, 20).src == 2
    assert q.earliest_match(3, ANY_TAG) is None
    assert q.earliest_match(ANY_SOURCE, 99) is None


def test_before_cutoff():
    q = ReceiveQueue()
    q.push(mk(arrival=5.0, seq=1))
    assert q.match_index(ANY_SOURCE, ANY_TAG, before=4.0) is None
    assert q.match_index(ANY_SOURCE, ANY_TAG, before=5.0) == 0


def test_before_cutoff_skips_later_matches():
    """Sorted-by-arrival early exit must not hide earlier-tag matches."""
    q = ReceiveQueue()
    q.push(mk(src=1, tag=1, arrival=1.0, seq=1))
    q.push(mk(src=1, tag=2, arrival=9.0, seq=2))
    # tag=2 exists but hasn't arrived by t=2
    assert q.match_index(ANY_SOURCE, 2, before=2.0) is None
    assert q.match_index(ANY_SOURCE, 1, before=2.0) == 0


def test_pop_removes():
    q = ReceiveQueue()
    q.push(mk(src=1, arrival=1.0, seq=1))
    q.push(mk(src=2, arrival=2.0, seq=2))
    m = q.pop(0)
    assert m.src == 1
    assert len(q) == 1
    assert q.peek(0).src == 2


def test_fifo_within_same_channel():
    q = ReceiveQueue()
    for i in range(5):
        q.push(mk(src=1, tag=1, arrival=1.0 + i * 0.1, seq=i + 1, payload=i))
    got = []
    while len(q):
        idx = q.match_index(1, 1)
        got.append(q.pop(idx).payload)
    assert got == [0, 1, 2, 3, 4]


def test_message_pickles_as_a_list_of_fields():
    """A checkpoint pickles every queued message, and recovery charges
    for the pickled size, so a message keeps the state layout it had as
    a frozen dataclass: the list of its field values, in field order."""
    from repro.mpisim.checkpoint import PICKLE_PROTOCOL

    m = mk(src=3, tag=2, payload=(4, 5))
    m.fault = "dup"
    state = m.__reduce_ex__(PICKLE_PROTOCOL)[2]
    assert state == [3, 9, 2, (4, 5), 8, 0.5, 1.0, 1, "dup"]
    assert pickle.loads(pickle.dumps(m, PICKLE_PROTOCOL)) == m
