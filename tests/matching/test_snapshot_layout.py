"""The checkpoint layout of ``MatchingState`` is a contract.

Recovery charges virtual time for the pickled size of every cut, so
``MatchingState.snapshot()`` must pickle to the bytes of the layout the
state had when it was held in numpy: ``np.full`` arrays of fixed dtypes
and one distinct ``set`` per owned vertex for ``evicted`` / ``pending``.
Each run below probes every rank at three points — after the initial
FINDMATE sweep, at the first drain after a message arrived, and at the
end — and at the first two also swaps the state for
``restore(snapshot())`` through a pickle round trip; the run must still
end with the unprobed run's mate array and makespan.
"""

import pickle

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.matching import driver
from repro.matching.state import FREE, NO_MATE, MatchingState
from repro.mpisim.checkpoint import PICKLE_PROTOCOL


def numpy_layout(st: MatchingState) -> dict:
    """``st``'s values in the layout the numpy representation pickled."""
    n = st.lg.num_owned

    def full(dtype, fill, values):
        a = np.full(n, fill, dtype=dtype)
        a[:] = list(values)
        return a

    def fresh_sets(slots):
        # One set per vertex; a written set is the live object, as the
        # numpy-era snapshot returned it (its element order comes from
        # its add/discard history, not from the layout).
        return [s if s else set() for s in slots]

    return {
        "stats": st.stats,
        "status": full(np.int8, FREE, st.status),
        "mate": full(np.int64, NO_MATE, st.mate),
        "pointer": full(np.int64, NO_MATE, st.pointer),
        "ptr_idx": full(np.int64, 0, st.ptr_idx),
        "evicted": fresh_sets(st.evicted),
        "pending": fresh_sets(st.pending),
        "processed": full(bool, False, st.processed),
        "active_pairs": st.active_pairs,
        "nghosts": st.nghosts,
        "awaiting": st.awaiting,
        "dead_ranks": st.dead_ranks,
        "work": st.work,
    }


def dumps(blob) -> bytes:
    return pickle.dumps(blob, protocol=PICKLE_PROTOCOL)


class Probe(MatchingState):
    """Checks the cut layout at three points of a rank's run."""

    hits: list[str] = []  #: cut points reached, across ranks

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._mid_seen = False

    def _cut(self, point: str) -> None:
        assert dumps(self.snapshot()) == dumps(numpy_layout(self)), point
        if point != "end":
            self.restore(pickle.loads(dumps(self.snapshot())))
        self.hits.append(point)

    def start_g(self):
        yield from super().start_g()
        self._cut("start")

    def drain_work_g(self):
        if not self._mid_seen and sum(self.stats.received.values()):
            self._mid_seen = True
            self._cut("mid")
        return (yield from super().drain_work_g())

    def mate_global(self):
        self._cut("end")
        return super().mate_global()


@pytest.mark.parametrize("model", ["nsr", "nsr-agg", "rma", "ncl", "incl", "mbp"])
def test_snapshot_pickles_to_the_numpy_layout(model, monkeypatch):
    g = rmat_graph(7, seed=2)
    ref = run_matching(g, 4, model, config=RunConfig())
    monkeypatch.setattr(Probe, "hits", [])
    monkeypatch.setattr(driver, "MatchingState", Probe)
    res = run_matching(g, 4, model, config=RunConfig())
    assert Probe.hits.count("start") == 4
    assert Probe.hits.count("end") == 4
    assert Probe.hits.count("mid") >= 1
    assert np.array_equal(res.mate, ref.mate)
    assert res.makespan == ref.makespan
