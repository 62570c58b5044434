"""Fingerprint pin for everything a fault plan, a checkpoint or a
recovery can move in a run.

Each run below is reduced to one sha256 over its makespan, scheduler
switches, operation count, final clocks and crashed ranks, its recovery
report, every per-rank counter and communication matrix, its trace
events, its mate array and the pickled bytes of every cut it assembled
(cuts a rollback later discards included). The runs cover the clean
paths of four backends, each lossy fate, survivable crashes, put
fates, kill/resume and rollback recovery, so a change to how the engine
arms, schedules or heals faults that moves any observable by one bit
trips the pin. The digests were recorded before the resilience layer
was split out of the engine core (the nsr-agg rows before its event
loop was folded into nsr's), and must never change as a side effect of
restructuring it.
"""

import dataclasses
import hashlib

import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.mpisim.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    ReplicatedCheckpointStore,
)
from repro.mpisim.errors import SimKilled
from repro.mpisim.faults import FaultPlan, PartitionWindow

# Checkpoint intervals and kill points of tests/matching/test_restart.py
# (same instance: rmat scale 8, seed 7, P=4, cori-aries).
INTERVAL = {"nsr": 6.7e-4, "nsr-agg": 9.5e-5, "rma": 1.35e-4, "ncl": 1.15e-4}
KILL_AT = {"nsr": 0.90 * 0.0026952819999999916,
           "nsr-agg": 0.75 * 0.0004026850000000012,
           "ncl": 0.75 * 0.00046338400000000044}

LOSSY = FaultPlan(seed=5, drop_rate=0.05, dup_rate=0.05, delay_rate=0.1)
PARTITION = FaultPlan(seed=2, partitions=(
    PartitionWindow(t_start=4e-4, t_end=1.2e-3, groups=((0, 1), (2, 3))),))
CRASH = FaultPlan(seed=3, crashes={1: 1e-4})
PUT_FATES = FaultPlan(seed=4, rma_drop_rate=0.05, rma_corrupt_rate=0.05)

# name -> (model, RunConfig fields, checkpointing)
RUNS = {
    "clean-nsr": ("nsr", {}, False),
    "clean-ncl": ("ncl", {}, False),
    "clean-rma": ("rma", {}, False),
    "clean-nsr-agg": ("nsr-agg", {}, False),
    "lossy-nsr": ("nsr", {"faults": LOSSY}, False),
    "partition-nsr": ("nsr", {"faults": PARTITION}, False),
    "crash-nsr": ("nsr", {"faults": CRASH}, False),
    "lossy-nsr-agg": ("nsr-agg", {"faults": LOSSY}, False),
    "partition-nsr-agg": ("nsr-agg", {"faults": PARTITION}, False),
    "crash-nsr-agg": ("nsr-agg", {"faults": CRASH}, False),
    "crash-ncl": ("ncl", {"faults": CRASH}, False),
    "crash-rma": ("rma", {"faults": CRASH}, False),
    "put-fates-rma": ("rma", {"faults": PUT_FATES}, False),
    "spares-ncl": ("ncl", {"faults": FaultPlan(
        crashes={1: 3 * INTERVAL["ncl"]}), "spares": 4}, True),
    "spares-rma": ("rma", {"faults": FaultPlan(
        crashes={1: 3 * INTERVAL["rma"], 2: 5 * INTERVAL["rma"]}),
        "spares": 4}, True),
    "churn-nsr-agg": ("nsr-agg", {"faults": FaultPlan.churn(
        mtbf=4e-4, horizon=1.6e-3, seed=7), "spares": 24}, True),
    "churn-nsr": ("nsr", {"faults": FaultPlan.churn(
        mtbf=2.7e-3, horizon=1.08e-2, seed=7), "spares": 24}, True),
}

DIGEST = {
    "clean-nsr":
        "a88e07629373baabe0b9daabd481b32676eb7113f5e5817a35ced57f618a99f1",
    "clean-ncl":
        "787156f74799dd7cd18ec4c35cf30e8e6fc0efa4538cb446cb70b9a80321e28a",
    "clean-rma":
        "aaeea95f5902b411bf483a723e541c71716b3fa88553cea873b265756bc57b23",
    "clean-nsr-agg":
        "1a94e78d68b23b7865a7ceb11ab6521c2b65c1a066d88a46c2eedb5c68dfd011",
    "lossy-nsr":
        "22f3035680736acaa2345c2848017042bf3912ad89d5e9205fbff5a8622bbc92",
    "partition-nsr":
        "0f8adce6dc79c40c045392007da133a6417f74a547e026086cf5a6325c58642e",
    "crash-nsr":
        "e798ed38880d9ce82c24a9909d0e83040afc201033671ff87a67e6bbc9ad7ccc",
    "lossy-nsr-agg":
        "04906c29f24b38e1aa95aa7bf6819dfd056964e1d1fa48d42659f344d4904c01",
    "partition-nsr-agg":
        "a8fd122aaada83a83d1069b4d009c2eb5f45f1cc293f1ae85e52fd8fa0f43fb5",
    "crash-nsr-agg":
        "d12106d0e59be5b506f275b716d73d67dc8cfe7169a00c22f72ec124d693e890",
    "crash-ncl":
        "9fa8b4c8536d168bf416bc06c91df64935cc86dde1544cf3fbc8b232b83e090b",
    "crash-rma":
        "b18fe916b976256494e39dba752cb79babc6962781cd91239b2d7765b2070835",
    "put-fates-rma":
        "cbf0eed547cf182c89f806479eba03cd5fe1eb9efa7a915ad7883294a44e0f1a",
    # Re-recorded when the backends began to take crash visibility from
    # the run: under rollback recovery they run the fault-free setup and
    # termination, not the survivor paths.
    "spares-ncl":
        "750327a737a0163726e43379305c753c7ca5ceecbdd1685c31e43261108e1737",
    "spares-rma":
        "157241f506336e894d48fee4c5a6a6cdf80b0b6241be8f33e7b812c1c3db545a",
    "churn-nsr-agg":
        "3a60670fd6124c72f6cb67c12344ead85e5b9361dfc2137192fd4a13640b7681",
    "churn-nsr":
        "e7cb8e9a330dc3cf81ab2e54bb00b85fde8bea741bce80ac1cd1eef3a0959dc9",
    "kill-resume-nsr":
        "d484799b8010082dab9f45754d2f69f20e4a18e82c48da5ed0eb1dd3100f8419",
    "kill-resume-ncl":
        "e02964e0bd744c3ece9560f4c8f7b0d85515fafa7b4604488c905d41ea5283e7",
    "kill-resume-nsr-agg":
        "fd8725d11c9807cec6548df791f19218ec6f3c723f248853b327ab9130fedf30",
}


class _Recording:
    """Keeps the pickled bytes of every cut added, even the ones a
    rollback later discards."""

    def add(self, snap):
        self.cuts.append(snap.payload)
        super().add(snap)


class RecordingStore(_Recording, CheckpointStore):
    def __init__(self):
        super().__init__()
        self.cuts = []


class RecordingReplicatedStore(_Recording, ReplicatedCheckpointStore):
    """Degree 2, as the engine's own wrapping of a plain store."""

    def __init__(self):
        super().__init__(replicas=2)
        self.cuts = []


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, seed=7)


def _update(h, res, cuts) -> None:
    e = res.engine

    def put(x):
        h.update(repr(x).encode())
        h.update(b"\0")

    put((e.makespan, e.scheduler_switches, e.total_ops, e.final_clocks,
         e.crashed_ranks))
    put(e.recovery)
    for rc in e.counters.ranks:
        put(dataclasses.asdict(rc))
    for matrix in (e.counters.p2p, e.counters.rma, e.counters.ncl):
        h.update(matrix.counts.tobytes())
        h.update(matrix.bytes.tobytes())
    for ev in e.trace:
        put((ev.time, ev.rank, ev.op, ev.detail))
    for payload in cuts:
        h.update(payload)
    h.update(res.mate.tobytes())


def _checkpoint(model, replicated):
    store = RecordingReplicatedStore() if replicated else RecordingStore()
    return CheckpointConfig(interval=INTERVAL[model], store=store), store


def fingerprint(graph, name: str) -> str:
    h = hashlib.sha256()
    if name.startswith("kill-resume-"):
        model = name.removeprefix("kill-resume-")
        ck, killed = _checkpoint(model, False)
        with pytest.raises(SimKilled) as exc:
            run_matching(graph, 4, model, config=RunConfig(
                checkpoint=ck, kill_at=KILL_AT[model], trace=True))
        h.update(repr(exc.value.t).encode())
        h.update(b"".join(killed.cuts))
        snap = killed.latest_before(KILL_AT[model])
        ck, store = _checkpoint(model, False)
        res = run_matching(graph, 4, model, config=RunConfig(
            checkpoint=ck, restore=snap, trace=True))
        _update(h, res, store.cuts)
        return h.hexdigest()
    model, fields, checkpointed = RUNS[name]
    cuts = []
    if checkpointed:
        ck, store = _checkpoint(model, fields.get("spares", 0) > 0)
        fields = dict(fields, checkpoint=ck)
        cuts = store.cuts
    res = run_matching(graph, 4, model,
                       config=RunConfig(trace=True, **fields))
    _update(h, res, cuts)
    return h.hexdigest()


@pytest.mark.parametrize("name", list(DIGEST))
def test_fingerprint_unchanged(graph, name):
    assert fingerprint(graph, name) == DIGEST[name]
