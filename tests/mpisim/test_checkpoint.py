"""Checkpoint artifacts: snapshots, the store, and the .ckpt envelope.

The engine-level bit-identity contract lives in
``tests/matching/test_restart.py``; this file covers the artifact layer
— content hashing, store selection, config validation, and
the on-disk envelope's corruption detection.
"""

import struct

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.mpisim.checkpoint import (
    CheckpointConfig,
    CheckpointCorrupt,
    CheckpointStore,
    EngineSnapshot,
    ReplicatedCheckpointStore,
    buddy_ranks,
    load_checkpoint,
    make_snapshot,
    save_checkpoint,
)


def snap(epoch=0, vtime=1e-4, nprocs=4, state=None):
    return make_snapshot(epoch, vtime, nprocs,
                         {"hello": epoch} if state is None else state)


class TestSnapshot:
    def test_content_hash_is_of_payload(self):
        a = snap(state={"x": 1})
        b = snap(state={"x": 1})
        c = snap(state={"x": 2})
        assert a.sha256 == b.sha256
        assert a.sha256 != c.sha256

    def test_state_returns_fresh_copies(self):
        s = snap(state={"q": [1, 2]})
        first = s.state()
        first["q"].append(3)
        assert s.state() == {"q": [1, 2]}


class TestStore:
    def test_latest_and_epoch_lookup(self):
        store = CheckpointStore()
        assert store.latest() is None
        for e in range(4):
            store.add(snap(epoch=e, vtime=e * 1e-4))
        assert len(store) == 4
        assert store.latest().epoch == 3
        assert store.at_epoch(2).epoch == 2
        assert store.at_epoch(9) is None
        assert [s.epoch for s in store] == [0, 1, 2, 3]
        assert store[1].epoch == 1

    def test_latest_before_selects_restart_point(self):
        store = CheckpointStore()
        for e in range(4):
            store.add(snap(epoch=e, vtime=(e + 1) * 1e-4))
        assert store.latest_before(2.5e-4).epoch == 1
        assert store.latest_before(4e-4).epoch == 3  # inclusive
        assert store.latest_before(0.5e-4) is None

    def test_unbounded_store_never_reports_pruned(self):
        store = CheckpointStore()
        for e in range(5):
            store.add(snap(epoch=e, vtime=(e + 1) * 1e-4))
        assert store.latest_before(0.5e-4) is None
        assert store.at_epoch(9) is None


class TestBuddyRanks:
    def test_ring_placement(self):
        assert buddy_ranks(2, 8, 2) == (3, 4)
        assert buddy_ranks(0, 8, 3) == (1, 2, 3)

    def test_wraps_around_the_ring(self):
        assert buddy_ranks(7, 8, 2) == (0, 1)
        assert buddy_ranks(6, 8, 3) == (7, 0, 1)

    def test_clamped_to_distinct_buddies(self):
        assert buddy_ranks(0, 4, 7) == (1, 2, 3)
        assert buddy_ranks(0, 1, 2) == ()

    def test_zero_replicas(self):
        assert buddy_ranks(3, 8, 0) == ()

    def test_never_includes_self(self):
        for p in (1, 2, 3, 5, 8):
            for r in range(p):
                for k in range(0, p + 2):
                    buddies = buddy_ranks(r, p, k)
                    assert r not in buddies
                    assert len(buddies) == len(set(buddies)) == min(k, p - 1)

    @pytest.mark.parametrize(
        "rank,nprocs,replicas",
        [(0, 0, 1), (4, 4, 1), (-1, 4, 1), (0, 4, -1)],
    )
    def test_validation(self, rank, nprocs, replicas):
        with pytest.raises(ValueError, match="buddy_ranks"):
            buddy_ranks(rank, nprocs, replicas)


class TestReplicatedStore:
    def make(self, replicas=1, nprocs=4, epochs=1):
        store = ReplicatedCheckpointStore(replicas=replicas)
        for e in range(epochs):
            s = snap(epoch=e, vtime=(e + 1) * 1e-4, nprocs=nprocs)
            store.add(s)
            store.record_replication(
                s, {r: 10 * (r + 1) for r in range(nprocs)}
            )
        return store

    def test_replicas_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="replicas"):
            ReplicatedCheckpointStore(replicas=-1)

    def test_fresh_cut_is_complete(self):
        store = self.make()
        assert store.is_complete(0)
        s, lost = store.latest_complete()
        assert s.epoch == 0 and lost == 0

    def test_slice_survives_while_any_holder_lives(self):
        # k=1: slice r lives on r and (r+1) % 4.
        store = self.make(replicas=1)
        store.mark_rank_lost(1)
        assert store.is_complete(0)  # slice 1's copy on rank 2 survives
        store.mark_rank_lost(2)
        # Now both holders of slice 1 ({1, 2}) are dead.
        assert not store.is_complete(0)
        s, lost = store.latest_complete()
        assert s is None and lost == 1

    def test_latest_complete_skips_to_older_complete_cut(self):
        # Selection logic: the newest cut lost every holder of one of
        # its slices, an older cut (with a different slice set) did not
        # — recovery must skip back and count one cut lost to buddy
        # death. k=1, P=4: slice r's holders are {r, (r+1) % 4}.
        store = ReplicatedCheckpointStore(replicas=1)
        s0 = snap(epoch=0, vtime=1e-4)
        store.add(s0)
        store.record_replication(s0, {0: 8, 3: 8})  # holders {0,1},{3,0}
        s1 = snap(epoch=1, vtime=2e-4)
        store.add(s1)
        store.record_replication(s1, {1: 8, 3: 8})  # holders {1,2},{3,0}
        store.mark_rank_lost(1)
        store.mark_rank_lost(2)
        assert not store.is_complete(1)  # slice 1: both holders dead
        assert store.is_complete(0)  # slices 0 and 3 each kept a holder
        s, lost = store.latest_complete()
        assert s.epoch == 0 and lost == 1

    def test_loss_marks_do_not_poison_new_cuts(self):
        # Recovery never re-replicates old cuts; new cuts get fresh
        # copies and must come up complete even after earlier losses.
        store = self.make(replicas=1, epochs=1)
        store.mark_rank_lost(1)
        store.mark_rank_lost(2)
        assert store.latest_complete()[0] is None
        s1 = snap(epoch=1, vtime=2e-4)
        store.add(s1)
        store.record_replication(s1, {r: 8 for r in range(4)})
        s, lost = store.latest_complete()
        assert s.epoch == 1 and lost == 0

    def test_zero_replicas_degenerates_to_no_copies(self):
        store = self.make(replicas=0)
        assert store.is_complete(0)
        store.mark_rank_lost(3)
        assert not store.is_complete(0)
        assert "slice 3 lost" in store.explain()

    def test_discard_after_drops_abandoned_timeline(self):
        store = self.make(epochs=4)
        assert store.discard_after(1) == 2
        assert [s.epoch for s in store] == [0, 1]
        assert store.slice_size(3, 0) == 0
        assert not store.is_complete(3)
        assert store.discard_after(5) == 0

    def test_slice_size(self):
        store = self.make()
        assert store.slice_size(0, 2) == 30
        assert store.slice_size(0, 99) == 0
        assert store.slice_size(7, 0) == 0  # unknown epoch

    def test_explain_reports_per_cut_status(self):
        empty = ReplicatedCheckpointStore(replicas=1)
        assert "no checkpoint cut" in empty.explain()
        store = self.make(replicas=1, epochs=2)
        report = store.explain()
        assert "epoch 1" in report and "complete" in report
        store.mark_rank_lost(0)
        store.mark_rank_lost(1)
        report = store.explain()
        assert "incomplete" in report
        assert "slice 0 lost (holders [0, 1] all dead)" in report

    def test_explain_flags_unreplicated_cuts(self):
        store = ReplicatedCheckpointStore(replicas=1)
        store.add(snap(epoch=0, vtime=1e-4))  # no record_replication
        assert "unreplicated" in store.explain()
        assert not store.is_complete(0)
        assert store.latest_complete() == (None, 1)


class TestConfig:
    @pytest.mark.parametrize("interval", [0.0, -1e-4, float("nan")])
    def test_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError, match="interval"):
            CheckpointConfig(interval=interval)


class TestEnvelope:
    def test_save_load_round_trip(self, tmp_path):
        s = snap(epoch=7, vtime=3.25e-4, nprocs=8, state={"m": list(range(50))})
        path = save_checkpoint(s, tmp_path / "x.ckpt")
        back = load_checkpoint(path)
        assert back == s  # frozen dataclass: full field equality
        assert back.state() == {"m": list(range(50))}

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        data = bytearray(p.read_bytes())
        data[:4] = b"NOPE"
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(p)

    def test_unsupported_version_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 8, 99)  # version field follows magic
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(p)

    def test_corrupt_payload_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        data = bytearray(p.read_bytes())
        data[-1] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="hash mismatch"):
            load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(p)

    def test_corruption_errors_are_typed(self, tmp_path):
        """Every malformation raises CheckpointCorrupt naming the field."""
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        good = p.read_bytes()

        def corrupt(mutate):
            data = bytearray(good)
            mutate(data)
            p.write_bytes(bytes(data))
            with pytest.raises(CheckpointCorrupt) as exc:
                load_checkpoint(p)
            return exc.value

        def set_version(d):
            struct.pack_into("<I", d, 8, 99)

        def flip_payload(d):
            d[-1] ^= 0xFF

        assert corrupt(lambda d: d.__setitem__(slice(0, 4), b"NOPE")).field == "magic"
        assert corrupt(set_version).field == "version"
        assert corrupt(flip_payload).field == "hash"

    @pytest.mark.parametrize("keep_bytes", [0, 4, 8, 12, 20, 30, 50, 63])
    def test_every_truncation_point_is_typed(self, tmp_path, keep_bytes):
        """Prefixes of a valid envelope never leak struct/pickle errors."""
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        data = p.read_bytes()
        assert keep_bytes < len(data)
        p.write_bytes(data[:keep_bytes])
        with pytest.raises(CheckpointCorrupt) as exc:
            load_checkpoint(p)
        assert exc.value.field in ("magic", "truncated")

    def test_single_byte_flips_never_leak_raw_tracebacks(self, tmp_path):
        """Flip each byte of a valid .ckpt in turn: load_checkpoint must
        either still produce an EngineSnapshot (flips in unguarded
        metadata like nprocs) or raise a typed CheckpointCorrupt — never
        a bare struct.error / unpickling traceback."""
        p = tmp_path / "x.ckpt"
        save_checkpoint(snap(), p)
        good = p.read_bytes()
        fields = set()
        for i in range(len(good)):
            data = bytearray(good)
            data[i] ^= 0xFF
            p.write_bytes(bytes(data))
            try:
                got = load_checkpoint(p)
            except CheckpointCorrupt as e:
                fields.add(e.field)
                assert e.field in ("magic", "version", "truncated", "hash")
            else:
                assert isinstance(got, EngineSnapshot)
        # The sweep must have hit at least the three guarded regions.
        assert {"magic", "hash"} <= fields

    def test_corrupt_is_a_value_error(self):
        """Pre-typed resume paths catch ValueError; stay compatible."""
        assert issubclass(CheckpointCorrupt, ValueError)
        err = CheckpointCorrupt("hash", "boom")
        assert err.field == "hash"


class TestOnDiskIntegration:
    def test_engine_writes_loadable_ckpt_files(self, tmp_path):
        """With dir set, every cut lands on disk and resumes identically."""
        g = rmat_graph(7, seed=3)
        store = CheckpointStore()
        cfg = CheckpointConfig(interval=8e-5, store=store, dir=tmp_path)
        ref = run_matching(g, 4, "ncl", config=RunConfig(checkpoint=cfg))
        assert len(store) > 0
        files = sorted(tmp_path.glob("checkpoint-epoch*.ckpt"))
        assert len(files) == len(store)
        for s, f in zip(store, files):
            disk = load_checkpoint(f)
            assert disk == s
        res = run_matching(
            g, 4, "ncl",
            config=RunConfig(restore=load_checkpoint(files[-1])),
        )
        assert np.array_equal(res.mate, ref.mate)
        assert res.weight == ref.weight
        assert res.makespan == ref.makespan

    def test_load_wrong_nprocs_is_callers_problem(self, tmp_path):
        """The envelope records nprocs so the CLI can refuse a mismatched
        resume before building an engine."""
        s = snap(nprocs=8)
        back = load_checkpoint(save_checkpoint(s, tmp_path / "x.ckpt"))
        assert back.nprocs == 8
