"""Content-addressed result store: atomicity, counters, path hygiene."""

import json

import pytest

from repro.service.schema import JobResult
from repro.service.store import ResultStore, read_store_meta, write_store_meta

KEY = "ab" * 32
OTHER = "cd" * 32


def make_result(key=KEY, **over):
    kwargs = dict(key=key, status="ok", record={"makespan": 2.0},
                  code_version="deadbeef0123")
    kwargs.update(over)
    return JobResult(**kwargs)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def test_lookup_counts_miss_then_hit(store):
    assert store.lookup(KEY) is None
    store.put(make_result())
    assert store.lookup(KEY) == make_result()
    assert store.stats() == {"objects": 1, "cache_hits": 1, "cache_misses": 1}


def test_peek_does_not_touch_counters(store):
    assert store.peek(KEY) is None
    store.put(make_result())
    assert store.peek(KEY) == make_result()
    assert store.stats()["cache_hits"] == 0
    assert store.stats()["cache_misses"] == 0


def test_contains_and_len(store):
    assert not store.contains(KEY)
    store.put(make_result())
    store.put(make_result(key=OTHER))
    assert store.contains(KEY) and store.contains(OTHER)
    assert store.stats()["objects"] == 2


def test_stored_bytes_are_the_canonical_json(store):
    store.put(make_result())
    on_disk = (store.objects / KEY / "result.json").read_text()
    assert on_disk == make_result().to_json()


def test_lookup_carries_the_stored_bytes(store):
    store.put(make_result())
    on_disk = (store.objects / KEY / "result.json").read_bytes()
    assert store.lookup(KEY).raw == on_disk
    assert store.peek(KEY).raw == on_disk


def test_a_published_entry_is_served_from_memory(store, monkeypatch):
    from repro.service import store as store_module

    store.put(make_result())

    def no_open(*args, **kwargs):
        raise AssertionError("read the disk for a key the store has seen")

    monkeypatch.setattr(store_module, "open", no_open, raising=False)
    assert store.lookup(KEY) == make_result()
    assert store.peek(KEY).raw == make_result().to_json().encode()


def test_memory_map_is_bounded_and_evicted_keys_still_hit(store, monkeypatch):
    from repro.service import store as store_module

    monkeypatch.setattr(store_module, "OBJECTS_KEPT", 2)
    keys = [f"{i:064x}" for i in range(5)]
    for key in keys:
        store.put(make_result(key=key))
        assert len(store._kept) <= 2
    assert keys[0] not in store._kept
    on_disk = (store.objects / keys[0] / "result.json").read_bytes()
    assert store.lookup(keys[0]).raw == on_disk  # read back from disk
    assert len(store._kept) <= 2
    assert store.stats()["cache_hits"] == 1


def test_a_reopened_store_serves_the_stored_bytes(store):
    store.put(make_result())
    on_disk = (store.objects / KEY / "result.json").read_bytes()
    reopened = ResultStore(store.root)  # as after a server restart
    assert reopened.lookup(KEY).to_bytes() == on_disk
    assert reopened.peek(KEY).to_bytes() == on_disk


def test_artifacts_roundtrip(store):
    arts = {"trace.json": b'{"spans": []}', "phases.csv": b"rank,phase\n"}
    store.put(make_result(artifacts=tuple(sorted(arts))), artifacts=arts)
    assert store.artifact_names(KEY) == ["phases.csv", "trace.json"]
    path = store.artifact_path(KEY, "trace.json")
    assert path is not None and path.read_bytes() == arts["trace.json"]


def test_artifact_path_refuses_escapes(store):
    store.put(make_result(), artifacts={"ok.txt": b"fine"})
    for name in ("../secrets", "a/b", "..\\b", ".hidden", "", "result.json"):
        assert store.artifact_path(KEY, name) is None
    assert store.artifact_path(KEY, "ok.txt") is not None


def test_put_rejects_malformed_artifact_names(store):
    with pytest.raises(ValueError, match="malformed artifact name"):
        store.put(make_result(), artifacts={"../evil": b"x"})
    assert not store.contains(KEY)  # staged dir rolled back, nothing published


def test_malformed_keys_rejected(store):
    for bad in ("", "xyz!", "ABCDEF", "../../etc"):
        with pytest.raises(ValueError, match="malformed content key"):
            store.lookup(bad)
    with pytest.raises(ValueError, match="malformed content key"):
        store.put(make_result(key="not-hex"))


def test_same_key_race_is_idempotent(store):
    """Losing writer drops its stage; the first bytes stay published."""
    store.put(make_result(), artifacts={"a.txt": b"first"})
    store.put(make_result(), artifacts={"a.txt": b"first"})
    assert store.lookup(KEY) == make_result()
    assert store.artifact_path(KEY, "a.txt").read_bytes() == b"first"
    # no stray staging directories left behind
    assert list(store.tmp.iterdir()) == []


def test_store_meta_roundtrip(tmp_path):
    write_store_meta(tmp_path, "deadbeef0123")
    assert read_store_meta(tmp_path) == {"code_version": "deadbeef0123"}
    assert json.loads((tmp_path / "META.json").read_text())


def test_store_meta_unreadable(tmp_path):
    from repro.service.schema import SchemaError

    with pytest.raises(SchemaError, match="META.json"):
        read_store_meta(tmp_path / "nowhere")
