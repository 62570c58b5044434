"""RunRecord JSON persistence."""

import pytest

from repro import api
from repro.harness import get_graph
from repro.harness.records import (
    load_records,
    merge_record_files,
    record_from_dict,
    record_to_dict,
    save_records,
)
from repro.matching.config import RunConfig
from repro.mpisim import zero_latency


@pytest.fixture(scope="module")
def sample_records():
    g = get_graph("rmat-s10")
    return [
        api.run(g, 4, m, label="rmat-s10", config=RunConfig(machine=zero_latency()))
        for m in ("nsr", "ncl")
    ]


def test_roundtrip_dict(sample_records):
    rec = sample_records[0]
    d = record_to_dict(rec)
    back = record_from_dict(d)
    assert back.graph == rec.graph
    assert back.makespan == rec.makespan
    assert back.energy.edp == rec.energy.edp
    assert back.result is None


def test_save_load_file(tmp_path, sample_records):
    path = tmp_path / "records.json"
    save_records(sample_records, path)
    loaded = load_records(path)
    assert len(loaded) == 2
    assert {r.model for r in loaded} == {"nsr", "ncl"}
    assert loaded[0].messages == sample_records[0].messages


def test_merge_newest_wins(tmp_path, sample_records):
    a, b = sample_records
    save_records([a, b], tmp_path / "base.json")
    # fake an updated NSR record
    import dataclasses

    a2 = dataclasses.replace(a, makespan=123.0)
    save_records([a2], tmp_path / "update.json")
    merged = merge_record_files([tmp_path / "base.json", tmp_path / "update.json"])
    by_model = {r.model: r for r in merged}
    assert by_model["nsr"].makespan == 123.0
    assert by_model["ncl"].makespan == b.makespan
