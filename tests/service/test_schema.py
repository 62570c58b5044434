"""Wire schema: round-trips, unknown-field rejection, version gating, TOML."""

import dataclasses
import json

import pytest

from repro.service.schema import (
    SCHEMA_VERSION,
    GraphRef,
    JobRequest,
    JobResult,
    SchemaError,
    WireConfig,
    parse_request,
)


def make_request(**over) -> JobRequest:
    kwargs = dict(
        graph=GraphRef("rmat-s10", seed=7),
        nprocs=8,
        model="ncl",
        config=WireConfig(machine="zero-latency"),
    )
    kwargs.update(over)
    return JobRequest(**kwargs)


# -- round trips -----------------------------------------------------------

def test_request_json_roundtrip():
    req = make_request()
    back = JobRequest.from_json(req.to_json())
    assert back == req
    assert back.schema_version == SCHEMA_VERSION


def test_request_roundtrip_defaults():
    """Omitted optional fields come back as library defaults."""
    body = {"graph": {"name": "rmat-s10"}, "nprocs": 4}
    req = JobRequest.from_dict(body)
    assert req.model == "nsr"
    assert req.config == WireConfig()
    assert req.graph.seed is None
    assert JobRequest.from_json(req.to_json()) == req


def test_result_json_roundtrip():
    res = JobResult(
        key="ab" * 32,
        status="ok",
        record={"makespan": 1.5, "model": "ncl"},
        artifacts=("trace.json", "phases.csv"),
        code_version="deadbeef0123",
    )
    back = JobResult.from_json(res.to_json())
    assert back == res
    # canonical serialization: same object → same bytes
    assert back.to_json() == res.to_json()


def test_result_error_roundtrip():
    res = JobResult(key="0" * 64, status="error", error="boom")
    back = JobResult.from_json(res.to_json())
    assert back.status == "error" and back.error == "boom"
    assert back.record is None and back.artifacts == ()


# -- unknown fields rejected at every nesting level ------------------------

@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda d: d.update(extra=1), "request"),
        (lambda d: d["graph"].update(scale=10), "graph"),
        (lambda d: d["config"].update(engin="vector"), "config"),
    ],
)
def test_unknown_fields_rejected(mutate, where):
    d = make_request().to_dict()
    mutate(d)
    with pytest.raises(SchemaError, match=f"{where}: unknown field"):
        JobRequest.from_dict(d)


def test_unknown_result_field_rejected():
    d = JobResult(key="0" * 64, status="ok").to_dict()
    d["recrod"] = {}
    with pytest.raises(SchemaError, match="result: unknown field"):
        JobResult.from_dict(d)


# -- version gating --------------------------------------------------------

def test_future_schema_version_rejected():
    d = make_request().to_dict()
    d["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaError, match="schema_version"):
        JobRequest.from_dict(d)
    r = JobResult(key="0" * 64, status="ok").to_dict()
    r["schema_version"] = 99
    with pytest.raises(SchemaError, match="schema_version"):
        JobResult.from_dict(r)


# -- validation ------------------------------------------------------------

@pytest.mark.parametrize(
    "over, match",
    [
        (dict(nprocs=0), "nprocs"),
        (dict(nprocs="four"), "nprocs"),
        (dict(model="simplex"), "model"),
        (dict(config=WireConfig(machine="cray-xk7")), "machine"),
        (dict(config=WireConfig(engine="gpu")), "engine"),
        (dict(config=WireConfig(scheduler="fifo")), "scheduler"),
        (dict(config=WireConfig(tie_break="random")), "tie_break"),
        (dict(config=WireConfig(max_ops="12")), "max_ops"),
        (dict(config=WireConfig(max_ops=0)), "max_ops"),
        (dict(config=WireConfig(compute_weight="no")), "compute_weight"),
        (dict(config=WireConfig(profile=1)), "profile"),
        (dict(config=WireConfig(agg_flush_bytes=-5)), "agg_flush_bytes"),
        (dict(nprocs=True), "nprocs"),
    ],
)
def test_validate_rejects(over, match):
    with pytest.raises(SchemaError, match=match):
        make_request(**over).validate()


def test_missing_required_fields():
    with pytest.raises(SchemaError, match="graph"):
        JobRequest.from_dict({"nprocs": 4})
    with pytest.raises(SchemaError, match="nprocs"):
        JobRequest.from_dict({"graph": {"name": "rmat-s10"}})
    with pytest.raises(SchemaError, match="graph.name"):
        JobRequest.from_dict({"graph": {}, "nprocs": 4})
    with pytest.raises(SchemaError, match="key"):
        JobResult.from_dict({"status": "ok"})


def test_graph_seed_type_checked():
    with pytest.raises(SchemaError, match="graph.seed"):
        GraphRef.from_dict({"name": "rmat-s10", "seed": "twelve"})


def test_bad_json_is_schema_error():
    with pytest.raises(SchemaError, match="bad JSON"):
        JobRequest.from_json(b"{nope")
    with pytest.raises(SchemaError, match="bad JSON"):
        JobResult.from_json("][")


# -- TOML / parse_request --------------------------------------------------

TOML_BODY = """
nprocs = 8
model = "ncl"

[graph]
name = "rmat-s10"
seed = 7

[config]
machine = "zero-latency"
"""


def test_parse_request_toml_matches_json():
    req_toml = parse_request(TOML_BODY.encode(), "application/toml")
    req_json = parse_request(make_request().to_json().encode(), "application/json")
    assert req_toml == req_json


def test_parse_request_defaults_to_json():
    req = parse_request(make_request().to_json().encode(), "")
    assert req == make_request()


def test_parse_request_bad_toml():
    with pytest.raises(SchemaError, match="bad TOML"):
        parse_request(b"= nonsense =", "application/toml")


def test_toml_unknown_field_rejected():
    # top-level key (before the first [table]) → request-level rejection
    body = "fanciness = 11\n" + TOML_BODY
    with pytest.raises(SchemaError, match="request: unknown field"):
        parse_request(body.encode(), "application/toml")


# -- config materialization ------------------------------------------------

def test_wire_config_to_run_config():
    cfg = WireConfig(
        machine="zero-latency",
        engine="vector",
        scheduler="reference",
        max_ops=1000,
        profile=True,
        tie_break="id",
        agg_flush_bytes=4096,
    ).to_run_config()
    # retired names are accepted on the wire and dropped before the run
    assert cfg.engine is None and cfg.scheduler is None
    assert cfg.max_ops == 1000
    assert cfg.profile is True
    assert cfg.options.tie_break == "id"
    assert cfg.options.agg_flush_bytes == 4096


def test_graph_ref_build_is_memoized_registry_graph():
    from repro.harness.spec import get_graph

    assert GraphRef("rmat-s10").build() is get_graph("rmat-s10")


def test_wire_config_to_dict_is_asdict():
    """The flat comprehension must stay what `dataclasses.asdict` gave:
    same keys, same order, same values — cache keys hash this dict."""
    cfg = WireConfig(engine="vector", max_ops=7, agg_flush_bytes=4096)
    assert list(cfg.to_dict().items()) == list(dataclasses.asdict(cfg).items())


def test_result_remembers_the_bytes_it_was_decoded_from():
    res = JobResult(key="0" * 64, status="ok", record={"makespan": 1.5})
    assert res.raw is None and res.to_bytes() == res.to_json().encode()
    spaced = json.dumps(res.to_dict(), indent=1).encode()
    back = JobResult.from_json(spaced)
    assert back == res and back.to_bytes() == spaced
    # not a wire field: never encoded, rejected when sent, not copied
    assert "raw" not in back.to_dict()
    with pytest.raises(SchemaError, match="unknown field"):
        JobResult.from_dict({**res.to_dict(), "raw": "x"})
    assert dataclasses.replace(back, key="1" * 64).raw is None


def test_cache_dict_drops_engine_only():
    # "engine only" is history: the cache key drops every retired name.
    cfg = WireConfig(engine="vector", scheduler="heap")
    d = cfg.cache_dict()
    assert "engine" not in d and "scheduler" not in d
    assert set(d) | {"engine", "scheduler"} == {
        f.name for f in dataclasses.fields(WireConfig)
    }


def test_canonical_json_key_ordering():
    """to_json sorts keys — the wire bytes are order-independent."""
    req = make_request()
    shuffled = json.loads(req.to_json())
    assert JobRequest.from_dict(dict(reversed(list(shuffled.items())))) == req
