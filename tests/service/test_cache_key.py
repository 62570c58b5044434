"""Cache-key determinism: the key is a pure function of what changes bytes.

The contract under test (ISSUE: matching-as-a-service):

* same (graph spec, config, code_version) → same key; the retired
  ``engine`` and ``scheduler`` names are not config fields (a request
  naming one is rejected), and the key never hashed them, so results
  stored while they were accepted keep their keys;
* changing *any* config field, the problem (graph / nprocs / model), or
  the code version → a different key.
"""

import dataclasses

import pytest

from repro.service.schema import GraphRef, JobRequest, SchemaError, WireConfig

CODE = "deadbeef0123"


def make_request(**over) -> JobRequest:
    kwargs = dict(
        graph=GraphRef("rmat-s10", seed=7),
        nprocs=8,
        model="ncl",
        config=WireConfig(machine="zero-latency"),
    )
    kwargs.update(over)
    return JobRequest(**kwargs)


def test_key_is_deterministic_and_hex():
    k1 = make_request().cache_key(CODE)
    k2 = make_request().cache_key(CODE)
    assert k1 == k2
    assert len(k1) == 64 and set(k1) <= set("0123456789abcdef")


def test_roundtripped_request_same_key():
    req = make_request()
    assert JobRequest.from_json(req.to_json()).cache_key(CODE) == req.cache_key(CODE)


# -- the retired engine and scheduler: no field, no key change --------------

def _with_config_entry(name, value) -> dict:
    d = make_request().to_dict()
    if value is not None:
        d["config"][name] = value
    return d


@pytest.mark.parametrize("engine", [None, "threaded", "coroutine", "vector"])
def test_engine_choice_shares_the_key(engine):
    # A request without the name decodes to the very key it had while the
    # name was accepted; one naming any engine is an unknown field.
    d = _with_config_entry("engine", engine)
    if engine is None:
        assert JobRequest.from_dict(d).cache_key(CODE) == make_request().cache_key(CODE)
        return
    with pytest.raises(SchemaError, match="unknown field.*'engine'"):
        JobRequest.from_dict(d)


@pytest.mark.parametrize("scheduler", [None, "heap", "reference"])
def test_scheduler_choice_shares_the_key(scheduler):
    d = _with_config_entry("scheduler", scheduler)
    if scheduler is None:
        assert JobRequest.from_dict(d).cache_key(CODE) == make_request().cache_key(CODE)
        return
    with pytest.raises(SchemaError, match="unknown field.*'scheduler'"):
        JobRequest.from_dict(d)


# -- every other WireConfig field is key-relevant --------------------------

#: a value different from the field default, per field
_FLIPPED = {
    "machine": "commodity",
    "max_ops": 12345,
    "compute_weight": False,
    "profile": True,
    "trace": True,
    "tie_break": "id",
    "eager_reject": True,
    "agg_flush_bytes": 9999,
    "agg_flush_count": 77,
}


def test_flip_table_covers_every_config_field():
    """If WireConfig grows a field, this table (and the key) must decide it."""
    names = {f.name for f in dataclasses.fields(WireConfig)}
    assert names == set(_FLIPPED)


@pytest.mark.parametrize("field", sorted(_FLIPPED))
def test_any_other_config_field_changes_the_key(field):
    base = make_request(config=WireConfig()).cache_key(CODE)
    flipped = WireConfig(**{field: _FLIPPED[field]})
    assert make_request(config=flipped).cache_key(CODE) != base


# -- problem identity and code version -------------------------------------

@pytest.mark.parametrize(
    "over",
    [
        dict(graph=GraphRef("rmat-s11", seed=7)),
        dict(graph=GraphRef("rmat-s10", seed=8)),
        dict(graph=GraphRef("rmat-s10", seed=None)),
        dict(nprocs=16),
        dict(model="nsr"),
    ],
)
def test_problem_change_changes_the_key(over):
    assert make_request(**over).cache_key(CODE) != make_request().cache_key(CODE)


def test_code_version_changes_the_key():
    req = make_request()
    assert req.cache_key("aaaaaaaaaaaa") != req.cache_key("bbbbbbbbbbbb")


# -- batch keys -------------------------------------------------------------

def test_batch_key_groups_by_graph_recipe_only():
    a = make_request(nprocs=2, model="nsr")
    b = make_request(nprocs=64, model="rma",
                     config=WireConfig(machine="commodity", profile=True))
    assert a.batch_key() == b.batch_key()  # same graph recipe → one batch
    assert a.cache_key(CODE) != b.cache_key(CODE)
    other_seed = make_request(graph=GraphRef("rmat-s10", seed=9))
    other_name = make_request(graph=GraphRef("rgg-8k", seed=7))
    assert other_seed.batch_key() != a.batch_key()
    assert other_name.batch_key() != a.batch_key()
