"""The knob table (repro.knobs) and the entries derived from it.

Every run knob is declared once; the CLI flags of match / profile /
chaos / submit, the ``--config`` checks, the wire schema and the mapping
to RunConfig come from the table. These tests pin the flag surface,
the precedence of typed flags over profile values, the top-level
profile keys, and that every entry refuses a bad value with one reason.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import _match_config, _submit_request, build_parser, main, parse_args
from repro.knobs import WIRE, knobs
from repro.matching import MatchingOptions, RunConfig
from repro.mpisim.machine import cori_aries, get_machine
from repro.service.schema import GraphRef, JobRequest, SchemaError, WireConfig

PROFILES = Path(__file__).resolve().parents[1] / "examples" / "profiles"

MODELS = ["nsr", "rma", "ncl", "mbp", "incl", "nsr-agg"]

#: every subcommand's (dest, type, default, choices), 70 settable values.
#: Taken from the hand-written parser this table replaced; the one change
#: is `profile -b/--backend`, whose dest is now the shared `model` knob.
FLAGS = {
    "datasets": {},
    "experiments": {},
    "run": {"exp_id": (None, None, None), "full": (None, False, None)},
    "report": {"path": (None, "EXPERIMENTS.md", None), "full": (None, False, None)},
    "bundle": {
        "dir": (None, "artifacts", None), "only": (None, "", None),
        "full": (None, False, None),
    },
    "match": {
        "dataset": (None, None, None),
        "nprocs": ("int", 16, None),
        "model": (None, "ncl", MODELS),
        "machine": (None, "cori-aries", None),
        "config": (None, "", None),
        "agg_flush_bytes": ("int", 8192, None),
        "agg_flush_count": ("int", 0, None),
        "drop_rate": ("float", 0.0, None),
        "dup_rate": ("float", 0.0, None),
        "delay_rate": ("float", 0.0, None),
        "fault_seed": ("int", 0, None),
        "crash": (None, [], None),
        "detect_latency": ("float", 1e-05, None),
        "rma_drop_rate": ("float", 0.0, None),
        "rma_corrupt_rate": ("float", 0.0, None),
        "degrade": (None, [], None),
        "max_ops": ("int", None, None),
        "partition": (None, [], None),
        "churn_mtbf": ("float", 0.0, None),
        "churn_horizon": ("float", 0.0, None),
        "spares": ("int", 0, None),
        "replicas": ("int", 2, None),
        "checkpoint_interval": ("float", 0.0, None),
        "checkpoint_dir": (None, "", None),
        "kill_at": ("float", None, None),
        "resume": (None, "", None),
    },
    "profile": {
        "dataset": (None, "rgg-8k", None),
        "nprocs": ("int", 8, None),
        "model": (None, "ncl", MODELS),
        "machine": (None, "cori-aries", None),
        "config": (None, "", None),
        "out": (None, "", None),
    },
    "chaos": {
        "dataset": (None, "rgg-8k", None),
        "nprocs": ("int", 8, None),
        "plans": ("int", 30, None),
        "seed": ("int", 1, None),
        "backends": (None, "nsr,rma,ncl", None),
        "max_ops": ("int", 2000000, None),
        "no_shrink": (None, False, None),
        "restart": (None, False, None),
        "churn": (None, False, None),
        "mtbf": ("float", None, None),
        "spares": ("int", 16, None),
        "replicas": ("int", 2, None),
        "csv": (None, "", None),
        "config": (None, "", None),
    },
    "serve": {
        "host": (None, "127.0.0.1", None),
        "port": ("int", 8123, None),
        "store": (None, "service-store", None),
        "workers": ("int", 2, None),
        "mp_context": (None, "spawn", ["spawn", "fork"]),
        "linger": ("float", 0.0, None),
    },
    "submit": {
        "dataset": (None, "", None),
        "nprocs": ("int", 16, None),
        "model": (None, "ncl", MODELS),
        "machine": (None, "cori-aries", None),
        "seed": ("int", None, None),
        "profile": (None, False, None),
        "request": (None, "", None),
        "url": (None, "http://127.0.0.1:8123", None),
        "no_wait": (None, False, None),
        "timeout": ("float", 630.0, None),
        "json": (None, False, None),
    },
}


def test_flag_surface_is_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {
            a.dest: (getattr(a.type, "__name__", None), a.default,
                     list(a.choices) if a.choices else None)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, p in sub.choices.items()
    }
    assert got == FLAGS
    assert sum(map(len, got.values())) == 70


# -- --config precedence: defaults, then the file, then typed flags --------

def test_typed_flag_equal_to_its_default_beats_the_profile():
    profile = str(PROFILES / "nsr-agg-match.toml")  # model nsr-agg, nprocs 32
    args = parse_args(["match", "rmat-s10", "--config", profile])
    assert (args.model, args.nprocs) == ("nsr-agg", 32)
    # -p 16 and -m ncl are the table defaults, but they were typed
    args = parse_args(["match", "rmat-s10", "--config", profile,
                       "-p", "16", "-m", "ncl"])
    assert (args.model, args.nprocs) == ("ncl", 16)


def test_typed_repeatable_flag_adds_to_the_profile_list(tmp_path):
    path = tmp_path / "p.toml"
    path.write_text('[match]\ncrash = "1:1e-4"\n')
    args = parse_args(["match", "rmat-s10", "--config", str(path)])
    assert args.crash == ["1:1e-4"]
    args = parse_args(["match", "rmat-s10", "--config", str(path),
                       "--crash", "0:2e-4"])
    assert args.crash == ["1:1e-4", "0:2e-4"]


# -- top-level profile keys -------------------------------------------------

def test_top_level_keys_apply_to_every_command_that_takes_them(tmp_path):
    path = tmp_path / "p.toml"
    path.write_text('model = "nsr"\nplans = 5\nnprocs = 4\n')
    args = parse_args(["profile", "--config", str(path)])
    assert (args.model, args.nprocs) == ("nsr", 4)
    args = parse_args(["chaos", "--config", str(path)])
    assert (args.plans, args.nprocs) == (5, 4)
    args = parse_args(["match", "rmat-s10", "--config", str(path)])
    assert (args.model, args.nprocs) == ("nsr", 4)
    # the shipped chaos profile's top-level nprocs reaches `profile` too
    args = parse_args(["profile", "--config", str(PROFILES / "chaos-nightly.toml")])
    assert args.nprocs == 16


@pytest.mark.parametrize(
    "text, key",
    [("banana = 1\n", "banana"),
     ("[profile]\nplans = 5\n", "plans"),
     ("[profile]\nbackend = \"nsr\"\n", "backend"),
     ("[profile]\nconfig = \"other.toml\"\n", "config")],
    ids=["top-level-typo", "other-command-knob", "flag-spelling", "config"],
)
def test_unknown_keys_stay_loud(text, key, tmp_path, capsys):
    path = tmp_path / "p.toml"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: {key} = ")
    assert err.endswith("unknown key for command 'profile'\n")
    assert err.count("\n") == 1


# -- one reason at every entry ---------------------------------------------

_BAD = [
    ("machine", "banana",
     "must be one of ['commodity', 'cori-aries', 'zero-latency'], got 'banana'"),
    ("agg_flush_bytes", -1, "must be an integer >= 0, got -1"),
    ("agg_flush_count", -3, "must be an integer >= 0, got -3"),
    ("max_ops", 0, "must be an integer >= 1, got 0"),
    ("max_ops", -1, "must be an integer >= 1, got -1"),
    ("nprocs", 0, "must be an integer >= 1, got 0"),
]


def _toml(value) -> str:
    return json.dumps(value)  # JSON scalars are TOML scalars


def _cli_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err.rstrip("\n")


@pytest.mark.parametrize("entry", ["flag", "toml", "wire"])
@pytest.mark.parametrize("name, value, reason", _BAD,
                         ids=[f"{n}={v}" for n, v, _ in _BAD])
def test_bad_value_is_refused_with_one_reason(name, value, reason, entry,
                                              tmp_path, capsys):
    if entry == "flag":
        flag = knobs("match")[name].flags[-1]
        err = _cli_error(["match", "rmat-s10", flag, str(value)], capsys)
        assert err == f"repro match: error: argument {'/'.join(knobs('match')[name].flags)}: {reason}"
    elif entry == "toml":
        path = tmp_path / "bad.toml"
        path.write_text(f"[match]\n{name} = {_toml(value)}\n")
        err = _cli_error(["match", "rmat-s10", "--config", str(path)], capsys)
        assert err == f"{path}: {name} = {value!r}: {reason}"
    else:
        if name == "nprocs":
            request, where = JobRequest(GraphRef("rmat-s10"), value), name
        else:
            request = JobRequest(GraphRef("rmat-s10"), 8,
                                 config=WireConfig(**{name: value}))
            where = f"config.{name}"
        with pytest.raises(SchemaError) as exc:
            request.validate()
        assert str(exc.value) == f"{where} {reason}"


# -- the property: every entry maps a knob to the same RunConfig -----------

WIRE_KNOBS = sorted(knobs(WIRE))


def _by_hand(name: str, value) -> RunConfig:
    """The RunConfig a wire knob value stands for, written out."""
    fields = {"machine": cori_aries(), "options": MatchingOptions()}
    if name == "machine":
        fields["machine"] = get_machine(value)
    elif name in ("tie_break", "eager_reject"):
        fields["options"] = MatchingOptions(**{name: value})
    elif name in ("agg_flush_bytes", "agg_flush_count"):
        fields["options"] = MatchingOptions(**{name: value or None})  # 0: off
    else:
        fields[name] = value
    return RunConfig(**fields)


def _valid(knob):
    if knob.kind is bool:
        return st.booleans()
    if knob.choices is not None:
        return st.sampled_from(knob.allowed())
    return st.integers(min_value=knob.least, max_value=10**9)


_WORD = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1).filter(
    lambda s: not s.startswith("-"))


def _invalid(knob):
    if knob.kind is bool:
        return st.integers(-(2**62), 2**62) | _WORD
    if knob.choices is not None:
        return _WORD.filter(lambda s: s not in knob.allowed()) | st.integers(0, 9)
    # TOML integers are 64-bit
    return st.integers(-(2**62), knob.least - 1) | st.booleans() | _WORD


def _entries(name: str, value, tmp: Path):
    """``(entry, thunk)`` for each entry that can express ``value``."""
    out = [("wire", lambda: WireConfig(**{name: value}).to_run_config())]
    for command in ("match", "submit"):
        knob = knobs(command).get(name)
        if knob is None or type(value) is not knob.kind:
            continue
        if knob.kind is bool:
            flags = [knob.flags[-1]] if value else []
        else:
            flags = [knob.flags[-1], str(value)]
        argv = [command, "rmat-s10", *flags]
        if command == "match":
            out.append(("match flag", lambda argv=argv: _match_config(parse_args(argv))))
        else:
            out.append(("submit flag", lambda argv=argv: _submit_request(
                parse_args(argv)).config.to_run_config()))
    if name in knobs("match"):
        path = tmp / "profile.toml"

        def toml():
            path.write_text(f"[match]\n{name} = {_toml(value)}\n")
            return _match_config(parse_args(["match", "rmat-s10", "--config", str(path)]))

        out.append(("toml", toml))
    return out


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("knobs")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_entry_maps_a_valid_value_to_the_same_run_config(data, tmp):
    name = data.draw(st.sampled_from(WIRE_KNOBS))
    value = data.draw(_valid(knobs(WIRE)[name]))
    want = _by_hand(name, value)
    for entry, run in _entries(name, value, tmp):
        assert run() == want, entry


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_entry_refuses_an_invalid_value_with_the_same_reason(data, tmp):
    name = data.draw(st.sampled_from(WIRE_KNOBS))
    value = data.draw(_invalid(knobs(WIRE)[name]))
    with pytest.raises(SchemaError) as exc:
        WireConfig(**{name: value}).validate()
    prefix = f"config.{name} "
    assert str(exc.value).startswith(prefix)
    reason = str(exc.value)[len(prefix):]
    for entry, run in _entries(name, value, tmp):
        if entry == "wire":
            continue
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as refused:
            run()
        assert refused.value.code == 2, entry
        line = err.getvalue()
        assert line.count("\n") == 1 and line.endswith(f": {reason}\n"), (entry, line)


def test_chaos_signature_defaults_come_from_the_table():
    """``api.chaos`` and the churn runner default as ``repro chaos`` does."""
    import inspect

    from repro import api
    from repro.harness.chaos import churn_matching_runner

    table = {name: k.defaults["chaos"] for name, k in knobs("chaos").items()}
    table["backends"] = tuple(table["backends"].split(","))
    for fn, names in [
        (api.chaos, ("backends", "plans", "seed", "max_ops", "spares",
                     "replicas", "mtbf")),
        (churn_matching_runner, ("spares", "replicas")),
    ]:
        params = inspect.signature(fn).parameters
        assert {n: params[n].default for n in names} == \
            {n: table[n] for n in names}, fn.__name__
