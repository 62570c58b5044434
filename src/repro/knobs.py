"""The knob table: every setting of every ``repro`` command, declared once.

A :class:`Knob` row holds a setting's name (argparse dest, ``--config``
TOML key and wire field), type, default per command, help, flag
spellings, and range or choices. The CLI parser, the ``--config``
checks, the wire schema's ``WireConfig`` and :func:`run_config` are
derived from :data:`KNOBS`, so every entry refuses a bad value with the
same :meth:`Knob.check` reason. A knob with a :data:`WIRE` default is a
``WireConfig`` field; ``None`` there means the library default.

Stdlib only at import time: the service client reaches this module
through the wire schema and must not load numpy or the simulator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

#: the pseudo-command whose defaults are the wire schema's config fields
WIRE = "wire"


@functools.cache
def machine_presets() -> tuple[str, ...]:
    """The machine-model preset names (imported on first use only)."""
    from repro.mpisim.machine import PRESETS

    return tuple(sorted(PRESETS))


@dataclass(frozen=True, slots=True)
class Knob:
    """One setting (see the module docstring)."""

    name: str
    kind: type  #: bool, int, float or str: the value's type everywhere
    defaults: Mapping[str, Any]  #: command (or WIRE) -> default; a None
    #: default makes None an accepted value ("not set")
    help: str | None = None
    #: CLI spellings, ``--`` + the dashed name unless given; () = positional
    flags: tuple[str, ...] | None = None
    least: int | float | None = None  #: smallest accepted value
    #: accepted values, or a function returning them on first use
    choices: tuple[str, ...] | Callable[[], tuple[str, ...]] | None = None
    repeat: bool = False  #: a list of strings, one flag per item
    metavar: str | None = None

    def __post_init__(self) -> None:
        if self.flags is None:
            object.__setattr__(self, "flags", ("--" + self.name.replace("_", "-"),))

    def allowed(self) -> tuple[str, ...] | None:
        choices = self.choices
        return choices() if callable(choices) else choices

    def check(self, value):
        """``value`` as this knob takes it (an int widened for a float
        knob, a lone string listed for a repeatable one), or
        ``ValueError`` with the reason every entry reports. The wire
        schema checks every request, so the common case comes first."""
        kind = self.kind
        if type(value) is kind and not self.repeat:
            if self.choices is None:
                if self.least is None or value >= self.least:
                    return value
            elif value in self.allowed():
                return value
        elif value is None:
            if None in self.defaults.values():
                return value
        elif self.repeat:
            items = [value] if type(value) is str else value
            if type(items) is list and all(type(v) is str for v in items):
                return items
        elif kind is float and type(value) is int:
            if self.least is None or value >= self.least:
                return float(value)
        raise ValueError(f"must be {self._want()}, got {value!r}")

    def _want(self) -> str:
        if self.repeat:
            return "a string or a list of strings"
        if self.choices is not None:
            return f"one of {list(self.allowed())}"
        want = {bool: "true or false", int: "an integer", float: "a number",
                str: "a string"}[self.kind]
        return want if self.least is None else f"{want} >= {self.least}"


_MODEL = Knob("model", str, {"match": "ncl", "submit": "ncl"}, flags=("-m", "--model"),
              choices=("nsr", "rma", "ncl", "mbp", "incl", "nsr-agg"))

KNOBS: tuple[Knob, ...] = (
    Knob("dataset", str,
         {"match": None, "profile": "rgg-8k", "chaos": "rgg-8k", "submit": ""},
         flags=()),
    Knob("nprocs", int, {"match": 16, "profile": 8, "chaos": 8, "submit": 16},
         flags=("-p", "--nprocs"), least=1),
    _MODEL,
    replace(_MODEL, defaults={"profile": "ncl"}, flags=("-b", "--backend")),
    Knob("machine", str,
         {"match": "cori-aries", "profile": "cori-aries", "submit": "cori-aries",
          WIRE: "cori-aries"},
         choices=machine_presets),
    Knob("config", str, {"match": "", "profile": "", "chaos": ""},
         "run profile; fills in flags not typed", metavar="FILE.toml"),
    # -- the wire config --------------------------------------------------
    Knob("max_ops", int, {"match": None, "chaos": 2_000_000, WIRE: None},
         "scheduler-operation budget per run (a chaos run over budget is "
         "classified as a hang)", least=1),
    Knob("compute_weight", bool, {WIRE: True}),
    Knob("profile", bool, {"submit": False, WIRE: False},
         "span-profiled run; artifacts land in the service store"),
    Knob("trace", bool, {WIRE: False}),
    Knob("tie_break", str, {WIRE: "hash"}, choices=("hash", "id")),
    Knob("eager_reject", bool, {WIRE: False}),
    Knob("agg_flush_bytes", int, {"match": 8192, WIRE: None},
         "nsr-agg lane auto-flush byte threshold (0 disables)", least=0),
    Knob("agg_flush_count", int, {"match": 0, WIRE: None},
         "nsr-agg lane auto-flush message count (0 disables)", least=0),
    # -- repro match: faults, checkpoints, recovery -----------------------
    Knob("drop_rate", float, {"match": 0.0}, "message drop probability"),
    Knob("dup_rate", float, {"match": 0.0}, "message duplication probability"),
    Knob("delay_rate", float, {"match": 0.0}, "message extra-delay probability"),
    Knob("fault_seed", int, {"match": 0}, "seed for the fault plan"),
    Knob("crash", str, {"match": []},
         "crash RANK at virtual TIME seconds (repeatable)",
         repeat=True, metavar="RANK:TIME"),
    Knob("detect_latency", float, {"match": 1e-5},
         "seconds after a crash before survivors are notified"),
    Knob("rma_drop_rate", float, {"match": 0.0},
         "one-sided put silent-loss probability (rma model only)"),
    Knob("rma_corrupt_rate", float, {"match": 0.0},
         "one-sided put bit-flip probability (rma model only)"),
    Knob("degrade", str, {"match": []},
         "slow RANK's NIC by FACTOR during [T0, T1) (repeatable)",
         repeat=True, metavar="RANK:T0:T1:FACTOR"),
    Knob("partition", str, {"match": []},
         "network partition over virtual [T0, T1): rank groups like "
         "0,1|2,3 cannot reach each other until the heal (repeatable)",
         repeat=True, metavar="T0:T1:G0|G1"),
    Knob("churn_mtbf", float, {"match": 0.0},
         "stream Poisson crash churn through the run: per-rank mean time "
         "between failures in virtual seconds (needs --churn-horizon and "
         "--spares; seeded by --fault-seed)", metavar="SECONDS"),
    Knob("churn_horizon", float, {"match": 0.0},
         "virtual time past which no more churn events fire",
         metavar="SECONDS"),
    Knob("spares", int, {"match": 0, "chaos": 16},
         "warm-standby rank budget: > 0 turns on automatic "
         "rollback-recovery, each healed crash consuming one spare (match "
         "needs --checkpoint-interval, defaulted to mtbf/8 for churn runs; "
         "chaos uses it in --churn mode)"),
    Knob("replicas", int, {"match": 2, "chaos": 2},
         "buddy-replication degree k for the diskless replicated "
         "checkpoint store (used with --spares)"),
    Knob("checkpoint_interval", float, {"match": 0.0},
         "take coordinated checkpoints every this many virtual seconds"),
    Knob("checkpoint_dir", str, {"match": ""},
         "also persist each checkpoint as a .ckpt file here"),
    Knob("kill_at", float, {"match": None},
         "kill the run at this virtual time (restart testing)"),
    Knob("resume", str, {"match": ""},
         "resume from a saved checkpoint instead of starting fresh (pass "
         "the same dataset/-p/-m/fault flags as the original run)",
         metavar="FILE.ckpt"),
    # -- repro profile ----------------------------------------------------
    Knob("out", str, {"profile": ""},
         "directory for the artifact bundle (Chrome trace JSON, phase "
         "CSVs, comm matrices, critical path)"),
    # -- repro chaos ------------------------------------------------------
    Knob("plans", int, {"chaos": 30}, "fault plans to sample"),
    Knob("seed", int, {"chaos": 1}, "sampling seed"),
    Knob("backends", str, {"chaos": "nsr,rma,ncl"},
         "comma-separated backends to round-robin over"),
    Knob("no_shrink", bool, {"chaos": False}, "report failures without shrinking"),
    Knob("restart", bool, {"chaos": False},
         "checkpoint/restart mode: kill each run at sampled points, resume "
         "from the latest checkpoint, and require bit-identical completion "
         "(reports rollback/retry/spurious-detection costs)"),
    Knob("churn", bool, {"chaos": False},
         "crash-churn mode: stream Poisson crashes through whole runs under "
         "automatic rollback-recovery; surviving runs must match the "
         "fault-free mate/weight bit-identically, given-up runs must fail "
         "deterministically with a classified report (reports spares used, "
         "cuts lost to buddy death, mean recovery latency)"),
    Knob("mtbf", float, {"chaos": None},
         "churn mode: pin the per-rank MTBF to FACTOR x the backend's "
         "fault-free makespan instead of sampling the factor from [0.6, 3)",
         metavar="FACTOR"),
    Knob("csv", str, {"chaos": ""},
         "also write the per-plan verdicts + recovery-cost columns as CSV "
         "('-' for stdout)", metavar="FILE"),
    # -- repro submit -----------------------------------------------------
    Knob("seed", int, {"submit": None},
         "graph generator seed (default: registry seed)"),
    Knob("request", str, {"submit": ""},
         "submit this TOML JobRequest instead of building one from flags",
         metavar="FILE.toml"),
    Knob("url", str, {"submit": "http://127.0.0.1:8123"}),
    Knob("no_wait", bool, {"submit": False},
         "return the job id immediately instead of waiting for the result"),
    Knob("timeout", float, {"submit": 630.0}),
    Knob("json", bool, {"submit": False}, "print the raw response envelope"),
    # -- repro run / report / bundle / serve: no run settings -------------
    Knob("exp_id", str, {"run": None}, flags=()),
    Knob("path", str, {"report": "EXPERIMENTS.md"}, flags=()),
    Knob("dir", str, {"bundle": "artifacts"}, flags=()),
    Knob("only", str, {"bundle": ""}, "comma-separated experiment ids"),
    Knob("full", bool, {"run": False, "report": False, "bundle": False},
         "full-size configuration"),
    Knob("host", str, {"serve": "127.0.0.1"}),
    Knob("port", int, {"serve": 8123}, "0 picks an ephemeral port"),
    Knob("store", str, {"serve": "service-store"},
         "content-addressed result/artifact store directory"),
    Knob("workers", int, {"serve": 2},
         "worker processes (0 = run jobs inline, single-process)"),
    Knob("mp_context", str, {"serve": "spawn"},
         "multiprocessing start method for the worker pool",
         choices=("spawn", "fork")),
    Knob("linger", float, {"serve": 0.0},
         "seconds a free worker waits to collect overlapping requests into "
         "one batch (default 0: an idle server dispatches at once; requests "
         "that arrive while every worker is busy are batched regardless)"),
)

#: every knob name some command (or the wire) takes
NAMES = frozenset(k.name for k in KNOBS)


@functools.cache
def knobs(command: str) -> Mapping[str, Knob]:
    """The knobs ``command`` (or :data:`WIRE`) takes, by name, in table order."""
    return {k.name: k for k in KNOBS if command in k.defaults}


def default(command: str, name: str) -> Any:
    """Knob ``name``'s default in ``command`` (or :data:`WIRE`)."""
    return knobs(command)[name].defaults[command]


def run_config(values: Mapping[str, Any], **fields):
    """The ``RunConfig`` for wire-knob ``values`` (a missing knob takes
    its wire default) plus the ``fields`` no knob sets."""
    from repro.matching.config import RunConfig
    from repro.matching.driver import MatchingOptions
    from repro.mpisim.machine import get_machine

    v = {name: values.get(name, k.defaults[WIRE]) for name, k in knobs(WIRE).items()}
    options = {"tie_break": v["tie_break"], "eager_reject": v["eager_reject"]}
    for name in ("agg_flush_bytes", "agg_flush_count"):
        if v[name] is not None:  # None: the MatchingOptions default
            options[name] = v[name] or None  # 0 disables the threshold
    return RunConfig(
        machine=get_machine(v["machine"]),
        options=MatchingOptions(**options),
        max_ops=v["max_ops"],
        compute_weight=v["compute_weight"],
        profile=v["profile"],
        trace=v["trace"],
        **fields,
    )
