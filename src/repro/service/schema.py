"""Versioned wire schema shared by server, client, and the TOML loaders.

`JobRequest` describes one run the service should produce (graph recipe +
process count + model + a serializable :class:`WireConfig` slice of
:class:`~repro.matching.config.RunConfig`); `JobResult` is the stable
payload served back — the *same bytes* whether computed or replayed from
the content-addressed cache.

Design rules:

* every message carries ``schema_version``; a decoder rejects versions it
  does not speak rather than guessing;
* decoding rejects **unknown fields** at every nesting level — a typo'd
  tunable must fail loudly, not silently run the default configuration
  and poison the cache under the wrong key;
* the cache key is a pure function of (graph, nprocs, model, config,
  code_version) (docs/service.md).

Bodies may be JSON or TOML (the same shape); :func:`parse_request` and
:func:`loads_toml` are the single decoding path for the HTTP server, the
`repro submit` CLI, and ``--config`` run profiles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

SCHEMA_VERSION = 1

#: models the service will execute (mirrors the `repro match` choices)
MODELS = ("nsr", "rma", "ncl", "mbp", "incl", "nsr-agg")

#: config fields that must be a JSON/TOML boolean, not merely truthy
_BOOL_FIELDS = ("compute_weight", "profile", "trace", "eager_reject")
#: optional integer config fields and the least value each accepts
_INT_FIELDS = (("max_ops", 1), ("agg_flush_bytes", 0), ("agg_flush_count", 0))


class SchemaError(ValueError):
    """A request/result body that does not speak this schema."""


def _is_int(value) -> bool:
    """A JSON integer: an ``int`` but not a ``bool``, which subclasses it."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_toml_module():
    """Return a tomllib-compatible module (3.11+ stdlib or tomli)."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ModuleNotFoundError:
            raise SchemaError(
                "TOML support requires Python 3.11+ (tomllib) or the "
                "tomli package; neither is available"
            ) from None
    return tomllib


def loads_toml(text: str) -> dict:
    """Parse TOML text into a plain dict (SchemaError on bad TOML)."""
    tomllib = load_toml_module()
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as e:
        raise SchemaError(f"bad TOML: {e}") from None


def load_toml_file(path: str) -> dict:
    """Read + parse a TOML file (SchemaError on bad TOML, OSError passes)."""
    with open(path, "rb") as f:
        data = f.read()
    return loads_toml(data.decode("utf-8"))


def _reject_unknown(cls, d: dict, context: str) -> None:
    known = {f.name for f in fields(cls) if f.init}
    unknown = sorted(set(d) - known)
    if unknown:
        raise SchemaError(
            f"{context}: unknown field(s) {unknown}; known fields are "
            f"{sorted(known)}"
        )


def _check_version(d: dict, context: str) -> None:
    v = d.get("schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise SchemaError(
            f"{context}: schema_version {v!r} not supported; this build "
            f"speaks version {SCHEMA_VERSION}"
        )


@dataclass(frozen=True)
class GraphRef:
    """A graph by recipe, not by payload: registry name + generator seed.

    Graphs are deterministic functions of (name, seed) via the Table II
    registry (:mod:`repro.harness.spec`), so a few bytes of reference
    reproduce the exact CSR on any worker — and hash into the cache key.
    """

    name: str
    seed: int | None = None  #: None → the registry default seed

    def to_dict(self) -> dict:
        d: dict = {"name": self.name}
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GraphRef":
        if not isinstance(d, dict):
            raise SchemaError(f"graph: expected a table/object, got {d!r}")
        _reject_unknown(cls, d, "graph")
        name = d.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError("graph.name must be a non-empty string")
        seed = d.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise SchemaError(f"graph.seed must be an integer, got {seed!r}")
        return cls(name=name, seed=seed)

    def build(self):
        """Instantiate the CSR graph (server/worker side)."""
        from repro.harness.spec import get_graph, get_spec

        get_spec(self.name)  # KeyError with the known-name list
        if self.seed is None:
            return get_graph(self.name)
        return get_graph(self.name, seed=self.seed)


@dataclass(frozen=True)
class WireConfig:
    """The JSON/TOML-serializable slice of :class:`RunConfig`.

    ``None`` means "the library default".
    """

    machine: str = "cori-aries"  #: machine-model preset name
    max_ops: int | None = None
    compute_weight: bool = True
    profile: bool = False  #: span profiler + artifact bundle in the store
    trace: bool = False
    tie_break: str = "hash"
    eager_reject: bool = False
    agg_flush_bytes: int | None = None  #: None → MatchingOptions default
    agg_flush_count: int | None = None

    def validate(self) -> None:
        from repro.mpisim.machine import PRESETS

        if self.machine not in PRESETS:
            raise SchemaError(
                f"config.machine {self.machine!r} unknown; have "
                f"{sorted(PRESETS)}"
            )
        if self.tie_break not in ("hash", "id"):
            raise SchemaError(f"config.tie_break {self.tie_break!r} unknown")
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SchemaError(f"config.{name} must be a boolean, got {value!r}")
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < least):
                raise SchemaError(
                    f"config.{name} must be an integer >= {least}, got {value!r}"
                )

    def to_dict(self) -> dict:
        # every field is a scalar: no recursive asdict/deepcopy needed
        return {name: getattr(self, name) for name in _WIRE_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "WireConfig":
        if not isinstance(d, dict):
            raise SchemaError(f"config: expected a table/object, got {d!r}")
        _reject_unknown(cls, d, "config")
        return cls(**d)

    def to_run_config(self):
        """Materialize the full :class:`RunConfig` for execution."""
        from repro.matching.config import RunConfig
        from repro.matching.driver import MatchingOptions
        from repro.mpisim.machine import get_machine

        opt_kwargs: dict = {
            "tie_break": self.tie_break,
            "eager_reject": self.eager_reject,
        }
        if self.agg_flush_bytes is not None:
            opt_kwargs["agg_flush_bytes"] = self.agg_flush_bytes or None
        if self.agg_flush_count is not None:
            opt_kwargs["agg_flush_count"] = self.agg_flush_count or None
        return RunConfig(
            machine=get_machine(self.machine),
            options=MatchingOptions(**opt_kwargs),
            max_ops=self.max_ops,
            compute_weight=self.compute_weight,
            profile=self.profile,
            trace=self.trace,
        )


_WIRE_FIELDS = tuple(f.name for f in fields(WireConfig))


@dataclass(frozen=True)
class JobRequest:
    """One run the service should produce."""

    graph: GraphRef
    nprocs: int
    model: str = "nsr"
    config: WireConfig = field(default_factory=WireConfig)
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaError(
                f"schema_version {self.schema_version!r} not supported; "
                f"this build speaks version {SCHEMA_VERSION}"
            )
        if not _is_int(self.nprocs) or self.nprocs < 1:
            raise SchemaError(f"nprocs must be a positive integer, got {self.nprocs!r}")
        if self.model not in MODELS:
            raise SchemaError(
                f"model {self.model!r} unknown; have {list(MODELS)}"
            )
        self.config.validate()

    # -- wire ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "graph": self.graph.to_dict(),
            "nprocs": self.nprocs,
            "model": self.model,
            "config": self.config.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "JobRequest":
        if not isinstance(d, dict):
            raise SchemaError(f"request: expected a table/object, got {d!r}")
        _reject_unknown(cls, d, "request")
        _check_version(d, "request")
        if "graph" not in d:
            raise SchemaError("request: missing required field 'graph'")
        if "nprocs" not in d:
            raise SchemaError("request: missing required field 'nprocs'")
        req = cls(
            graph=GraphRef.from_dict(d["graph"]),
            nprocs=d["nprocs"],
            model=d.get("model", "nsr"),
            config=WireConfig.from_dict(d.get("config", {})),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )
        req.validate()
        return req

    @classmethod
    def from_json(cls, text: str | bytes) -> "JobRequest":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"bad JSON: {e}") from None
        return cls.from_dict(d)

    # -- content addressing -------------------------------------------
    def cache_key(self, code_version: str) -> str:
        """sha256 over the canonical (graph, problem, config, code) tuple.

        Pure and engine-free: two requests that must produce identical
        bytes share a key; any field that can change the result — or any
        source-file edit, via ``code_version`` — produces a fresh one.
        """
        payload = {
            "schema": self.schema_version,
            "graph": {"name": self.graph.name, "seed": self.graph.seed},
            "nprocs": self.nprocs,
            "model": self.model,
            "config": self.config.to_dict(),
            "code": code_version,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def batch_key(self) -> str:
        """Requests with equal batch keys may share one worker dispatch.

        Grouping is by graph recipe: a sweep over (nprocs, model) points
        of the same graph then builds the CSR once per batch instead of
        once per request.
        """
        blob = json.dumps(self.graph.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class JobResult:
    """The stable result payload (identical on cache hit and miss)."""

    key: str  #: content address of this result
    status: str  #: "ok" or "error"
    record: dict | None = None  #: RunRecord fields (harness.records shape)
    artifacts: tuple[str, ...] = ()  #: file names under /v1/artifacts/<key>/
    error: str | None = None
    code_version: str = ""
    schema_version: int = SCHEMA_VERSION
    #: the JSON this result was decoded from, set by :meth:`from_json`
    #: only. Not a wire field: a store object is immutable, so the server
    #: splices these bytes into a reply instead of encoding them again.
    raw: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "key": self.key,
            "status": self.status,
            "record": self.record,
            "artifacts": list(self.artifacts),
            "error": self.error,
            "code_version": self.code_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        if not isinstance(d, dict):
            raise SchemaError(f"result: expected an object, got {d!r}")
        _reject_unknown(cls, d, "result")
        _check_version(d, "result")
        if "key" not in d or "status" not in d:
            raise SchemaError("result: missing required field 'key'/'status'")
        return cls(
            key=d["key"],
            status=d["status"],
            record=d.get("record"),
            artifacts=tuple(d.get("artifacts", ())),
            error=d.get("error"),
            code_version=d.get("code_version", ""),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "JobResult":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"bad JSON: {e}") from None
        result = cls.from_dict(d)
        object.__setattr__(
            result, "raw", text if isinstance(text, bytes) else text.encode()
        )
        return result

    def to_bytes(self) -> bytes:
        """The JSON to serve: the decoded-from bytes if any, else encoded."""
        return self.raw or self.to_json().encode()


def parse_request(body: bytes, content_type: str = "application/json") -> JobRequest:
    """Decode a request body, JSON or TOML, into a validated JobRequest.

    The single decode path for the HTTP server and `repro submit`:
    ``content_type`` containing "toml" selects the TOML reading of the
    same shape; anything else is parsed as JSON.
    """
    text = body.decode("utf-8", errors="replace")
    if "toml" in (content_type or "").lower():
        return JobRequest.from_dict(loads_toml(text))
    return JobRequest.from_json(text)
