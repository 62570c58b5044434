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

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields, make_dataclass

from repro.knobs import WIRE, knobs, run_config

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A request/result body that does not speak this schema."""


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


@functools.cache
def _known_fields(cls) -> frozenset[str]:
    """The wire field names of a schema class, computed once per class."""
    return frozenset(f.name for f in fields(cls) if f.init)


def _reject_unknown(cls, d: dict, context: str) -> None:
    known = _known_fields(cls)
    unknown = sorted(d.keys() - known)
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
        ref = cls(name=name, seed=d.get("seed"))
        _check(ref, _GRAPH_KNOBS, "graph.")
        return ref

    def build(self):
        """Instantiate the CSR graph (server/worker side)."""
        from repro.harness.spec import get_graph, get_spec

        get_spec(self.name)  # KeyError with the known-name list
        if self.seed is None:
            return get_graph(self.name)
        return get_graph(self.name, seed=self.seed)


def _check(obj, named_knobs, prefix: str) -> None:
    for name, knob in named_knobs:
        try:
            knob.check(getattr(obj, name))
        except ValueError as e:
            raise SchemaError(f"{prefix}{name} {e}") from None


class _WireMethods:
    """The JSON/TOML-serializable slice of :class:`RunConfig`, one field
    per wire knob of :mod:`repro.knobs`; ``None`` means the library default.
    """

    __slots__ = ()

    def validate(self) -> None:
        _check(self, _WIRE_KNOBS, "config.")

    def to_dict(self) -> dict:
        # every field is a scalar: no recursive asdict/deepcopy needed
        return {name: getattr(self, name) for name, _ in _WIRE_KNOBS}

    @classmethod
    def from_dict(cls, d: dict) -> "WireConfig":
        if not isinstance(d, dict):
            raise SchemaError(f"config: expected a table/object, got {d!r}")
        _reject_unknown(cls, d, "config")
        return cls(**d)

    def to_run_config(self):
        """Materialize the full :class:`RunConfig` for execution."""
        return run_config(self.to_dict())


_WIRE_KNOBS = tuple(knobs(WIRE).items())

WireConfig = make_dataclass(
    "WireConfig",
    [(name, knob.kind, field(default=knob.defaults[WIRE]))
     for name, knob in _WIRE_KNOBS],
    bases=(_WireMethods,),
    frozen=True,
    namespace={"__module__": __name__},
)


_REQUEST_KNOBS = tuple((name, knobs("submit")[name]) for name in ("nprocs", "model"))
_GRAPH_KNOBS = (("seed", knobs("submit")["seed"]),)


@dataclass(frozen=True)
class JobRequest:
    """One run the service should produce."""

    graph: GraphRef
    nprocs: int
    model: str = "nsr"
    config: WireConfig = field(default_factory=WireConfig)
    schema_version: int = SCHEMA_VERSION
    #: ``(code_version, key)`` of the last :meth:`cache_key` call. Not a
    #: wire field: a request is frozen, so its key is hashed once per
    #: code version, however often the same object is submitted.
    _keyed: tuple[str, str] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: the encoded body of the first :meth:`to_bytes` call. Not a wire
    #: field, and kept on the instance, never keyed by equality: two equal
    #: requests may encode differently (``eager_reject=1`` vs ``True``).
    _body: bytes | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaError(
                f"schema_version {self.schema_version!r} not supported; "
                f"this build speaks version {SCHEMA_VERSION}"
            )
        _check(self, _REQUEST_KNOBS, "")
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

    def to_bytes(self) -> bytes:
        """:meth:`to_json` as UTF-8, encoded once per instance."""
        body = self._body
        if body is None:
            body = self.to_json().encode()
            object.__setattr__(self, "_body", body)
        return body

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
        keyed = self._keyed
        if keyed is not None and keyed[0] == code_version:
            return keyed[1]
        payload = {
            "schema": self.schema_version,
            "graph": {"name": self.graph.name, "seed": self.graph.seed},
            "nprocs": self.nprocs,
            "model": self.model,
            "config": self.config.to_dict(),
            "code": code_version,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(blob.encode()).hexdigest()
        object.__setattr__(self, "_keyed", (code_version, key))
        return key

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
