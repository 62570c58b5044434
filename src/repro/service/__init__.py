"""`repro.service` — matching-as-a-service (docs/service.md).

A long-running job server over the deterministic simulation: run
requests (graph recipe + config) are validated against the versioned
wire schema, deduplicated against a content-addressed result cache
keyed on ``hash(graph_spec, config, code_version)``, coalesced into
shared sweep batches, and executed on a ``multiprocessing`` worker pool
through the :mod:`repro.api` facade. Determinism is the superpower:
repeated and overlapping requests are cache hits with bit-identical
payloads.

Modules: :mod:`~repro.service.schema` (wire types),
:mod:`~repro.service.codever` (content-hash code version),
:mod:`~repro.service.store` (CAS), :mod:`~repro.service.pool`
(worker protocol), :mod:`~repro.service.orchestrator` (queue/batching),
:mod:`~repro.service.server` (HTTP front end). The stdlib HTTP client
lives in :mod:`repro.client`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "codever": ("cached_code_version", "code_version"),
    "orchestrator": ("Job", "Orchestrator"),
    "schema": ("SCHEMA_VERSION", "GraphRef", "JobRequest", "JobResult",
               "SchemaError", "WireConfig", "parse_request"),
    "server": ("MatchingService", "ServiceConfig", "serve"),
    "store": ("ResultStore",),
})
