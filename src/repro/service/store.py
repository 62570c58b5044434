"""Content-addressed result + artifact store.

Layout (under the store root)::

    objects/<key>/result.json        # JobResult payload (stable bytes)
    objects/<key>/<artifact files>   # trace JSON, phase CSVs, comm
                                     # matrices, checkpoints, ...
    tmp/                             # staging for atomic publication

``<key>`` is :meth:`JobRequest.cache_key` — sha256 of (graph spec,
config, code_version) — so a key's bytes are immutable once written:
publication stages the whole object directory under ``tmp/`` and
``os.replace``-renames it into place, making concurrent writers of the
same key idempotent and readers never see partial results.

Because a key's bytes never change, a store also keeps the objects it
has published or read in memory (the `OBJECTS_KEPT` most recently used):
a repeat lookup of a key is a dict probe, and the disk is read and
schema-checked only for a key the process has not seen (or has evicted).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import uuid
from collections import OrderedDict
from pathlib import Path

from repro.service.schema import JobResult, SchemaError

_KEY_HEX = set("0123456789abcdef")

#: store objects kept in memory, most recently used last; older ones are
#: dropped from memory only, and a later lookup reads them from disk
OBJECTS_KEPT = 1024


def _check_key(key: str) -> str:
    if not key or set(key) - _KEY_HEX:
        raise ValueError(f"malformed content key {key!r}")
    return key


class ResultStore:
    """Filesystem CAS with hit/miss accounting."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self._objects = str(self.objects)  # lookups join strings, not Paths
        self.tmp = self.root / "tmp"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.tmp.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._kept: OrderedDict[str, JobResult] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- lookup -------------------------------------------------------
    def _dir(self, key: str) -> Path:
        return self.objects / _check_key(key)

    def contains(self, key: str) -> bool:
        return (self._dir(key) / "result.json").is_file()

    def lookup(self, key: str) -> JobResult | None:
        """Fetch a cached result, counting the probe as a hit or miss."""
        result = self.peek(key)
        with self._lock:
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
        return result

    def peek(self, key: str) -> JobResult | None:
        """Fetch without touching the hit/miss counters (GET /v1/results).

        From memory if the key was published or read before; otherwise
        one read of the object's bytes, which the parsed result keeps as
        ``raw`` so that a reply can carry them as they are.
        """
        with self._lock:
            result = self._kept.get(key)
            if result is not None:
                self._kept.move_to_end(key)
                return result
        try:
            with open(f"{self._objects}/{_check_key(key)}/result.json", "rb") as f:
                blob = f.read()
        except OSError:
            return None
        return self._keep(key, JobResult.from_json(blob))

    def _keep(self, key: str, result: JobResult) -> JobResult:
        """Remember a result read or written under ``key``, within the bound."""
        with self._lock:
            self._kept[key] = result
            while len(self._kept) > OBJECTS_KEPT:
                self._kept.popitem(last=False)
        return result

    # -- publication --------------------------------------------------
    def put(
        self, result: JobResult, artifacts: dict[str, bytes] | None = None
    ) -> JobResult:
        """Publish a result (and its artifact files) atomically.

        Returns the published result as a lookup would: decoded from the
        bytes now in ``result.json``, which it carries as ``raw``.
        Losing a same-key race is fine — the winner's bytes are identical
        by construction (determinism is the whole point of the key).
        """
        key = _check_key(result.key)
        blob = result.to_json().encode()
        stage = self.tmp / f"{key}-{uuid.uuid4().hex}"
        stage.mkdir(parents=True)
        try:
            for name, data in (artifacts or {}).items():
                if "/" in name or "\\" in name or name.startswith("."):
                    raise ValueError(f"malformed artifact name {name!r}")
                (stage / name).write_bytes(data)
            # result.json written last inside the stage; the rename below
            # publishes everything in one shot anyway.
            (stage / "result.json").write_bytes(blob)
            target = self._dir(key)
            try:
                os.replace(stage, target)
            except OSError:
                if self.contains(key):  # lost a same-key race: drop ours
                    shutil.rmtree(stage, ignore_errors=True)
                    return self.peek(key)
                raise
        except Exception:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        return self._keep(key, JobResult.from_json(blob))

    # -- artifacts ----------------------------------------------------
    def artifact_path(self, key: str, name: str) -> Path | None:
        """Resolve an artifact file, refusing path escapes."""
        base = self._dir(key)
        if "/" in name or "\\" in name or name.startswith(".") or not name:
            return None
        path = base / name
        if path.is_file() and name != "result.json":
            return path
        return None

    def artifact_names(self, key: str) -> list[str]:
        base = self._dir(key)
        if not base.is_dir():
            return []
        return sorted(
            p.name for p in base.iterdir()
            if p.is_file() and p.name != "result.json"
        )

    # -- accounting ---------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.objects.iterdir())

    def stats(self) -> dict:
        with self._lock:
            return {
                "objects": len(self),
                "cache_hits": self.hits,
                "cache_misses": self.misses,
            }


def write_store_meta(root: str | Path, code_version: str) -> None:
    """Record the code version the store was filled under (diagnostics)."""
    meta = Path(root) / "META.json"
    meta.write_text(json.dumps({"code_version": code_version}, indent=1))


def read_store_meta(root: str | Path) -> dict:
    try:
        return json.loads((Path(root) / "META.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"unreadable store META.json: {e}") from None
