"""JSON (de)serialization for harness run records.

Sweeps are expensive (each point is a full simulated run); persisting
records lets EXPERIMENTS.md and plots be regenerated without re-running,
and makes results diffable across code versions.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.api import RunRecord
from repro.mpisim.power import EnergyReport


def record_to_dict(rec: RunRecord) -> dict:
    """Flatten a RunRecord (dropping the heavyweight result payload)."""
    d = {
        "graph": rec.graph,
        "nprocs": rec.nprocs,
        "model": rec.model,
        "makespan": rec.makespan,
        "weight": rec.weight,
        "iterations": rec.iterations,
        "messages": rec.messages,
        "bytes_moved": rec.bytes_moved,
        "mem_per_rank_mb": rec.mem_per_rank_mb,
        "energy": asdict(rec.energy),
    }
    return d


def record_from_dict(d: dict) -> RunRecord:
    energy = EnergyReport(**d["energy"])
    return RunRecord(
        graph=d["graph"],
        nprocs=d["nprocs"],
        model=d["model"],
        makespan=d["makespan"],
        weight=d["weight"],
        iterations=d["iterations"],
        messages=d["messages"],
        bytes_moved=d["bytes_moved"],
        mem_per_rank_mb=d["mem_per_rank_mb"],
        energy=energy,
        result=None,
    )


def save_records(records: list[RunRecord], path: str | Path) -> None:
    """Write records as a JSON array."""
    payload = [record_to_dict(r) for r in records]
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def load_records(path: str | Path) -> list[RunRecord]:
    payload = json.loads(Path(path).read_text())
    return [record_from_dict(d) for d in payload]


def merge_record_files(paths: list[str | Path]) -> list[RunRecord]:
    """Concatenate several record files, newest-wins on duplicate keys.

    The key is (graph, nprocs, model); later files override earlier ones,
    so incremental re-runs can be layered over a base sweep.
    """
    by_key: dict[tuple[str, int, str], RunRecord] = {}
    for p in paths:
        for rec in load_records(p):
            by_key[(rec.graph, rec.nprocs, rec.model)] = rec
    return list(by_key.values())
