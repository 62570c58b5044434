"""A content-addressed cache must not depend on hash order.

`PYTHONHASHSEED` moves the iteration order of every str-keyed set and
dict-of-sets in the process. One point per backend, run in two fresh
interpreters under different seeds, must give the same record bytes —
what the store would publish under one key (ROADMAP 7(d)).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

BACKENDS = ("nsr", "nsr-agg", "rma", "ncl", "mbp", "incl")

CHILD = """
import json, sys
from repro.service.pool import execute_point
from repro.service.schema import GraphRef, JobRequest, WireConfig

for model in sys.argv[1:]:
    request = JobRequest(GraphRef("rmat-s10"), 8, model,
                         WireConfig(engine="coroutine"))
    out = execute_point({"key": model, "request": request.to_dict()})
    assert out["ok"], out
    print(json.dumps(out["record"]))
"""


def _records(hashseed: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed}
    return subprocess.run(
        [sys.executable, "-c", CHILD, *BACKENDS],
        env=env, check=True, capture_output=True, timeout=120,
    ).stdout


def test_record_bytes_do_not_depend_on_the_hash_seed():
    first, second = _records("1"), _records("4242")
    assert first.count(b"\n") == len(BACKENDS)
    assert first == second
