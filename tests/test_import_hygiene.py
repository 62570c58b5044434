"""scipy stays off the import path of everything but the rgg generator.

It costs ~40 MB of resident set and ~0.5 s in every process — server,
pool worker, each CLI call — and only `rgg_graph` (cKDTree) and
`from_scipy` need it. The CI `test` job runs the same one-liner.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ONE_LINER = (
    "import sys, repro.api, repro.service, repro.client; "
    "from repro.graph.generators import rmat_graph, rgg_graph; "
    "repro.api.run(rmat_graph(8, seed=1), 4, 'ncl'); "
    "assert 'scipy' not in sys.modules, 'scipy imported without an rgg graph'; "
    "rgg_graph(200, seed=1); assert 'scipy' in sys.modules"
)


def test_scipy_is_imported_by_rgg_graph_and_by_nothing_before_it():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", ONE_LINER], env=env, check=True,
                   timeout=120)


def test_no_module_level_scipy_import_under_src():
    pattern = re.compile(r"^(from|import) scipy", re.MULTILINE)
    found = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py"))
             if pattern.search(p.read_text())]
    assert found == []


def test_client_and_wire_schema_load_neither_numpy_nor_the_simulator():
    # The client is meant to need the stdlib only; the wire schema (and
    # the knob table it is derived from) must not pull in repro.matching,
    # whose __init__ loads numpy and every backend.
    code = (
        "import sys, repro.client, repro.service.schema; "
        "bad = [m for m in sys.modules "
        "       if m == 'numpy' or m.startswith('repro.matching')]; "
        "assert not bad, bad"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_client_frames_http_itself():
    # repro.client writes requests on a plain socket and reads replies
    # with repro.service.http11; the CI `test` job greps for the same.
    tree = ast.parse((SRC / "repro" / "client.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not [m for m in imported if m.startswith("http.")], imported
