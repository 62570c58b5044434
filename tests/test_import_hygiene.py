"""scipy stays off the import path of everything but the rgg generator.

It costs ~40 MB of resident set and ~0.5 s in every process — server,
pool worker, each CLI call — and only `rgg_graph` (cKDTree) and
`from_scipy` need it. The CI `test` job runs the same one-liner.
"""

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
