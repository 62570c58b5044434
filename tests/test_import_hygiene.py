"""scipy stays off the import path of every run.

It costs ~30 MB of resident set and ~0.4 s in every process — server,
pool worker, each CLI call. Only `from_scipy` imports it, lazily, and its
caller already holds a scipy matrix; `rgg_graph` finds its edges with a
numpy cell grid. The CI `test` job runs the same one-liner and grep.
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
    "repro.api.run(rmat_graph(8, seed=1), 4, 'ncl'); rgg_graph(200, seed=1); "
    "repro.api.run(rgg_graph(500, seed=1), 4, 'ncl'); "
    "assert 'scipy' not in sys.modules, 'scipy imported'"
)


def test_scipy_is_imported_by_no_generator_and_no_run():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", ONE_LINER], env=env, check=True,
                   timeout=120)


def test_no_module_level_scipy_import_under_src():
    # and no KD-tree anywhere: from_scipy's lazy scipy.sparse is the one use
    pattern = re.compile(r"^(from|import) scipy|cKDTree|scipy.spatial",
                         re.MULTILINE)
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


def test_coloring_and_cc_runs_do_not_import_numpy_ma():
    # A plain np.unique imports numpy.ma on its first call (~20 ms a
    # process); the kernels and the sbm generator take repro.util.arrays
    # .distinct instead.
    code = (
        "import sys; "
        "from repro.cc import run_cc; "
        "from repro.coloring import run_coloring; "
        "from repro.graph.generators import rmat_graph, sbm_hilo_graph; "
        "g = rmat_graph(7, seed=1); "
        "[(run_cc(g, 4, m), run_coloring(g, 4, m)) "
        " for m in ('nsr', 'rma', 'ncl')]; "
        "sbm_hilo_graph(256, seed=1); "
        "assert 'numpy.ma' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
