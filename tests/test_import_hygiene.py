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


# Each service process loads only what it runs. The package __init__s of
# repro.mpisim, repro.harness, repro.service and repro.util resolve their
# re-exports on first use, so checking a request takes the stdlib and
# repro.service only, and the pool worker's entry point does not bring
# in the HTTP server. The CI `test` job runs the same one-liners.

REQUEST_ONE_LINER = (
    "import sys; "
    "from repro.service.schema import GraphRef, JobRequest, WireConfig, parse_request; "
    "r = JobRequest(GraphRef('rmat-s10', seed=3), 8, 'ncl', WireConfig(machine='zero-latency')); "
    "r.validate(); assert parse_request(r.to_bytes()) == r; "
    "bad = [m for m in ('numpy', 'repro.mpisim.engine') if m in sys.modules]; "
    "assert not bad, bad"
)

DECODE_ONE_LINER = (
    "import sys; "
    "from repro.service.schema import GraphRef, JobRequest, WireConfig; "
    "from repro.service.server import MatchingService; "
    "r = JobRequest(GraphRef('rmat-s10'), 8, 'ncl', WireConfig(machine='zero-latency')); "
    "assert MatchingService._decode_request('application/json', r.to_bytes()) == r; "
    "bad = [m for m in ('numpy', 'repro.mpisim.engine', 'repro.harness.experiments') "
    "if m in sys.modules]; "
    "assert not bad, bad"
)

POOL_ONE_LINER = (
    "import sys, repro.service.pool; "
    "assert 'http.server' not in sys.modules, 'http.server imported'"
)


def _run(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_checking_a_request_loads_neither_numpy_nor_the_engine():
    _run(REQUEST_ONE_LINER)


def test_server_decode_loads_neither_numpy_nor_the_engine_nor_the_experiments():
    # a bad preset and an unknown dataset are refused on the same path first
    refusals = """
from repro.service.schema import SchemaError
from repro.service.server import MatchingService
good = (b'{"graph": {"name": "rmat-s10"}, "nprocs": 8, "model": "ncl", '
        b'"config": {"machine": "zero-latency"}}')
for old, new, error in ((b'zero-latency', b'cray', SchemaError),
                        (b'rmat-s10', b'no-such', KeyError)):
    try:
        MatchingService._decode_request('application/json', good.replace(old, new))
    except error:
        continue
    raise AssertionError(new)
"""
    _run(refusals + DECODE_ONE_LINER)


def test_pool_worker_entry_loads_no_http_server():
    _run(POOL_ONE_LINER)


def test_submit_loads_no_numpy_before_it_fails_to_connect():
    import socket

    with socket.socket() as s:  # a port nobody listens on once closed
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "submit",
         "rmat-s10", "--url", f"http://127.0.0.1:{port}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "cannot reach service" in done.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro.client" in imported
    assert "numpy" not in imported


def test_every_lazy_reexport_resolves_and_is_listed():
    code = """
import importlib, types
for name in ('repro.mpisim', 'repro.harness', 'repro.service', 'repro.util'):
    pkg = importlib.import_module(name)
    listed = dir(pkg)  # before any name is resolved
    for attr in pkg.__all__:
        assert attr in listed, (name, attr)
        assert not isinstance(getattr(pkg, attr), types.ModuleType), (name, attr)
        assert attr in vars(pkg), (name, attr)  # kept after the first read
    assert sorted(set(pkg.__all__)) == sorted(pkg.__all__), name
    assert set(pkg.__all__) <= set(dir(pkg)), name
    star = {}
    exec(f'from {name} import *', star)
    assert set(pkg.__all__) <= set(star), name
try:
    importlib.import_module('repro.mpisim').no_such_name
    raise AssertionError('an unknown name resolved')
except AttributeError:
    pass
from repro.mpisim import engine, Engine
assert engine.Engine is Engine
"""
    _run(code)
