"""Lets ``pytest benchmarks/ladder -q`` run from a bare checkout.

``run.py`` hands its children ``src/`` on ``PYTHONPATH`` and an
environment without ``REPRO_*`` switches; the tests call the workload
functions directly, so this process and the server it spawns get the same.
"""

import os
import sys

from run import SRC, child_env

sys.path.insert(0, str(SRC))
env = child_env()
os.environ.clear()
os.environ.update(env)
