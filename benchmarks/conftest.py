"""Shared benchmark plumbing.

Every paper figure/table gets one test that executes its experiment
module once (simulated runs are deterministic, so there is nothing to
repeat), asserts the paper's claim on its data, and writes the rendered
figure/table to ``benchmarks/_output/<exp_id>.txt`` so a full run
regenerates the paper's evaluation section as text artifacts. Wall-clock
performance is measured by the ladder (``benchmarks/ladder/``).

Set ``REPRO_FULL=1`` to run the full-size (slower) configurations.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "_output"
FAST = os.environ.get("REPRO_FULL", "0") != "1"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def run_exp(output_dir):
    """Run one experiment and persist its output."""

    def _run(exp_id: str):
        from repro.harness import run_experiment

        out = run_experiment(exp_id, fast=FAST)
        text = out.text + "\nFindings:\n" + "\n".join(f"* {f}" for f in out.findings)
        (output_dir / f"{exp_id}.txt").write_text(text + "\n")
        return out

    return _run
