"""Shared fixtures and Hypothesis profiles for this suite.

``pytest tests/matching/test_properties.py --hypothesis-profile=deep``
(or any other property file) runs every test that does not fix its own
example count with ten times the default number of examples.
"""

import pytest
from hypothesis import settings

import repro.matching.api
from repro.mpisim.engine import Engine
from tests.mpisim.scan_oracle import ScanEngine

settings.register_profile(
    "deep", max_examples=10 * settings.get_profile("default").max_examples
)


@pytest.fixture
def use_scheduler(monkeypatch):
    """``use_scheduler("reference")`` makes ``run_matching`` run on the
    scan oracle (tests/mpisim/scan_oracle.py); ``"heap"`` on the engine."""

    def use(name: str) -> None:
        engine = {"heap": Engine, "reference": ScanEngine}[name]
        monkeypatch.setattr(repro.matching.api, "Engine", engine)

    return use
