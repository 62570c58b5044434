"""Experiment framework: one module per paper figure/table.

Each experiment module registers a callable returning an
:class:`ExperimentOutput`; the benchmark suite, the EXPERIMENTS.md
generator, and ad-hoc users all go through :func:`run_experiment`.

``fast=True`` (the default, and what CI runs) uses reduced process counts
and graph sizes; ``fast=False`` uses the full scaled configuration from
DESIGN.md's per-experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class ExperimentOutput:
    """Everything one figure/table reproduction produced."""

    exp_id: str  #: e.g. "fig4a", "table8"
    title: str
    text: str  #: rendered table / ASCII figure, human-readable
    data: dict[str, Any] = field(default_factory=dict)  #: machine-readable
    findings: list[str] = field(default_factory=list)  #: checked claims

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


_EXPERIMENTS: dict[str, Callable[[bool], ExperimentOutput]] = {}


def experiment(exp_id: str):
    """Decorator registering an experiment runner under ``exp_id``."""

    def wrap(fn: Callable[[bool], ExperimentOutput]):
        _EXPERIMENTS[exp_id] = fn
        return fn

    return wrap


def get_experiment(exp_id: str) -> Callable[[bool], ExperimentOutput]:
    """The registered runner for ``exp_id`` (``KeyError`` if unknown)."""
    import repro.harness.experiments  # noqa: F401 - populate registry

    try:
        return _EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; have {sorted(_EXPERIMENTS)}"
        ) from None


def run_experiment(exp_id: str, fast: bool = True) -> ExperimentOutput:
    return get_experiment(exp_id)(fast)


def all_experiment_ids() -> list[str]:
    import repro.harness.experiments  # noqa: F401 - populate registry

    return sorted(_EXPERIMENTS)
