"""RunConfig is the only way to configure run_matching: the legacy
keyword arguments (positional ``machine`` included) are TypeErrors, a
``config=`` call does not warn, and configs evolve."""

import warnings

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.matching.driver import MatchingOptions
from repro.mpisim.machine import commodity_cluster, cori_aries

#: the keyword arguments run_matching took before RunConfig, one value each
LEGACY_KWARGS = dict(
    machine=cori_aries(), options=MatchingOptions(), dist=None, max_ops=None,
    faults=None, trace=False, profile=False, compute_weight=False,
)


def fingerprint(res):
    return (res.makespan, res.weight, res.iterations, res.total_messages(),
            res.mate.tobytes())


class TestLegacyShim:
    # The shim is gone; the ids stay, each now pinning that the legacy
    # spelling fails loudly instead of warning.
    def test_legacy_kwargs_warn_exactly_once(self):
        g = rmat_graph(6, seed=2)
        for name, value in LEGACY_KWARGS.items():
            with pytest.raises(TypeError, match=name):
                run_matching(g, 4, "nsr", **{name: value})

    def test_legacy_call_bit_identical_to_config_call(self):
        """Migration is mechanical: every legacy kwarg is a RunConfig
        field of the same name."""
        g = rmat_graph(7, seed=3)
        machine = commodity_cluster()
        options = MatchingOptions(eager_reject=False)
        legacy = dict(LEGACY_KWARGS, machine=machine, options=options,
                      compute_weight=True)
        with pytest.raises(TypeError):
            run_matching(g, 4, "ncl", **legacy)
        old = run_matching(g, 4, "ncl", config=RunConfig(**legacy))
        new = run_matching(
            g, 4, "ncl", config=RunConfig(machine=machine, options=options)
        )
        assert fingerprint(old) == fingerprint(new)

    def test_positional_machine_is_legacy(self):
        g = rmat_graph(6, seed=2)
        with pytest.raises(TypeError):
            run_matching(g, 4, "nsr", cori_aries())

    def test_no_kwargs_no_warning(self):
        g = rmat_graph(6, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_matching(g, 4, "nsr", config=RunConfig(compute_weight=False))
            run_matching(g, 4, "nsr")  # bare default call is also clean

    def test_mixing_config_and_legacy_raises(self):
        g = rmat_graph(6, seed=2)
        with pytest.raises(TypeError, match="machine"):
            run_matching(g, 4, "nsr", machine=cori_aries(),
                         config=RunConfig())

    def test_explicit_none_counts_as_legacy(self):
        g = rmat_graph(6, seed=2)
        with pytest.raises(TypeError, match="machine"):
            run_matching(g, 4, "nsr", machine=None)


class TestRunConfig:
    def test_frozen(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.profile = True

    def test_evolve(self):
        cfg = RunConfig(trace=True)
        cfg2 = cfg.evolve(profile=True)
        assert cfg2.profile and cfg2.trace
        assert not cfg.profile  # original untouched

    def test_defaults_match_legacy_defaults(self):
        cfg = RunConfig()
        assert cfg.machine is None and cfg.options is None
        assert cfg.dist is None and cfg.max_ops is None
        assert cfg.faults is None
        assert cfg.trace is False and cfg.profile is False
        assert cfg.compute_weight is True
        assert not hasattr(cfg, "scheduler") and not hasattr(cfg, "engine")

    def test_compute_weight_false_yields_nan(self):
        g = rmat_graph(6, seed=2)
        res = run_matching(g, 4, "nsr", config=RunConfig(compute_weight=False))
        assert np.isnan(res.weight)
