"""Dataset registry — the scaled-down analogue of the paper's Table II.

Every input family from the paper is represented by a generator recipe at
a size tractable for the simulated-MPI substrate (thousands to tens of
thousands of vertices instead of millions to billions). Graphs are
memoized per (name, seed, scale factor) so experiment modules and
benchmarks share construction cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # the registry itself loads neither numpy nor repro.graph
    from repro.graph.csr import CSRGraph

DEFAULT_SEED = 20190521  # IPDPS'19 conference date, for flavour


@dataclass(frozen=True)
class GraphSpec:
    """A named, reproducible graph recipe."""

    name: str
    category: str  #: paper Table II category
    paper_identifier: str  #: what the paper called this input
    build: Callable[[int], CSRGraph] = field(compare=False)
    default_procs: tuple[int, ...] = (8, 16)

    def instantiate(self, seed: int = DEFAULT_SEED) -> CSRGraph:
        return _cached_build(self.name, seed)


_REGISTRY: dict[str, GraphSpec] = {}


def _register(spec: GraphSpec) -> GraphSpec:
    _REGISTRY[spec.name] = spec
    return spec


@lru_cache(maxsize=64)
def _cached_build(name: str, seed: int) -> CSRGraph:
    return _REGISTRY[name].build(seed)


def get_spec(name: str) -> GraphSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; have {sorted(_REGISTRY)}") from None


def get_graph(name: str, seed: int = DEFAULT_SEED) -> CSRGraph:
    return get_spec(name).instantiate(seed)


def all_specs() -> list[GraphSpec]:
    return list(_REGISTRY.values())


def _recipe(generator: str, *args, **kwargs) -> Callable[[int], CSRGraph]:
    """``build(seed)``: ``repro.graph.generators.<generator>(*args,
    seed=seed, **kwargs)``, with the generators imported on the first build."""

    def build(seed: int) -> CSRGraph:
        from repro.graph import generators

        return getattr(generators, generator)(*args, seed=seed, **kwargs)

    return build


# ----------------------------------------------------------------------
# the registry (paper Table II, scaled)
# ----------------------------------------------------------------------

# Random geometric graphs — the paper's three RGGs are a weak-scaling
# family with bounded (<= 2) process neighborhoods.
for _i, (_n, _procs) in enumerate([(8_000, (4,)), (16_000, (8,)), (32_000, (16,))]):
    _register(
        GraphSpec(
            name=f"rgg-{_n // 1000}k",
            category="Random geometric graphs (RGG)",
            paper_identifier=["d=8.56E-05", "d=6.12E-05", "d=4.37E-05"][_i],
            build=_recipe("rgg_graph", _n, target_avg_degree=8),
            default_procs=_procs,
        )
    )

# Graph500 R-MAT — paper scales 21-24 map to our scales 10-13.
for _scale, _paper, _procs in [
    (10, "Scale 21", (8,)),
    (11, "Scale 22", (16,)),
    (12, "Scale 23", (32,)),
    (13, "Scale 24", (32,)),
]:
    _register(
        GraphSpec(
            name=f"rmat-s{_scale}",
            category="Graph500 R-MAT",
            paper_identifier=_paper,
            build=_recipe("rmat_graph", _scale),
            default_procs=_procs,
        )
    )

# Stochastic block partition (HILO) — weak-scaling family with a
# near-complete process graph; sized lean so the Fig. 4c crossover
# (Send-Recv winning) is reachable at simulable process counts.
for _n, _procs in [(1_024, (16,)), (2_048, (32,)), (4_096, (64,))]:
    _register(
        GraphSpec(
            name=f"sbm-{_n}",
            category="Stochastic block partitioned (HILO)",
            paper_identifier="high overlap, low block sizes",
            build=_recipe("sbm_hilo_graph", _n, avg_degree=8.0),
            default_procs=_procs,
        )
    )

# Protein k-mer graphs.
for _preset, _n in [("V2a", 8_000), ("U1a", 9_600), ("P1a", 16_000), ("V1r", 24_000)]:
    _register(
        GraphSpec(
            name=f"kmer-{_preset}",
            category="Protein k-mer",
            paper_identifier=_preset,
            build=_recipe("kmer_preset_graph", _preset, _n),
            default_procs=(8, 16, 32),
        )
    )

# SuiteSparse matrix proxies.
_register(
    GraphSpec(
        name="cage15",
        category="DNA",
        paper_identifier="Cage15",
        build=_recipe("cage15_proxy", 12_000),
        default_procs=(16, 32),
    )
)
_register(
    GraphSpec(
        name="hv15r",
        category="CFD",
        paper_identifier="HV15R",
        build=_recipe("hv15r_proxy", 6_000),
        default_procs=(16, 32),
    )
)

# Social networks.
# Social proxies are kept lean: their near-complete process graphs make
# NSR runs the most expensive to simulate (hundreds of thousands of
# per-message events), and the communication behaviour is driven by the
# process-graph density, not the absolute edge count.
_register(
    GraphSpec(
        name="orkut",
        category="Social networks",
        paper_identifier="Orkut",
        build=_recipe("orkut_proxy", 4_000),
        default_procs=(8, 16, 32),
    )
)
_register(
    GraphSpec(
        name="friendster",
        category="Social networks",
        paper_identifier="Friendster",
        build=_recipe("friendster_proxy", 6_000),
        default_procs=(8, 16, 32),
    )
)
