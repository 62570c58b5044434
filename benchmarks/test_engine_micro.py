"""Microbenchmarks of the simulated-MPI engine itself (real wall time).

Unlike the figure/table benchmarks (which report *virtual* time), these
measure the simulator's own throughput so regressions in the engine's
hot paths are visible.
"""

from repro.mpisim import Engine, cori_aries, zero_latency


def _pingpong(rounds):
    def prog(ctx):
        for i in range(rounds):
            if ctx.rank == 0:
                yield from ctx.isend_g(1, i)
                yield from ctx.recv_g(source=1)
            else:
                yield from ctx.recv_g(source=0)
                yield from ctx.isend_g(0, i)

    return prog


def test_engine_pingpong_throughput(benchmark):
    benchmark.pedantic(
        lambda: Engine(2, cori_aries()).run(_pingpong(500)),
        rounds=3,
        iterations=1,
    )


def test_engine_allreduce_throughput(benchmark):
    def prog(ctx):
        for _ in range(200):
            yield from ctx.allreduce_g(ctx.rank)

    benchmark.pedantic(
        lambda: Engine(8, cori_aries()).run(prog), rounds=3, iterations=1
    )


def test_engine_neighbor_alltoallv_throughput(benchmark):
    def prog(ctx):
        p = ctx.nprocs
        topo = yield from ctx.dist_graph_create_adjacent_g(
            sorted({(ctx.rank - 1) % p, (ctx.rank + 1) % p})
        )
        for _ in range(100):
            yield from topo.neighbor_alltoallv_g([[1, 2, 3]] * topo.degree)

    benchmark.pedantic(
        lambda: Engine(8, cori_aries()).run(prog), rounds=3, iterations=1
    )


def _scatter(seed, rounds, fan):
    """Seeded many-to-many traffic at high P: the scheduler stress test
    (most ranks sit blocked in recv, so every decision is scheduler-bound)."""
    import numpy as np

    from repro.util.rng import make_rng

    def prog(ctx):
        shared = make_rng(seed, "bench-scatter")
        dests = shared.integers(0, ctx.nprocs, size=(ctx.nprocs, rounds, fan))
        for k in range(rounds):
            ctx.compute(seconds=1e-7)
            for d in dests[ctx.rank, k]:
                d = int(d)
                if d != ctx.rank:
                    yield from ctx.isend_g(d, k, nbytes=32)
            expected = int(np.sum(dests[:, k, :] == ctx.rank)) - int(
                np.sum(dests[ctx.rank, k, :] == ctx.rank)
            )
            for _ in range(expected):
                yield from ctx.recv_g()
        return 0

    return prog


def test_engine_scatter_p64_heap_scheduler(benchmark):
    benchmark.pedantic(
        lambda: Engine(64, cori_aries(), scheduler="heap").run(_scatter(7, 6, 4)),
        rounds=3,
        iterations=1,
    )


def test_engine_scatter_p64_reference_scheduler(benchmark):
    benchmark.pedantic(
        lambda: Engine(64, cori_aries(), scheduler="reference").run(_scatter(7, 6, 4)),
        rounds=3,
        iterations=1,
    )


def test_matching_simulation_throughput(benchmark):
    from repro.graph.generators import rmat_graph
    from repro.matching import RunConfig, run_matching

    g = rmat_graph(9, seed=1)
    benchmark.pedantic(
        lambda: run_matching(g, 8, "ncl", config=RunConfig(machine=zero_latency())),
        rounds=3,
        iterations=1,
    )
