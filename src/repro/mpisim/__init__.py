"""`repro.mpisim` — a deterministic simulated MPI runtime.

The paper evaluates three MPI communication models on a Cray XC40; this
package is the substitute substrate: rank programs written against
:class:`RankContext` (an mpi4py-flavoured API) execute under a
conservative discrete-event simulation with a LogGP-style cost model
(:class:`MachineModel`), producing virtual runtimes, communication
matrices, and energy/memory estimates.

Quick example::

    from repro.mpisim import Engine, get_machine

    def program(ctx):
        token = yield from ctx.allreduce_g(ctx.rank)   # sum of ranks
        if ctx.rank == 0:
            yield from ctx.isend_g(1, ("hello", token))
        elif ctx.rank == 1:
            msg = yield from ctx.recv_g(source=0)
        yield from ctx.barrier_g()
        return token

    result = Engine(4, get_machine("cori-aries")).run(program)
    print(result.makespan, result.rank_results)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "aggregate": ("AGG_TAG", "MessageAggregator", "PersistentSendRequest",
                  "RecvRequest", "waitall_g"),
    "collectives": ("AgreementCollective",),
    "context": ("RankContext",),
    "counters": ("CommMatrix", "RankCounters", "RunCounters"),
    "engine": ("Engine", "EngineResult"),
    "checkpoint": ("CheckpointConfig", "CheckpointCorrupt", "CheckpointStore",
                   "EngineSnapshot", "ReplicatedCheckpointStore",
                   "buddy_ranks", "load_checkpoint", "save_checkpoint"),
    "errors": ("CommMismatchError", "DeadlockError", "RankCrashed",
               "RankFailure", "RecoveryFailed", "RetryExhausted", "SimError",
               "SimKilled", "SimLimitExceeded"),
    "faults": ("ChurnPlan", "FaultPlan", "MessageFate", "NicDegradation",
               "PartitionWindow"),
    "resilience": ("RecoveryConfig",),
    "machine": ("MachineModel", "commodity_cluster", "cori_aries",
                "get_machine", "zero_latency"),
    "message": ("ANY_SOURCE", "ANY_TAG", "Message"),
    "power": ("EnergyReport", "PowerModel", "energy_report", "energy_table"),
    "topology": ("DistGraphTopology", "PendingNeighborExchange",
                 "payload_nbytes"),
    "tracing": ("ProfilingError", "RunProfile", "Span", "SpanRecorder",
                "TraceEvent", "events_for_rank", "fault_events",
                "fault_summary", "summarize_ops", "time_ordered",
                "trace_from_csv", "trace_to_csv"),
    "window": ("Window",),
})
