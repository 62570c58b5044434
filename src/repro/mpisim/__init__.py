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

from repro.mpisim.aggregate import (
    AGG_TAG,
    MessageAggregator,
    PersistentSendRequest,
    RecvRequest,
    waitall_g,
)
from repro.mpisim.collectives import AgreementCollective
from repro.mpisim.context import RankContext
from repro.mpisim.counters import CommMatrix, RankCounters, RunCounters
from repro.mpisim.engine import Engine, EngineResult
from repro.mpisim.checkpoint import (
    CheckpointConfig,
    CheckpointCorrupt,
    CheckpointStore,
    EngineSnapshot,
    ReplicatedCheckpointStore,
    buddy_ranks,
    load_checkpoint,
    save_checkpoint,
)
from repro.mpisim.errors import (
    CommMismatchError,
    DeadlockError,
    RankCrashed,
    RankFailure,
    RecoveryFailed,
    RetryExhausted,
    SimError,
    SimKilled,
    SimLimitExceeded,
)
from repro.mpisim.faults import (
    ChurnPlan,
    FaultPlan,
    MessageFate,
    NicDegradation,
    PartitionWindow,
)
from repro.mpisim.resilience import RecoveryConfig
from repro.mpisim.machine import (
    MachineModel,
    commodity_cluster,
    cori_aries,
    get_machine,
    zero_latency,
)
from repro.mpisim.message import ANY_SOURCE, ANY_TAG, Message
from repro.mpisim.power import EnergyReport, PowerModel, energy_report, energy_table
from repro.mpisim.topology import (
    DistGraphTopology,
    PendingNeighborExchange,
    payload_nbytes,
)
from repro.mpisim.tracing import (
    ProfilingError,
    RunProfile,
    Span,
    SpanRecorder,
    TraceEvent,
    events_for_rank,
    fault_events,
    fault_summary,
    summarize_ops,
    time_ordered,
    trace_from_csv,
    trace_to_csv,
)
from repro.mpisim.window import Window

__all__ = [
    "Engine",
    "EngineResult",
    "RankContext",
    "MachineModel",
    "get_machine",
    "cori_aries",
    "commodity_cluster",
    "zero_latency",
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "DistGraphTopology",
    "PendingNeighborExchange",
    "TraceEvent",
    "trace_to_csv",
    "trace_from_csv",
    "Span",
    "RunProfile",
    "SpanRecorder",
    "ProfilingError",
    "summarize_ops",
    "events_for_rank",
    "time_ordered",
    "Window",
    "payload_nbytes",
    "CommMatrix",
    "RankCounters",
    "RunCounters",
    "PowerModel",
    "EnergyReport",
    "energy_report",
    "energy_table",
    "SimError",
    "DeadlockError",
    "RankFailure",
    "RankCrashed",
    "RetryExhausted",
    "SimLimitExceeded",
    "CommMismatchError",
    "FaultPlan",
    "MessageFate",
    "NicDegradation",
    "PartitionWindow",
    "SimKilled",
    "RecoveryFailed",
    "RecoveryConfig",
    "ChurnPlan",
    "CheckpointConfig",
    "CheckpointCorrupt",
    "CheckpointStore",
    "ReplicatedCheckpointStore",
    "buddy_ranks",
    "EngineSnapshot",
    "save_checkpoint",
    "load_checkpoint",
    "AgreementCollective",
    "fault_events",
    "fault_summary",
    "AGG_TAG",
    "MessageAggregator",
    "PersistentSendRequest",
    "RecvRequest",
    "waitall_g",
]
