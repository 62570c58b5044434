"""Distributed-matching driver: ties state, backends, and the engine
together (paper Algorithm 3 and §IV-D).

The same :class:`~repro.matching.state.MatchingState` transition system
runs over any of the four backends; only Push/Evoke/Process differ
(paper Table I). ``matching_rank_main`` is the SPMD target executed by
every simulated rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.distribution import LocalGraph
from repro.matching.incl import INCLBackend
from repro.matching.mbp import MBPBackend
from repro.matching.ncl import NCLBackend
from repro.matching.nsr import NSRBackend
from repro.matching.nsr_agg import NSRAggBackend
from repro.matching.rma import RMABackend
from repro.matching.state import MatchingState
from repro.mpisim.context import RankContext

BACKENDS = {
    "nsr": NSRBackend,
    "rma": RMABackend,
    "ncl": NCLBackend,
    "mbp": MBPBackend,
    # extension (not in the paper): nonblocking neighborhood collectives
    # with compute/transfer overlap — see repro/matching/incl.py
    "incl": INCLBackend,
    # extension: NSR semantics over the message-aggregation layer — the
    # ablation point between nsr and ncl (repro/matching/nsr_agg.py)
    "nsr-agg": NSRAggBackend,
}
#: the backends whose transport is a reliable channel: the only ones that
#: can honour message faults and partitions
SEND_RECV_BACKENDS = ("nsr", "nsr-agg")
#: the backends that finish the matching on the survivors of a rank crash
#: (rma / ncl through the superstep loop's shrink-and-rebuild)
CRASH_SURVIVING_BACKENDS = SEND_RECV_BACKENDS + ("rma", "ncl")


@dataclass(frozen=True)
class MatchingOptions:
    """Tunables for one matching run."""

    eager_reject: bool = False  #: use the paper's literal Algorithm 6
    #: REQUEST handling instead of deferred proposals (ablation only —
    #: quality and cross-backend determinism are not guaranteed)
    tie_break: str = "hash"  #: "hash" (paper's fix) or "id" (the naive,
    #: pathological scheme from §III; ablation only)
    charge_graph_memory: bool = True  #: register CSR bytes with the
    #: memory model (identical across models; off to isolate buffers)

    # -- fault tolerance (docs/fault_model.md) ------------------------
    reliable: bool | None = None  #: force the ack/retry delivery channel
    #: on (True) or off (False); None = auto, on exactly when the engine's
    #: fault plan injects message faults or partitions. Read by the
    #: Send-Recv backends (nsr, nsr-agg) only.
    rto: float | None = None  #: initial retransmission timeout (s,
    #: virtual); None derives ~4x RTT from the machine model
    rto_max: float | None = None  #: backoff cap (s); None = 64x rto
    max_retries: int = 25  #: retransmissions per message before giving up

    # -- message aggregation (nsr-agg backend) ------------------------
    agg_flush_bytes: int | None = 8192  #: lane auto-flush byte threshold
    #: (None disables; lanes then flush only at iteration boundaries)
    agg_flush_count: int | None = None  #: lane auto-flush message-count
    #: threshold (None disables)
    agg_flush_delay: float | None = 5e-6  #: aggregation timer (virtual s):
    #: how long an idle rank lingers for more coalescable traffic before
    #: flushing its lanes (None flushes immediately on running dry)

    # -- simulation budgets (guard runaway runs; SimLimitExceeded) ----
    max_ops: int | None = None  #: engine operation budget
    max_vtime: float | None = None  #: virtual-time budget (s)


def make_backend(
    name: str,
    ctx: RankContext,
    lg: LocalGraph,
    options: "MatchingOptions | None" = None,
):
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown matching backend {name!r}; have {sorted(BACKENDS)}") from None
    return cls(ctx, lg, options)


def matching_rank_main(
    ctx: RankContext,
    parts: list[LocalGraph],
    model: str,
    options: MatchingOptions | None = None,
):
    """SPMD entry point: run half-approx matching on this rank's partition.

    Returns a per-rank result dict with the owned mate slice, algorithm
    statistics, and backend iteration counts; the harness assembles the
    global matching from these.

    A generator: the engine single-steps it from the scheduler loop and
    every blocking call inside delegates with ``yield from``.
    """
    options = options or MatchingOptions()
    lg = parts[ctx.rank]
    # Resuming from a coordinated checkpoint: reconstruction is charge-
    # free (the restored clocks and counters already cover everything up
    # to the cut), so every ctx.alloc below is skipped and the mutable
    # state/backends adopt the snapshot instead of starting fresh.
    resuming = ctx.resuming
    rblob = ctx.resume_app_state() if resuming else None
    if resuming and rblob is None:
        raise ValueError(
            f"cannot resume rank {ctx.rank}: the checkpoint carries no "
            f"application state (was it taken by a non-matching workload?)"
        )
    if options.charge_graph_memory and not resuming:
        ctx.alloc(lg.memory_bytes(), "graph-csr")

    backend = make_backend(model, ctx, lg, options)
    state = MatchingState(
        lg,
        # Parking pushes are generators (push_g: they must reach the
        # scheduler via the yield protocol); non-parking pushes (ncl,
        # incl) stay plain callables — MatchingState drives either.
        push=backend.push_g if hasattr(backend, "push_g") else backend.push,
        charge=ctx.compute,
        eager_reject=options.eager_reject,
        handle_scale=getattr(backend, "handle_scale", 1.0),
        tie_break=options.tie_break,
    )
    # Candidate-order arrays, eviction/pending sets, pair table — all
    # O(local edges); register them with the memory model.
    state_bytes = 8 * lg.num_local_directed_edges + 64 * lg.num_owned
    if not resuming:
        ctx.alloc(state_bytes, "matching-state")

    if rblob is not None:
        restore = getattr(backend, "restore_checkpoint", None)
        if restore is None:
            raise ValueError(
                f"backend {model!r} does not support checkpoint resume"
            )
        state.restore(rblob["state"])
        restore(rblob["backend"])

    snap_fn = getattr(backend, "snapshot", None)
    if snap_fn is not None:
        ctx.register_checkpoint_provider(
            lambda: {"state": state.snapshot(), "backend": snap_fn()}
        )

    info = yield from backend.run_g(state)
    backend.finalize(state)
    ctx.free(state_bytes, "matching-state")
    if options.charge_graph_memory:
        ctx.free(lg.memory_bytes(), "graph-csr")

    return {
        "rank": ctx.rank,
        "lo": lg.lo,
        "hi": lg.hi,
        "mate": state.mate_global(),
        "iterations": info.get("iterations", 0),
        "recoveries": info.get("recoveries", 0),
        "stats": state.stats,
        "model": model,
    }
