"""RMA — MPI-3 one-sided backend with passive-target puts (§IV-D(b)).

Table I mapping: Push = ``MPI_Put``, Evoke = ``MPI_Win_flush_all`` +
``MPI_Neighbor_alltoall`` (outgoing-count exchange), Process = scan newly
visible slots of the local window.

Remote displacement scheme (paper Fig. 1): each rank's window is
partitioned into one region per topology neighbor, sized ``2 x (shared
ghost count)`` message slots. A prefix sum over its neighbors' ghost
counts gives each rank its region layout; one ``neighbor_alltoall``
delivers to every neighbor the start offset of *its* region in this
rank's window. After that, a put needs only a local per-neighbor cursor —
no distributed counters, no atomics.

Each outer iteration: flush (complete my puts) -> exchange cumulative
written counts -> read my window regions up to the advertised counts ->
process -> global reduction on remaining work for the exit decision
(paper §V-D: unlike Send-Recv, one-sided ranks cannot exit on local
evidence alone).

Fault tolerance (extension; see docs/fault_model.md):

* **Put-fate verification** — when the fault plan injects one-sided
  drop/corrupt faults, slots grow a fourth checksum word. Flush-before-
  counts ordering guarantees every advertised slot has physically
  arrived, so a zero checksum means *dropped* and a mismatch means
  *corrupted* — never merely late. The receiver consumes in order,
  stalls at the first bad slot, and piggybacks the bad-slot list on the
  next counts exchange; the origin re-puts those slots (a fresh fate per
  retry) from its sent-slot log. The termination reduction includes the
  outstanding bad-slot debt so the loop cannot exit with holes.

* **Crash recovery** — the loop, its survivor-safe collectives and the
  renounce-revoke-rebuild step are :mod:`repro.matching.superstep`'s.
  One-sided data needs no resend on a crash: pending window updates
  live in the store independent of any collective, and counts are
  cumulative, so the window itself is allocated once and reused.
"""

from __future__ import annotations

import numpy as np

from repro.graph.distribution import LocalGraph
from repro.matching.contexts import Ctx
from repro.matching.state import MatchingState
from repro.matching.superstep import SuperstepBackend
from repro.mpisim.context import RankContext
from repro.mpisim.window import Window
from repro.util.rng import derive_seed

_SLOT = 3  # (context, x, y) int64 words per message slot
_VSLOT = 4  # (checksum, context, x, y) words under put-fate verification

_CHK_MASK = 0x7FFFFFFFFFFFFFFF


def slot_checksum(ctx_id: int, x: int, y: int) -> int:
    """Nonzero int64 checksum over one message slot's payload words."""
    return (derive_seed(0x5EED, ctx_id, x, y) & _CHK_MASK) | 1


class RMABackend(SuperstepBackend):
    """One-sided puts into per-neighbor window regions."""

    name = "rma"

    def __init__(self, ctx: RankContext, lg: LocalGraph, options=None):
        super().__init__(ctx, lg, options)
        plan = self._plan
        self.put_verify = plan is not None and plan.has_rma_faults()
        self._slot = _VSLOT if self.put_verify else _SLOT

        # Window layout is fixed over the *original* neighbor set (a dead
        # neighbor's region simply goes unused after recovery), so region
        # offsets survive a topology rebuild unchanged.
        caps = (2 * lg.ghost_edges).tolist()  # _all_nbrs is lg.ghost_ranks
        starts = np.zeros(len(self._all_nbrs) + 1, dtype=np.int64)
        np.cumsum(caps, out=starts[1:])
        self.region_cap = {q: int(c) for q, c in zip(self._all_nbrs, caps)}
        self.region_start = {
            q: int(starts[k]) * self._slot for k, q in enumerate(self._all_nbrs)
        }
        self._total_slots = int(starts[-1])

        self.write_cursor = {q: 0 for q in self._all_nbrs}  # slots written
        self.read_cursor = {q: 0 for q in self._all_nbrs}  # slots consumed
        # origin-side sent-slot log for checksum-retry re-puts
        self.sent_log: dict[int, list[tuple[int, int, int]]] = (
            {q: [] for q in self._all_nbrs} if self.put_verify else {}
        )
        # slots of MY window I found bad on the last scan, per sender
        self._my_bad: dict[int, tuple[int, ...]] = {}
        self._win_charged = False
        # Window and region bases come from setup (the loop's first
        # step) or, on resume, from the checkpoint.
        self.win = None
        self.remote_base: dict[int, int] = {}
        if not ctx.resuming:
            # origin-side bookkeeping buffers (cursors + offsets), memory
            # model; a resume's restored counters already carry this.
            ctx.alloc(8 * 4 * max(1, len(self._all_nbrs)), "rma-bookkeeping")

    def _setup_g(self, dead):
        """Topology, then the window (once, survivor-safe under a crash
        plan) and every neighbor's base offset of my region in its window."""
        yield from super()._setup_g(dead)
        ctx = self.ctx
        size = self._total_slots * self._slot
        if self.fault_aware:
            for r in dead:
                self._my_bad.pop(r, None)
            self.win = yield from ctx.win_allocate_survivor_g(
                size, dtype=np.int64, fill=0, epoch=self.epoch, tag="rma-data",
                charge_memory=not self._win_charged,
            )
            self._win_charged = True
        else:
            self.win = yield from ctx.win_allocate_g(size, dtype=np.int64, fill=0)
        mine = [int(self.region_start[q]) for q in self.topo.neighbors]
        bases = yield from self.topo.neighbor_alltoall_g(mine, nbytes_per_item=8)
        self.remote_base = {q: int(b) for q, b in zip(self.topo.neighbors, bases)}

    # ------------------------------------------------------------------
    def push_g(self, ctx_id: Ctx, target_rank: int, x: int, y: int):
        if self.write_cursor[target_rank] >= self.region_cap[target_rank]:
            raise RuntimeError(
                f"RMA region overflow towards rank {target_rank}: "
                f"{self.write_cursor[target_rank]} >= "
                f"{self.region_cap[target_rank]} slots"
            )
        cur = self.write_cursor[target_rank]
        offset = self.remote_base[target_rank] + cur * self._slot
        c = int(ctx_id)
        if self.put_verify:
            words = (slot_checksum(c, x, y), c, x, y)
            self.sent_log[target_rank].append((c, x, y))
        else:
            words = (c, x, y)
        yield from self.win.put_g(target_rank, words, offset)
        self.write_cursor[target_rank] = cur + 1

    # ------------------------------------------------------------------
    def _exchange_counts_g(self):
        """Flush, then trade cumulative counts (+ bad-slot reports).

        Returns ``(counts, reported)``: ``counts`` is a list aligned with
        ``topo.neighbors``, ``reported`` maps a neighbor to the slots it
        found bad in its region of our puts.
        """
        yield from self.win.flush_all_g()
        nbrs = self.topo.neighbors
        wc = self.write_cursor
        if self.put_verify:
            items = [(wc[q], self._my_bad.get(q, ())) for q in nbrs]
            nbytes_each = [8 + 8 * len(b) for _, b in items]
            recv, _ = yield from self.topo.neighbor_alltoallv_g(
                items, nbytes_each=nbytes_each)
            counts = [c for c, _ in recv]
            reported = {q: b for q, (_, b) in zip(nbrs, recv) if b}
            return counts, reported
        counts = yield from self.topo.neighbor_alltoall_g(
            [wc[q] for q in nbrs], nbytes_per_item=8)
        return counts, {}

    def _scan_region_g(self, state: MatchingState, buf, q: int, avail: int):
        """Consume newly advertised slots from sender ``q`` in order.

        The region's unread slots are decoded with one ``tolist()``.
        Under put-fate verification, consumption stalls at the first slot
        whose checksum fails (zero = dropped, mismatch = corrupted); the
        remainder of the advertised range is still scanned so every bad
        slot is reported — and re-put — in one round.
        """
        slot = self._slot
        cur = self.read_cursor[q]
        base = self.region_start[q]
        it = iter(buf[base + cur * slot: base + avail * slot].tolist())
        handle = state.handle_g
        if not self.put_verify:
            for c, x, y in zip(it, it, it):
                yield from handle(c, x, y)
            self.read_cursor[q] = avail
            return avail - cur
        bad: list[int] = []
        first = cur
        for k, (chk, c, x, y) in enumerate(zip(it, it, it, it), cur):
            if chk != slot_checksum(c, x, y):
                # report every bad slot in the range, not just the
                # first, so the origin repairs them all in one retry round
                bad.append(k)
            elif not bad:
                yield from handle(c, x, y)
                cur = k + 1
        self.read_cursor[q] = cur
        if bad:
            self._my_bad[q] = tuple(bad)
        else:
            self._my_bad.pop(q, None)
        return cur - first

    def _repair_slots_g(self, reported: dict[int, tuple[int, ...]]):
        """Re-put slots a neighbor reported bad (fresh fate per retry)."""
        rc = self.ctx.counters()
        for q, bads in reported.items():
            for sidx in bads:
                c, x, y = self.sent_log[q][sidx]
                yield from self.win.put_g(
                    q,
                    (slot_checksum(c, x, y), c, x, y),
                    self.remote_base[q] + sidx * self._slot,
                )
                rc.put_retries += 1

    def _evoke_and_process_g(self, state: MatchingState):
        """flush -> counts exchange -> read new window slots."""
        counts, reported = yield from self._exchange_counts_g()
        yield from self.win.sync_local_g()
        buf = self.win.local
        self.ctx.prof_stage("process")
        handled = 0
        read = self.read_cursor
        # Only regions with unread slots: a stalled (bad) slot keeps its
        # region unread, so skipping the rest skips no report either.
        for q, avail in zip(self.topo.neighbors, counts):
            if avail != read[q]:
                handled += yield from self._scan_region_g(state, buf, q, avail)
        if reported:
            yield from self._repair_slots_g(reported)
        return handled

    def _work_left(self, state: MatchingState) -> int:
        """Remaining work plus the bad slots still awaiting repair, so the
        loop cannot exit with holes."""
        return state.remaining() + sum(len(v) for v in self._my_bad.values())

    # ------------------------------------------------------------------
    # checkpoint capture/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Backend loop/window state for a coordinated checkpoint.

        The shared :class:`~repro.mpisim.window._WindowStore` is captured
        by reference: the engine pickles the whole cut in one pass, so
        every rank's blob resolves to the *same* restored store object —
        window sharing survives the round trip by pickle memoization.
        """
        return {
            **self._loop_state(),
            "write_cursor": self.write_cursor,
            "read_cursor": self.read_cursor,
            "sent_log": self.sent_log,
            "my_bad": self._my_bad,
            "win_charged": self._win_charged,
            "remote_base": self.remote_base,
            "win_store": None if self.win is None else self.win._store,
            "topo": self._topo_ref(),
        }

    def restore_checkpoint(self, blob: dict) -> None:
        """Adopt a snapshot; the next :meth:`run_g` resumes mid-loop."""
        self._restore_loop_state(blob)
        self.write_cursor = blob["write_cursor"]
        self.read_cursor = blob["read_cursor"]
        self.sent_log = blob["sent_log"]
        self._my_bad = blob["my_bad"]
        self._win_charged = blob["win_charged"]
        self.remote_base = blob["remote_base"]
        if blob["win_store"] is not None:
            self.win = Window(self.ctx, blob["win_store"])

    def finalize(self, state: MatchingState) -> None:
        self.win.free()
        self.ctx.free(8 * 4 * max(1, len(self._all_nbrs)), "rma-bookkeeping")
