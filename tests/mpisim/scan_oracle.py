"""The O(P) scan the engine's candidate heap must agree with.

``ScanEngine`` makes every scheduling decision by scanning all ranks and
re-evaluating each wake potential, so it cannot miss a wake-up: the
executable specification the heap replaced. ``AuditedEngine`` runs the
heap and checks each of its answers against a fresh scan. Both drive the
same rank generators as ``Engine``; see docs/engine_scheduling.md.
"""

from repro.mpisim.engine import _BLOCKED, _READY, Engine


def candidate_time(rs):
    """Earliest virtual time at which ``rs`` could act, or None."""
    if rs.state == _READY:
        return rs.clock
    t = rs.wake_potential() if rs.state == _BLOCKED else None
    return None if t is None else max(rs.clock, t)


def scan_min(ranks):
    """Minimal ``(t, rank)`` over every rank that can act, or None."""
    keys = [(t, rs.rank) for rs in ranks if (t := candidate_time(rs)) is not None]
    return min(keys, default=None)


class ScanEngine(Engine):
    """Nothing is indexed: the scheduler loop's pick is a scan."""

    def _push_candidate(self, rs):
        pass

    def _heap_min(self):
        return scan_min(self._ranks)

    def keep_running(self, rank):
        """Keep the token unless another live rank's clock is lower."""
        if self.resilience is not None:
            self.resilience.gate(rank)
        rs = self._ranks[rank]
        return not any((o.clock, o.rank) < (rs.clock, rank)
                       for o in self._ranks if o.state in (_READY, _BLOCKED))


class AuditedEngine(Engine):
    """The heap, checked at both ``_heap_min`` call sites: the scheduler
    loop's pick and ``keep_running``'s peek."""

    def _heap_min(self):
        top, scan = super()._heap_min(), scan_min(self._ranks)
        if top != scan:
            raise AssertionError(f"heap minimum {top}, scan minimum {scan}")
        return top
