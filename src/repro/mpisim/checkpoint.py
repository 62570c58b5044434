"""Coordinated checkpoint/restart artifacts for the simulated runtime.

The engine takes *coordinated* checkpoints: at configurable virtual-time
intervals it waits for every live rank to park at a **safepoint** (a
backend-marked wait such as ``ctx.probe`` or an explicit
``ctx.checkpoint_tick()`` at a loop boundary), then captures one global
snapshot — per-rank clocks, receive queues, NIC availability, the
engine's deterministic fault/ordering streams (the counter-based
"RNG state" is just the op/post/put counters), in-flight collectives,
run counters, and a per-rank application blob supplied by a registered
checkpoint provider (matching state, reliable-channel and aggregator
buffers, loop position).

A snapshot is a single pickled payload hashed with SHA-256 at capture
time, so checkpoints are content-addressed and bit-comparable across
runs. Pickling the whole cut at once preserves object identity between
ranks (e.g. a shared RMA window store stays shared after restore).

Restores are **bit-identical**: an engine built with
``Engine(..., restore=snapshot)`` replays to exactly the same mate
array, weight, counters, and trace suffix as the uninterrupted run —
this is enforced by golden pins and a Hypothesis round-trip property
(``tests/mpisim/test_checkpoint.py``, ``tests/matching/test_restart.py``).

On-disk artifacts use a small ``.ckpt`` envelope: magic, format
version, metadata, and the payload guarded by its SHA-256.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path

_MAGIC = b"RPCKPT1\n"
_VERSION = 1

#: pickle protocol pinned for stable on-disk artifacts
PICKLE_PROTOCOL = 4


class CheckpointCorrupt(ValueError):
    """A ``.ckpt`` envelope failed validation.

    ``field`` names the offending part of the envelope: ``"magic"``,
    ``"version"``, ``"truncated"`` (the file is shorter than its own
    framing claims) or ``"hash"`` (payload bytes do not match the stored
    SHA-256). Subclasses :class:`ValueError` so existing
    ``except (OSError, ValueError)`` resume paths keep working.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def buddy_ranks(rank: int, nprocs: int, replicas: int) -> tuple[int, ...]:
    """Buddy placement for diskless checkpoint replication.

    Rank ``r``'s slice of every coordinated cut is copied to the next
    ``replicas`` ranks on the ring, ``(r+1 .. r+k) mod P`` — the classic
    buddy scheme: placement is a pure function of the rank id, so no
    agreement round is needed to locate a surviving copy, and a single
    crash can never take out both a slice and all of its copies (for
    ``replicas >= 1``). Clamped to ``nprocs - 1`` distinct buddies.
    """
    if nprocs < 1:
        raise ValueError(f"buddy_ranks: nprocs must be >= 1, got {nprocs}")
    if not 0 <= rank < nprocs:
        raise ValueError(f"buddy_ranks: rank {rank} out of range for P={nprocs}")
    if replicas < 0:
        raise ValueError(f"buddy_ranks: replicas must be >= 0, got {replicas}")
    k = min(replicas, nprocs - 1)
    return tuple((rank + i) % nprocs for i in range(1, k + 1))


@dataclass(frozen=True)
class EngineSnapshot:
    """One coordinated checkpoint: a content-hashed engine state cut.

    ``payload`` is the pickled state tree (opaque to callers); ``sha256``
    is the hash of those bytes, taken at capture time. ``epoch`` is the
    snapshot's ordinal within its run (0-based) and ``vtime`` the virtual
    time of the coordinated cut (every rank's clock is <= ``vtime`` for
    safepoint-parked ranks and >= ``vtime`` for tick-parked ranks; the
    cut is consistent because no messages cross it undelivered — they
    ride along inside the pickled receive queues).
    """

    epoch: int
    vtime: float
    nprocs: int
    payload: bytes
    sha256: str

    def state(self) -> dict:
        """Unpickle the payload (a fresh copy each call)."""
        return pickle.loads(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineSnapshot(epoch={self.epoch}, vtime={self.vtime:.9g}, "
            f"nprocs={self.nprocs}, {len(self.payload)} bytes, "
            f"sha256={self.sha256[:12]}...)"
        )


def make_snapshot(epoch: int, vtime: float, nprocs: int, state: dict) -> EngineSnapshot:
    """Pickle ``state`` immediately (isolating it from further mutation)
    and wrap it with its content hash."""
    payload = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    return EngineSnapshot(
        epoch=epoch,
        vtime=vtime,
        nprocs=nprocs,
        payload=payload,
        sha256=_sha256(payload),
    )


class CheckpointStore:
    """In-memory (and optionally on-disk) collection of every snapshot
    a run took. When ``dir`` is set on the :class:`CheckpointConfig`,
    each snapshot is also written to ``<dir>/checkpoint-epoch<N>.ckpt``
    as it is taken.
    """

    def __init__(self):
        self._snapshots: list[EngineSnapshot] = []

    def add(self, snap: EngineSnapshot) -> None:
        self._snapshots.append(snap)

    def latest(self) -> EngineSnapshot | None:
        return self._snapshots[-1] if self._snapshots else None

    def latest_before(self, vtime: float) -> EngineSnapshot | None:
        """The most recent snapshot with ``vtime <= vtime`` (for restart
        after a kill at ``vtime``); ``None`` when none was taken by then.
        """
        best = None
        for s in self._snapshots:
            if s.vtime <= vtime:
                best = s
        return best

    def at_epoch(self, epoch: int) -> EngineSnapshot | None:
        """Snapshot for ``epoch``; ``None`` if that epoch was never taken."""
        for s in self._snapshots:
            if s.epoch == epoch:
                return s
        return None

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self):
        return iter(self._snapshots)

    def __getitem__(self, i: int) -> EngineSnapshot:
        return self._snapshots[i]


@dataclass
class _ReplicaRecord:
    """Replication bookkeeping for one coordinated cut.

    ``slice_nbytes`` maps each live rank at the cut to the pickled size
    of its slice; ``lost`` accumulates ranks whose in-memory copies died
    with them (a holder crash wipes both its own slice and every buddy
    copy it was storing — loss marks are permanent: recovery does not
    re-replicate old cuts, only new cuts get fresh copies).
    """

    vtime: float
    nprocs: int
    slice_nbytes: dict[int, int]
    lost: set[int] = field(default_factory=set)


class ReplicatedCheckpointStore(CheckpointStore):
    """Diskless buddy-replicated checkpoint store.

    Each rank's slice of every :class:`EngineSnapshot` cut is (logically)
    copied to its :func:`buddy_ranks` — the engine charges those copies
    to the machine model as real sends at cut time. Copies live in the
    holders' memory only: when a rank crashes, its own slice *and* every
    buddy copy it held die with it. A cut is **complete** (recoverable)
    iff for every slice at least one holder — the owner or one of its
    ``replicas`` buddies — is still intact.

    ``replicas=0`` degenerates to "no copies": any crash makes every
    stored cut incomplete, which is the deterministic way to exercise the
    "no complete cut survives" failure report.
    """

    def __init__(self, replicas: int = 2):
        super().__init__()
        if replicas < 0:
            raise ValueError(
                f"ReplicatedCheckpointStore.replicas must be >= 0, got {replicas}"
            )
        self.replicas = replicas
        self._records: dict[int, _ReplicaRecord] = {}

    # -- engine-side bookkeeping ---------------------------------------
    def record_replication(
        self, snap: EngineSnapshot, slice_nbytes: dict[int, int]
    ) -> None:
        """Register the per-rank slice sizes of a freshly taken cut."""
        self._records[snap.epoch] = _ReplicaRecord(
            vtime=snap.vtime,
            nprocs=snap.nprocs,
            slice_nbytes=dict(slice_nbytes),
        )

    def mark_rank_lost(self, rank: int) -> None:
        """A holder died: every copy it stored (for every cut) is gone."""
        for rec in self._records.values():
            rec.lost.add(rank)

    def slice_size(self, epoch: int, rank: int) -> int:
        """Pickled size of ``rank``'s slice of cut ``epoch`` (0 if unknown)."""
        rec = self._records.get(epoch)
        return 0 if rec is None else rec.slice_nbytes.get(rank, 0)

    def discard_after(self, epoch: int) -> int:
        """Drop cuts newer than ``epoch`` (the abandoned timeline after a
        rollback). Returns how many were discarded."""
        doomed = [s for s in self._snapshots if s.epoch > epoch]
        if doomed:
            self._snapshots = [s for s in self._snapshots if s.epoch <= epoch]
            for s in doomed:
                self._records.pop(s.epoch, None)
        return len(doomed)

    # -- completeness --------------------------------------------------
    def _missing_slices(self, epoch: int) -> list[int]:
        """Ranks whose slice of ``epoch`` has no surviving holder."""
        rec = self._records[epoch]
        missing = []
        for r in sorted(rec.slice_nbytes):
            holders = {r, *buddy_ranks(r, rec.nprocs, self.replicas)}
            if holders <= rec.lost:
                missing.append(r)
        return missing

    def is_complete(self, epoch: int) -> bool:
        return epoch in self._records and not self._missing_slices(epoch)

    def latest_complete(self) -> tuple[EngineSnapshot | None, int]:
        """Newest cut with a surviving copy of every slice.

        Returns ``(snapshot, cuts_lost)`` where ``cuts_lost`` counts the
        newer cuts that had to be skipped because buddy death left some
        slice with no surviving holder. ``(None, cuts_lost)`` when no
        stored cut is complete.
        """
        lost = 0
        for s in reversed(self._snapshots):
            if s.epoch in self._records and not self._missing_slices(s.epoch):
                return s, lost
            lost += 1
        return None, lost

    def explain(self) -> str:
        """Deterministic per-cut report of why recovery is (im)possible."""
        if not self._snapshots:
            return "no checkpoint cut had been taken yet"
        lines = []
        for s in reversed(self._snapshots):
            if s.epoch not in self._records:
                lines.append(f"epoch {s.epoch} @ {s.vtime:.9g}: unreplicated")
                continue
            missing = self._missing_slices(s.epoch)
            if not missing:
                lines.append(f"epoch {s.epoch} @ {s.vtime:.9g}: complete")
            else:
                rec = self._records[s.epoch]
                parts = []
                for r in missing:
                    holders = sorted(
                        {r, *buddy_ranks(r, rec.nprocs, self.replicas)})
                    parts.append(
                        f"slice {r} lost (holders {holders} all dead)")
                lines.append(
                    f"epoch {s.epoch} @ {s.vtime:.9g}: incomplete — "
                    + "; ".join(parts)
                )
        return "\n".join(lines)


@dataclass
class CheckpointConfig:
    """Turn on coordinated checkpointing for an engine run.

    ``interval`` is the virtual-time spacing between coordinated cuts
    (first cut at ``interval``, then every ``interval`` after). The
    engine appends each snapshot to ``store``; with ``dir`` set it also
    writes ``.ckpt`` files there. Checkpointing is pure instrumentation:
    it charges no virtual time and leaves makespan, counters, and the
    trace bit-identical to a run without it.
    """

    interval: float
    store: CheckpointStore = field(default_factory=CheckpointStore)
    dir: str | Path | None = None

    def __post_init__(self) -> None:
        if not (self.interval > 0):
            raise ValueError(
                f"CheckpointConfig.interval must be > 0, got {self.interval}"
            )


def save_checkpoint(snap: EngineSnapshot, path: str | Path) -> Path:
    """Write ``snap`` as a ``.ckpt`` envelope (magic, version, metadata,
    SHA-256-guarded payload)."""
    path = Path(path)
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<IIQd", _VERSION, snap.nprocs, snap.epoch, snap.vtime))
    buf.write(bytes.fromhex(snap.sha256))
    buf.write(struct.pack("<Q", len(snap.payload)))
    buf.write(snap.payload)
    path.write_bytes(buf.getvalue())
    return path


def load_checkpoint(path: str | Path) -> EngineSnapshot:
    """Read a ``.ckpt`` envelope back, verifying magic, version, length,
    and payload hash.

    Every way the envelope can be malformed — wrong magic, unsupported
    version, a file shorter than its own framing, payload bytes that do
    not hash to the stored SHA-256 — raises :class:`CheckpointCorrupt`
    naming the offending field, never a bare ``struct``/pickle traceback.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(_MAGIC):
        raise CheckpointCorrupt(
            "magic", f"{path}: not a repro checkpoint (bad magic)"
        )
    off = len(_MAGIC)
    header_fmt = "<IIQd"
    if len(data) < off + struct.calcsize(header_fmt):
        raise CheckpointCorrupt(
            "truncated", f"{path}: truncated checkpoint header"
        )
    version, nprocs, epoch, vtime = struct.unpack_from(header_fmt, data, off)
    off += struct.calcsize(header_fmt)
    if version != _VERSION:
        raise CheckpointCorrupt(
            "version",
            f"{path}: unsupported checkpoint format version {version} "
            f"(this build reads version {_VERSION})",
        )
    if len(data) < off + 32 + struct.calcsize("<Q"):
        raise CheckpointCorrupt(
            "truncated", f"{path}: truncated checkpoint hash/length fields"
        )
    sha = data[off : off + 32].hex()
    off += 32
    (plen,) = struct.unpack_from("<Q", data, off)
    off += struct.calcsize("<Q")
    payload = data[off : off + plen]
    if len(payload) != plen:
        raise CheckpointCorrupt(
            "truncated", f"{path}: truncated checkpoint payload"
        )
    if _sha256(payload) != sha:
        raise CheckpointCorrupt(
            "hash", f"{path}: checkpoint payload hash mismatch (corrupt file)"
        )
    return EngineSnapshot(
        epoch=epoch, vtime=vtime, nprocs=nprocs, payload=payload, sha256=sha
    )
