"""Worker-pool protocol: batches of job points executed in subprocesses.

The orchestrator ships each coalesced batch — a list of (key, JobRequest
dict) pairs sharing one graph recipe — to :func:`execute_batch` on a
``multiprocessing`` worker (via ``ProcessPoolExecutor``). The worker
builds the graph **once**, runs every point through the
:func:`repro.api.run` facade, renders profile artifacts in memory, and
returns plain dicts; the server process owns all store writes, so the
CAS never sees cross-process partial state.

Workers are long-lived: the per-process graph memoization in
:mod:`repro.harness.spec` keeps serving across batches.
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
)


def execute_point(job: dict) -> dict:
    """Run one {key, request} point; never raises (errors are data)."""
    from repro import api
    from repro.harness.records import record_to_dict
    from repro.service.schema import JobRequest

    key = job["key"]
    try:
        request = JobRequest.from_dict(job["request"])
        g = request.graph.build()
        cfg = request.config.to_run_config()
        rec = api.run(
            g,
            request.nprocs,
            request.model,
            config=cfg,
            label=request.graph.name,
            keep_result=request.config.profile,
        )
        artifacts: dict[str, bytes] = {}
        if request.config.profile:
            artifacts = _render_artifacts(rec.result, request.model)
            rec.result = None  # engine state is not picklable wire cargo
        return {
            "key": key,
            "ok": True,
            "record": record_to_dict(rec),
            "artifacts": artifacts,
        }
    except Exception as e:  # classified, returned, cached as an error
        return {
            "key": key,
            "ok": False,
            "error": f"{type(e).__name__}: {e}",
            "detail": traceback.format_exc(limit=20),
        }


def _render_artifacts(result, label: str) -> dict[str, bytes]:
    """The `repro profile` bundle, rendered to bytes instead of disk."""
    import tempfile
    from pathlib import Path

    from repro.harness.profiler import write_profile_bundle

    with tempfile.TemporaryDirectory(prefix="repro-artifacts-") as tmp:
        names = write_profile_bundle(tmp, result, label)
        return {name: (Path(tmp) / name).read_bytes() for name in names}


def execute_batch(jobs: list[dict]) -> list[dict]:
    """Entry point a worker process runs: one coalesced batch, in order.

    All jobs in a batch share a graph recipe (the orchestrator groups by
    :meth:`JobRequest.batch_key`), so the first point pays graph
    construction and the rest reuse the per-process memo.
    """
    return [execute_point(job) for job in jobs]


class InlineExecutor(Executor):
    """`workers=0` mode: run batches synchronously in the caller thread.

    Used by tests and by `repro submit --local`; also the fallback when
    multiprocessing is unavailable (e.g. sandboxed environments).
    """

    workers = 1  #: one batch at a time: the caller's thread runs it

    def submit(self, fn, /, *args, **kwargs) -> Future:
        fut: Future = Future()
        fut.set_running_or_notify_cancel()
        try:
            fut.set_result(fn(*args, **kwargs))
        except BaseException as e:  # pragma: no cover - defensive
            fut.set_exception(e)
        return fut

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


class WorkerPool(Executor):
    """A ``ProcessPoolExecutor`` that outlives its workers.

    A worker that dies (OOM kill, segfault) breaks the stdlib pool for
    good: every pending future fails and every later ``submit`` raises
    ``BrokenProcessPool``. Here the first ``submit`` after a break
    discards the broken pool and starts a re-warmed one, so one lost
    batch costs one batch.
    """

    def __init__(self, workers: int, mp_context: str = "spawn"):
        import multiprocessing

        self.workers = workers  #: the orchestrator keeps this many batches in flight
        self._ctx = multiprocessing.get_context(mp_context)
        self._lock = threading.Lock()
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(self.workers, mp_context=self._ctx)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        with self._lock:
            try:
                return self._pool.submit(fn, *args, **kwargs)
            except BrokenExecutor:
                self._pool.shutdown(wait=False)
                self._pool = self._new_pool()
                warm_executor(self._pool, self.workers)
                return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._lock:
            self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


def make_executor(workers: int, mp_context: str = "spawn") -> Executor:
    """Build the batch executor.

    ``workers == 0`` → :class:`InlineExecutor`; otherwise a
    :class:`WorkerPool` with the requested start method ("spawn" is
    the safe default alongside the threaded HTTP front end; "fork" is
    faster to warm on POSIX and what the tests use).
    """
    if workers <= 0:
        return InlineExecutor()
    return WorkerPool(workers, mp_context)


def warm_executor(executor: Executor, workers: int = 1) -> None:
    """Fork/spawn the workers *before* the HTTP threads start.

    Forking a process that already runs request threads risks inheriting
    held locks; warming while single-threaded sidesteps the whole class
    of problems and moves the import cost off the first request. The
    barrier sleep keeps each warm-up task busy long enough that the pool
    actually starts ``workers`` distinct processes.
    """
    futs = [executor.submit(_warm_sleep, 0.05) for _ in range(max(1, workers))]
    for f in futs:
        f.result()


def _warm_sleep(seconds: float) -> None:
    import time

    time.sleep(seconds)  # top-level function so spawn can pickle it
