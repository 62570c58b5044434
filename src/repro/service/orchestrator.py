"""Job orchestrator: dedup, coalesce, batch, dispatch, fan out.

Request lifecycle::

    submit ──► cache probe ──hit──► done ("hit", zero simulations)
                 │miss
                 ├─ identical request already queued/running?
                 │      yes ──► follower of that primary ("coalesced")
                 │      no  ──► primary job, enqueued ("miss")
                 ▼
    dispatcher thread: as soon as a worker is free, group the queued
    primaries by batch key (same graph recipe → one worker dispatch, one
    graph build) and hand a batch to each free worker; what arrives
    while every worker is busy waits in the queue and joins the next cut
                 ▼
    completion: publish JobResult + artifacts to the content-addressed
    store, then fan the *same* result out to the primary and every
    follower (all waiters wake with identical payloads)

Every structure is guarded by one lock, and the dispatcher waits on a
condition of that lock (no timer): a submission or a freed worker wakes
it. Jobs expose a ``threading.Event`` so HTTP handler threads (or
library callers) can block for completion.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.service.pool import execute_batch
from repro.service.schema import JobRequest, JobResult
from repro.service.store import ResultStore

#: finished jobs kept addressable by id (`GET /v1/jobs/<id>`); older ones
#: are dropped, their results stay in the store under the content key
FINISHED_JOBS_KEPT = 1024


@dataclass
class Job:
    """One submitted request and its progress through the service."""

    id: str
    request: JobRequest
    key: str  #: content address (cache key)
    cache: str  #: "hit" | "miss" | "coalesced"
    state: str = "queued"  #: queued → running → done | failed
    result: JobResult | None = None
    followers: list["Job"] = field(default_factory=list)
    done: threading.Event = field(default_factory=threading.Event)
    submitted: float = field(default_factory=time.perf_counter)

    def wait(self, timeout: float | None = None) -> bool:
        return self.done.wait(timeout)

    def describe(self) -> dict:
        return {
            "job_id": self.id,
            "key": self.key,
            "state": self.state,
            "cache": self.cache,
        }


class Orchestrator:
    """Owns the queue, the in-flight index, and the dispatcher thread.

    ``executor`` is a :class:`concurrent.futures.Executor` that declares
    ``workers``, the number of batches it runs at once; the dispatcher
    keeps that many in flight (``InlineExecutor`` 1, ``WorkerPool`` N).
    """

    def __init__(
        self,
        store: ResultStore,
        executor,
        code_version: str,
        *,
        linger: float = 0.0,
    ):
        self.store = store
        self.executor = executor
        self.code_version = code_version
        #: seconds the dispatcher waits, once a worker is free, before
        #: cutting a batch — a window in which overlapping sweep requests
        #: land together. At 0 a batch is whatever queued while every
        #: worker was busy, and an idle server dispatches at once.
        self.linger = linger
        #: batches in flight at once: the executor's declared worker count
        self.workers = executor.workers
        self._lock = threading.Lock()
        self._shutdown_lock = threading.Lock()  # serialises shutdown() callers
        self._ready = threading.Condition(self._lock)
        self._busy = 0  # batches handed to the executor and not yet back
        self._queue: list[Job] = []
        self._inflight: dict[str, Job] = {}  # key -> primary job
        self._active: dict[str, Job] = {}  # job id -> queued/running job
        self._finished: dict[str, Job] = {}  # the most recent, oldest first
        self._ids = itertools.count(1)
        self._stop = False
        # -- counters (see /v1/stats) ---------------------------------
        self.jobs_submitted = 0
        self.jobs_coalesced = 0
        self.sims_executed = 0
        self.sims_failed = 0
        self.batches_dispatched = 0
        #: seconds from a primary's submit to its hand-off to the executor
        self.dispatch_wait_max = 0.0
        self.dispatch_wait_total = 0.0
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._started = False

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "Orchestrator":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the dispatcher and the pool. Idempotent: `POST
        /v1/shutdown` and `serve_forever()`'s clean-up both land here,
        and the later caller waits for the earlier one to finish rather
        than tearing the pool's pipes down underneath it."""
        with self._shutdown_lock:
            with self._lock:
                if self._stop:
                    return
                self._stop = True
                self._ready.notify_all()
            if self._started and wait:
                self._thread.join(timeout=10)
            self.executor.shutdown(wait=wait)

    # -- submission ---------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Register a request; returns a Job that is possibly already done.

        Never blocks on simulation: cache hits complete inline, misses
        and coalesced duplicates complete via the dispatcher. Callers
        block on ``job.wait()`` if and when they want the result.
        """
        request.validate()
        key = request.cache_key(self.code_version)
        with self._lock:
            self.jobs_submitted += 1
            job_id = f"job-{next(self._ids)}"
            primary = self._inflight.get(key)
            if primary is not None:
                # identical request already queued/running: ride along
                job = Job(id=job_id, request=request, key=key, cache="coalesced")
                primary.followers.append(job)
                self._active[job_id] = job
                self.jobs_coalesced += 1
                return job
            cached = self.store.lookup(key)  # counts the hit or miss
            if cached is not None:
                job = Job(
                    id=job_id, request=request, key=key, cache="hit",
                    state="done" if cached.status == "ok" else "failed",
                    result=cached,
                )
                job.done.set()
                self._retire(job)
                return job
            job = Job(id=job_id, request=request, key=key, cache="miss")
            self._active[job_id] = job
            self._inflight[key] = job
            self._queue.append(job)
            self._ready.notify()
        return job

    def job(self, job_id: str) -> Job | None:
        """An active job, or one of the `FINISHED_JOBS_KEPT` latest done."""
        with self._lock:
            return self._active.get(job_id) or self._finished.get(job_id)

    def _retire(self, job: Job) -> None:
        """File a finished job, dropping the oldest past the bound (locked)."""
        self._active.pop(job.id, None)
        self._finished[job.id] = job
        while len(self._finished) > FINISHED_JOBS_KEPT:
            del self._finished[next(iter(self._finished))]

    # -- dispatch -----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._stop and not (
                    self._queue and self._busy < self.workers
                ):
                    self._ready.wait()
                if self._stop:
                    return
            if self.linger > 0:
                # collect overlapping requests into the same cut
                time.sleep(self.linger)
            with self._lock:
                if self._stop:
                    return
                batches = self._cut(self.workers - self._busy)
            for batch in batches:
                payload = [
                    {"key": j.key, "request": j.request.to_dict()} for j in batch
                ]
                try:
                    fut = self.executor.submit(execute_batch, payload)
                except Exception as e:  # the batch is lost, the loop is not
                    self._worker_freed()
                    self._worker_failed(batch, e)
                    continue
                fut.add_done_callback(
                    lambda f, jobs=batch: self._complete(jobs, f)
                )

    def _cut(self, free: int) -> list[list[Job]]:
        """Take one batch per free worker off the queue (locked).

        Queued primaries are grouped by graph recipe, oldest group first;
        groups beyond ``free`` stay queued, open to later same-recipe
        submissions. The batches taken count as running from here.
        """
        groups: dict[str, list[Job]] = {}
        for j in self._queue:
            groups.setdefault(j.request.batch_key(), []).append(j)
        batches = list(groups.values())
        self._queue = [j for rest in batches[free:] for j in rest]
        batches = batches[:free]
        self._busy += len(batches)
        self.batches_dispatched += len(batches)
        now = time.perf_counter()
        for batch in batches:
            for j in batch:
                j.state = "running"
                waited = now - j.submitted
                self.dispatch_wait_total += waited
                self.dispatch_wait_max = max(self.dispatch_wait_max, waited)
        return batches

    # -- completion ---------------------------------------------------
    def _complete(self, jobs: list[Job], fut) -> None:
        self._worker_freed()
        try:
            outcomes = {o["key"]: o for o in fut.result()}
        except Exception as e:  # worker process died, pool broke, ...
            self._worker_failed(jobs, e)
            return
        for job in jobs:
            out = outcomes.get(
                job.key,
                {"ok": False, "error": "worker returned no outcome for key"},
            )
            if out.get("ok"):
                result = JobResult(
                    key=job.key,
                    status="ok",
                    record=out["record"],
                    artifacts=tuple(sorted(out.get("artifacts", {}))),
                    code_version=self.code_version,
                )
            else:
                result = JobResult(
                    key=job.key,
                    status="error",
                    error=out.get("error", "unknown worker error"),
                    code_version=self.code_version,
                )
            try:
                result = self.store.put(result, artifacts=out.get("artifacts") or {})
            except Exception as e:  # keep serving from memory regardless
                result = JobResult(
                    key=job.key, status="error",
                    error=f"store write failed: {e}",
                    code_version=self.code_version,
                )
            self._finish(job, result)

    def _worker_failed(self, jobs: list[Job], exc: Exception) -> None:
        """Answer a batch the pool lost. The failure says nothing about
        the requests, so nothing is stored: a re-submit is a miss that
        runs again (errors `execute_point` returns as data are facts
        about the request, and those `_complete` does cache)."""
        for job in jobs:
            self._finish(job, JobResult(
                key=job.key, status="error",
                error=f"worker failure: {type(exc).__name__}: {exc}",
                code_version=self.code_version,
            ))

    def _worker_freed(self) -> None:
        """A batch is back from the executor: its worker takes the next."""
        with self._lock:
            self._busy -= 1
            self._ready.notify()

    def _finish(self, job: Job, result: JobResult) -> None:
        """Hand one result to the primary and every follower."""
        with self._lock:
            self.sims_executed += 1
            if result.status != "ok":
                self.sims_failed += 1
            self._inflight.pop(job.key, None)
            for w in (job, *job.followers):
                w.result = result
                w.state = "done" if result.status == "ok" else "failed"
                self._retire(w)
                w.done.set()

    # -- accounting ---------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            d = {
                "jobs_submitted": self.jobs_submitted,
                "jobs_coalesced": self.jobs_coalesced,
                "sims_executed": self.sims_executed,
                "sims_failed": self.sims_failed,
                "batches_dispatched": self.batches_dispatched,
                "dispatch_wait_ms_max": self.dispatch_wait_max * 1e3,
                "dispatch_wait_ms_total": self.dispatch_wait_total * 1e3,
                "queued": len(self._queue),
                "inflight": len(self._inflight),
                "code_version": self.code_version,
            }
        d.update(self.store.stats())
        return d
