"""Orchestrator: dedup, coalesced fan-out, batch grouping, worker pool.

The fast tests run on the InlineExecutor (simulations execute on the
dispatcher thread); the stress test at the bottom exercises a real
``ProcessPoolExecutor`` with concurrent submitting threads — the ISSUE's
"concurrent clients" acceptance scenario.
"""

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.service.orchestrator import Orchestrator
from repro.service.pool import InlineExecutor, make_executor, warm_executor
from repro.service.schema import GraphRef, JobRequest, WireConfig
from repro.service.store import ResultStore

CODE = "deadbeef0123"


def make_request(name="rmat-s10", nprocs=4, model="ncl", **config):
    config.setdefault("machine", "zero-latency")
    return JobRequest(
        graph=GraphRef(name), nprocs=nprocs, model=model,
        config=WireConfig(**config),
    )


@pytest.fixture
def orch(tmp_path):
    o = Orchestrator(
        ResultStore(tmp_path / "store"), InlineExecutor(), CODE, linger=0.2,
    ).start()
    yield o
    o.shutdown()


WAIT = 60  # generous; everything here completes in well under a second


def test_miss_then_hit_bit_identical(orch):
    first = orch.submit(make_request())
    assert first.cache == "miss"
    assert first.wait(WAIT)
    assert first.state == "done" and first.result.status == "ok"

    second = orch.submit(make_request())
    assert second.cache == "hit"
    assert second.done.is_set()  # hits complete inline, zero simulations
    assert second.result.to_json() == first.result.to_json()
    assert orch.stats()["sims_executed"] == 1
    assert orch.stats()["cache_hits"] == 1


def test_engine_choice_hits_the_same_entry(orch):
    # There is no engine choice left: a request naming one is refused
    # at decoding, before it can reach the queue or the key, and the
    # same request without it is an ordinary miss, then a hit.
    from repro.service.schema import JobRequest, SchemaError

    d = make_request().to_dict()
    for name in ("threaded", "turbo"):
        with pytest.raises(SchemaError, match="engine"):
            orch.submit(JobRequest.from_dict({**d, "config": {**d["config"], "engine": name}}))
    first = orch.submit(JobRequest.from_dict(d))
    assert first.wait(WAIT)
    second = orch.submit(make_request())
    assert second.cache == "hit"
    assert second.result.to_json() == first.result.to_json()
    assert orch.stats()["jobs_submitted"] == 2


def test_host_repro_engine_cannot_poison_the_store(orch, monkeypatch):
    # The server's own environment is not part of the request or the
    # key: a stray $REPRO_ENGINE must not fail the miss and cache that
    # failure for every server sharing the store.
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    job = orch.submit(make_request())
    assert job.cache == "miss"
    assert job.wait(WAIT)
    assert job.state == "done" and job.result.status == "ok"
    stored = orch.store.peek(job.key)
    assert stored is not None and stored.status == "ok" and not stored.error


def test_coalesced_fanout_all_waiters_get_the_result(orch):
    reqs = [make_request() for _ in range(4)]
    jobs = [orch.submit(r) for r in reqs]
    assert [j.cache for j in jobs] == ["miss", "coalesced", "coalesced", "coalesced"]
    for j in jobs:
        assert j.wait(WAIT)
        assert j.state == "done"
    # one simulation, one published result object fanned out to everyone
    assert orch.stats()["sims_executed"] == 1
    assert orch.stats()["jobs_coalesced"] == 3
    for j in jobs[1:]:
        assert j.result is jobs[0].result


def test_batches_group_by_graph_recipe(orch):
    jobs = [
        orch.submit(make_request(nprocs=2, model="nsr")),
        orch.submit(make_request(nprocs=4, model="nsr")),
        orch.submit(make_request(nprocs=4, model="ncl")),
        orch.submit(make_request(name="rgg-8k", nprocs=4)),
    ]
    for j in jobs:
        assert j.wait(WAIT)
    stats = orch.stats()
    assert stats["sims_executed"] == 4  # distinct points all ran
    assert stats["batches_dispatched"] == 2  # rmat-s10 batch + rgg-8k batch


def test_failed_run_is_cached_as_error(orch):
    # 10x more ranks than the graph has vertices: the run itself fails,
    # and the failure is classified, cached, and replayed like any result
    bad = make_request(nprocs=100_000)
    job = orch.submit(bad)
    assert job.wait(WAIT)
    assert job.state == "failed"
    assert job.result.status == "error" and job.result.error
    again = orch.submit(bad)
    assert again.cache == "hit" and again.state == "failed"
    assert again.result.to_json() == job.result.to_json()
    assert orch.stats()["sims_failed"] == 1


def test_job_lookup(orch):
    job = orch.submit(make_request())
    assert orch.job(job.id) is job
    assert orch.job("job-999") is None
    assert job.describe()["cache"] == "miss"
    assert job.wait(WAIT)


def test_finished_jobs_are_bounded_active_ones_are_not(orch, monkeypatch):
    from repro.service import orchestrator

    monkeypatch.setattr(orchestrator, "FINISHED_JOBS_KEPT", 3)
    miss = orch.submit(make_request())
    follower = orch.submit(make_request())
    assert miss.wait(WAIT) and follower.wait(WAIT)
    hits = [orch.submit(make_request()) for _ in range(3)]
    # the three newest finished jobs stay, oldest first out
    assert orch.job(miss.id) is None and orch.job(follower.id) is None
    assert [orch.job(h.id) for h in hits] == hits
    # a queued job is never dropped, however many others finish meanwhile
    slow = orch.submit(make_request(nprocs=8))
    more = [orch.submit(make_request()) for _ in range(5)]
    assert orch.job(slow.id) is slow
    assert slow.wait(WAIT)
    assert orch.job(slow.id) is slow  # now the newest finished one
    assert orch.job(more[0].id) is None


def test_invalid_request_rejected_before_queueing(orch):
    from repro.service.schema import SchemaError

    with pytest.raises(SchemaError, match="model"):
        orch.submit(make_request(model="simplex"))
    assert orch.stats()["jobs_submitted"] == 0


# -- dispatch on a free worker ---------------------------------------------

class GateExecutor(Executor):
    """``workers`` threads; the first ``held`` batches wait for ``release``."""

    def __init__(self, workers=1, held=1):
        self.workers = workers
        self.started = threading.Semaphore(0)  # one count per held batch running
        self.release = threading.Event()
        self._thread = ThreadPoolExecutor(workers)
        self._held = held

    def submit(self, fn, /, *args, **kwargs):
        held = self._held > 0  # only the dispatcher thread submits
        self._held -= 1

        def run():
            if held:
                self.started.release()
                self.release.wait(WAIT)
            return fn(*args, **kwargs)

        return self._thread.submit(run)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.release.set()
        self._thread.shutdown(wait=wait)


def test_submits_made_while_every_worker_is_busy_go_out_as_one_batch(tmp_path):
    gate = GateExecutor()
    orch = Orchestrator(ResultStore(tmp_path / "store"), gate, CODE).start()
    try:
        first = orch.submit(make_request(nprocs=2))
        assert gate.started.acquire(timeout=WAIT)
        held = []
        for nprocs, model in ((4, "nsr"), (4, "ncl"), (8, "ncl")):
            held.append(orch.submit(make_request(nprocs=nprocs, model=model)))
            time.sleep(0.1)  # longer than any linger: each arrives alone
        assert orch.stats()["queued"] == 3
        gate.release.set()
        for job in (first, *held):
            assert job.wait(WAIT)
            assert job.state == "done"
        stats = orch.stats()
        assert stats["sims_executed"] == 4
        assert stats["batches_dispatched"] == 2
    finally:
        orch.shutdown()


def test_a_burst_on_an_idle_server_fills_each_worker_then_batches_the_rest(
    tmp_path,
):
    # With no timer, nothing tells the dispatcher that more of a burst is
    # coming: each free worker takes what has queued so far. Here the
    # first two points each reach a free worker alone, the other three
    # queue behind them, so five same-recipe points cost workers + 1 = 3
    # batches (3 graph builds, 2 of them in parallel).
    gate = GateExecutor(workers=2, held=2)
    orch = Orchestrator(ResultStore(tmp_path / "store"), gate, CODE).start()
    try:
        jobs = []
        for nprocs in (2, 4):
            jobs.append(orch.submit(make_request(nprocs=nprocs, model="nsr")))
            assert gate.started.acquire(timeout=WAIT)
        for nprocs, model in ((2, "ncl"), (4, "ncl"), (8, "nsr")):
            jobs.append(orch.submit(make_request(nprocs=nprocs, model=model)))
        assert orch.stats()["queued"] == 3
        gate.release.set()
        for job in jobs:
            assert job.wait(WAIT)
            assert job.state == "done"
        stats = orch.stats()
        assert stats["sims_executed"] == 5
        assert stats["batches_dispatched"] == gate.workers + 1
    finally:
        orch.shutdown()


def test_idle_miss_reaches_the_executor_without_a_timed_wait(tmp_path, monkeypatch):
    from repro.service import orchestrator

    slept = []

    def no_sleep(seconds):
        slept.append(seconds)
        raise AssertionError(f"the dispatcher slept {seconds} s")

    monkeypatch.setattr(orchestrator, "time", SimpleNamespace(
        perf_counter=time.perf_counter, sleep=no_sleep,
    ))
    orch = Orchestrator(
        ResultStore(tmp_path / "store"), InlineExecutor(), CODE
    ).start()
    try:
        job = orch.submit(make_request())
        assert job.wait(WAIT)
        assert job.state == "done"
        assert slept == []
        stats = orch.stats()
        assert stats["batches_dispatched"] == 1
        assert 0 < stats["dispatch_wait_ms_max"] <= stats["dispatch_wait_ms_total"]
    finally:
        orch.shutdown()


def test_shutdown_wakes_a_dispatcher_waiting_for_a_free_worker(tmp_path):
    gate = GateExecutor()
    orch = Orchestrator(ResultStore(tmp_path / "store"), gate, CODE).start()
    orch.submit(make_request(nprocs=2))
    assert gate.started.acquire(timeout=WAIT)
    orch.submit(make_request(nprocs=4))  # queued: the only worker is held
    assert orch.stats()["queued"] == 1
    # The gate opens only in the executor's shutdown, after the dispatcher
    # has been joined (for up to 10 s): the stop alone must wake it.
    t = time.perf_counter()
    orch.shutdown()
    assert time.perf_counter() - t < 5


# -- concurrent clients on a real worker pool ------------------------------

def test_concurrent_clients_on_process_pool(tmp_path):
    """12 client threads race 3 distinct points → exactly 3 simulations.

    This is the ISSUE acceptance scenario: a 3-point sweep submitted as
    overlapping requests must coalesce to ≤ 3 simulations, and every
    waiter must receive the bit-identical published payload.
    """
    executor = make_executor(2, "fork")
    warm_executor(executor, 2)
    orch = Orchestrator(
        ResultStore(tmp_path / "store"), executor, CODE, linger=0.2,
    ).start()
    try:
        points = [make_request(nprocs=p) for p in (2, 4, 8)]
        results: dict[int, object] = {}

        def client(i: int):
            job = orch.submit(points[i % 3])
            assert job.wait(WAIT)
            results[i] = job.result

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert len(results) == 12
        stats = orch.stats()
        assert stats["sims_executed"] == 3
        assert stats["jobs_submitted"] == 12
        # the 9 duplicates were served without simulating: coalesced onto
        # an in-flight primary or replayed from the store
        assert stats["jobs_coalesced"] + stats["cache_hits"] == 9
        for i in range(12):
            assert results[i].to_json() == results[i % 3].to_json()
        assert {results[i].status for i in range(12)} == {"ok"}
    finally:
        orch.shutdown()


# -- a worker process dies --------------------------------------------------

@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_killed_worker_fails_the_batch_typed_and_nothing_else(tmp_path):
    """SIGKILL the pool's worker mid-batch: the batch's job fails with a
    typed error that is *not* cached (a re-submit is a miss that runs),
    the pool is replaced, and the dispatcher keeps dispatching."""
    before = set(multiprocessing.active_children())
    executor = make_executor(1, "fork")
    warm_executor(executor, 1)
    (worker,) = set(multiprocessing.active_children()) - before
    store = ResultStore(tmp_path / "store")
    orch = Orchestrator(store, executor, CODE, linger=0).start()
    try:
        # Stopped, the worker cannot finish the batch before the kill.
        os.kill(worker.pid, signal.SIGSTOP)
        lost = orch.submit(make_request())
        while lost.state == "queued":
            time.sleep(0.01)
        os.kill(worker.pid, signal.SIGKILL)
        assert lost.wait(WAIT)
        assert lost.state == "failed" and lost.result.status == "error"
        assert lost.result.error.startswith("worker failure: BrokenProcessPool")
        assert orch.stats()["sims_failed"] == 1
        assert store.lookup(lost.key) is None

        again = orch.submit(make_request())
        assert again.cache == "miss"
        assert again.wait(WAIT)
        assert again.state == "done" and again.result.status == "ok"

        other = orch.submit(make_request(nprocs=2))
        assert other.wait(WAIT)
        assert other.state == "done"
        assert orch.stats()["sims_failed"] == 1
    finally:
        orch.shutdown()


def test_dispatcher_survives_a_submit_that_raises(tmp_path):
    class Flaky(InlineExecutor):
        fail = True

        def submit(self, fn, /, *args, **kwargs):
            if self.fail:
                self.fail = False
                raise RuntimeError("cannot schedule")
            return super().submit(fn, *args, **kwargs)

    orch = Orchestrator(
        ResultStore(tmp_path / "store"), Flaky(), CODE, linger=0
    ).start()
    try:
        lost = orch.submit(make_request())
        assert lost.wait(WAIT)
        assert lost.result.error == "worker failure: RuntimeError: cannot schedule"
        again = orch.submit(make_request())
        assert again.cache == "miss" and again.wait(WAIT)
        assert again.state == "done"
    finally:
        orch.shutdown()
