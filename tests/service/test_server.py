"""HTTP end-to-end: the service + client over a real (loopback) socket.

One module-scoped service runs with ``workers=0`` (InlineExecutor), so
simulations execute on the dispatcher thread — fast and sandbox-safe —
while the HTTP path (ThreadingHTTPServer + ServiceClient's kept-alive
sockets) is fully real. The transport itself is
tests/service/test_connections.py.
"""

import json

import pytest

from repro.client import ServiceClient, ServiceError
from repro.service import (
    SCHEMA_VERSION,
    GraphRef,
    JobRequest,
    MatchingService,
    ServiceConfig,
    WireConfig,
)

WAIT = 60


def make_request(name="rmat-s10", nprocs=4, model="ncl", **config):
    config.setdefault("machine", "zero-latency")
    return JobRequest(
        graph=GraphRef(name), nprocs=nprocs, model=model,
        config=WireConfig(**config),
    )


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = tmp_path_factory.mktemp("service-store")
    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(store), workers=0, linger=0.02,
        wait_timeout=WAIT,
    ))
    svc.start_background()
    yield svc
    svc.shutdown()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, timeout=WAIT + 10)


def test_healthz(client, service):
    h = client.health()
    assert h["ok"] is True
    assert h["schema_version"] == SCHEMA_VERSION
    assert h["code_version"] == service.code_version


def test_submit_twice_second_is_bit_identical_hit(client):
    req = make_request(nprocs=2, model="nsr")
    before = client.stats()
    e1 = client.submit(req)
    e2 = client.submit(req)
    assert e1["cache"] == "miss" and e1["state"] == "done"
    assert e2["cache"] == "hit" and e2["state"] == "done"
    # the cache-stable payload is *bit-identical* between miss and hit
    assert json.dumps(e1["result"], sort_keys=True) == \
        json.dumps(e2["result"], sort_keys=True)
    assert e1["result"]["record"]["makespan"] > 0
    after = client.stats()
    assert after["cache_hits"] == before["cache_hits"] + 1
    assert after["sims_executed"] == before["sims_executed"] + 1


def test_engine_change_is_still_a_hit(client):
    # The retired engine field is a 400 like any unknown field; without
    # it the request keys and hits as it always did.
    named = make_request(nprocs=2).to_dict()
    named["config"]["engine"] = "threaded"
    with pytest.raises(ServiceError, match="unknown field.*'engine'") as ei:
        client._json("POST", "/v1/jobs", json.dumps(named).encode())
    assert ei.value.status == 400
    e1 = client.submit(make_request(nprocs=2))
    e2 = client.submit(make_request(nprocs=2))
    assert e2["key"] == e1["key"]
    assert e2["cache"] == "hit"
    assert e2["result"] == e1["result"]


def test_toml_body_same_key_as_json(client):
    req = make_request(nprocs=2, model="nsr")
    toml = """
nprocs = 2
model = "nsr"

[graph]
name = "rmat-s10"

[config]
machine = "zero-latency"
"""
    env = client.submit(req, toml_body=toml)
    assert env["key"] == req.cache_key(client.health()["code_version"])
    assert env["cache"] == "hit"  # same point as the JSON submit above


def test_unknown_field_is_400(client):
    bad = make_request().to_dict()
    bad["config"]["warp_speed"] = 9
    with pytest.raises(ServiceError, match="config: unknown field") as ei:
        client._json("POST", "/v1/jobs", json.dumps(bad).encode())
    assert ei.value.status == 400


def test_unknown_graph_is_400(client):
    with pytest.raises(ServiceError, match="no-such-graph") as ei:
        client.submit(JobRequest(graph=GraphRef("no-such-graph"), nprocs=2))
    assert ei.value.status == 400


def test_wrong_schema_version_is_400(client):
    bad = make_request().to_dict()
    bad["schema_version"] = 99
    with pytest.raises(ServiceError, match="schema_version") as ei:
        client._json("POST", "/v1/jobs", json.dumps(bad).encode())
    assert ei.value.status == 400


# -- the decode memo ---------------------------------------------------------

TOML_BODY = b"""
nprocs = 2
model = "nsr"

[graph]
name = "rmat-s10"

[config]
machine = "zero-latency"
"""


def post(client, body: bytes, content_type="application/json") -> dict:
    return client._json("POST", "/v1/jobs", body, content_type)


def test_refused_bodies_are_refused_every_time_and_never_memoised(client, service):
    schema_bad = make_request().to_dict()
    schema_bad["config"]["warp_speed"] = 9
    bodies = {
        "config: unknown field": json.dumps(schema_bad).encode(),
        "no-such-graph": JobRequest(GraphRef("no-such-graph"), 2).to_json().encode(),
    }
    before = service.decode_memo.cache_info()
    for message, body in bodies.items():
        for _ in range(3):
            with pytest.raises(ServiceError, match=message) as ei:
                post(client, body)
            assert ei.value.status == 400
    after = service.decode_memo.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


def test_same_bytes_as_json_and_as_toml_are_decoded_separately(client):
    env = post(client, TOML_BODY, "application/toml")
    assert env["state"] == "done"
    with pytest.raises(ServiceError, match="bad JSON") as ei:
        post(client, TOML_BODY)  # the TOML memo entry must not answer
    assert ei.value.status == 400
    json_body = make_request(nprocs=2, model="nsr").to_json().encode()
    assert post(client, json_body)["key"] == env["key"]
    with pytest.raises(ServiceError, match="bad TOML") as ei:
        post(client, json_body, "application/toml")
    assert ei.value.status == 400


def test_memo_hit_keys_like_a_cold_decode(client, service):
    from repro.service import parse_request

    body = make_request(nprocs=4, model="rma").to_json().encode()
    cold = parse_request(body).cache_key(service.code_version)
    before = service.decode_memo.cache_info().hits
    first = post(client, body)
    again = post(client, body)
    assert service.decode_memo.cache_info().hits == before + 1
    assert first["key"] == again["key"] == cold
    assert again["cache"] == "hit" and again["result"] == first["result"]


def test_an_oversized_valid_body_is_accepted_but_not_memoised(client, service):
    from repro.service import parse_request
    from repro.service.server import DECODED_BODY_MAX

    body = make_request(nprocs=2, model="ncl").to_json().encode()
    padded = body[:-1] + b" " * DECODED_BODY_MAX + b"}"
    cold = parse_request(padded).cache_key(service.code_version)
    before = service.decode_memo.cache_info()
    envs = [post(client, padded) for _ in range(2)]
    assert service.decode_memo.cache_info() == before
    assert envs[0]["key"] == envs[1]["key"] == cold
    assert envs[1]["cache"] == "hit"


@pytest.mark.parametrize("refused_first", [True, False])
def test_requests_equal_in_python_are_sent_as_their_own_bytes(
    client, refused_first
):
    # eager_reject=1 == True and hashes alike, but the schema refuses the
    # int: each submit must carry its own encoding, whatever came before
    refused = make_request(nprocs=2, model="rma", eager_reject=1)
    accepted = make_request(nprocs=2, model="rma", eager_reject=True)
    assert refused == accepted
    for request in (refused, accepted) if refused_first else (accepted, refused):
        if request is refused:
            with pytest.raises(ServiceError, match="eager_reject") as ei:
                client.submit(request)
            assert ei.value.status == 400
        else:
            assert client.submit(request)["state"] == "done"


def test_no_wait_then_poll(client):
    req = make_request(nprocs=8)
    env = client.submit(req, wait=False)
    assert env["cache"] in ("miss", "hit", "coalesced")
    job_id = env["job_id"]
    deadline = WAIT
    import time
    while True:
        polled = client.job(job_id)
        if polled["state"] in ("done", "failed"):
            break
        deadline -= 0.05
        assert deadline > 0, "job never completed"
        time.sleep(0.05)
    assert polled["state"] == "done"
    assert polled["result"]["status"] == "ok"
    # the published result is also addressable by content key
    fetched = client.result(polled["key"])
    assert fetched.to_dict() == polled["result"]


def test_profile_run_serves_artifacts(client):
    env = client.submit(make_request(nprocs=2, profile=True))
    result = env["result"]
    assert result["status"] == "ok"
    names = result["artifacts"]
    assert names, "profile run should publish an artifact bundle"
    assert any(n.endswith(".json") for n in names)
    for name in names:
        blob = client.artifact(env["key"], name)
        assert blob  # every advertised artifact is fetchable
    trace = next(n for n in names if n.endswith(".json"))
    json.loads(client.artifact(env["key"], trace))  # valid JSON on the wire


def test_failed_job_reported_and_cached(client):
    req = make_request(nprocs=100_000)  # 10x more ranks than vertices
    e1 = client.submit(req)
    assert e1["state"] == "failed"
    assert e1["result"]["status"] == "error" and e1["result"]["error"]
    e2 = client.submit(req)
    assert e2["cache"] == "hit" and e2["state"] == "failed"


def test_404s(client):
    with pytest.raises(ServiceError) as ei:
        client.job("job-424242")
    assert ei.value.status == 404
    with pytest.raises(ServiceError) as ei:
        client.result("ff" * 32)
    assert ei.value.status == 404
    with pytest.raises(ServiceError) as ei:
        client.artifact("ff" * 32, "trace.json")
    assert ei.value.status == 404
    with pytest.raises(ServiceError) as ei:
        client._json("GET", "/v1/nope")
    assert ei.value.status == 404


def test_artifact_traversal_refused(client):
    env = client.submit(make_request(nprocs=2, profile=True))
    with pytest.raises(ServiceError) as ei:
        client.artifact(env["key"], "result.json")  # internal file, not artifact
    assert ei.value.status == 404


def test_stats_shape(client):
    s = client.stats()
    for field in (
        "jobs_submitted", "jobs_coalesced", "sims_executed", "sims_failed",
        "batches_dispatched", "dispatch_wait_ms_max", "dispatch_wait_ms_total",
        "objects", "cache_hits", "cache_misses",
        "code_version", "connections_accepted",
    ):
        assert field in s


def test_shutdown_endpoint(tmp_path):
    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(tmp_path / "store"), workers=0,
    ))
    svc.start_background()
    c = ServiceClient(svc.url, timeout=10)
    assert c.shutdown()["ok"] is True
    import time
    for _ in range(100):  # the server thread winds down asynchronously
        try:
            c.health()
            time.sleep(0.05)
        except (ServiceError, OSError):
            break
    else:
        pytest.fail("server still answering after shutdown")


def test_shutdown_returns_without_waiting_out_a_poll(tmp_path):
    """The accept loop looks for a shutdown request every POLL_INTERVAL,
    so a clean shutdown no longer sleeps out socketserver's 0.5 s poll."""
    import time

    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(tmp_path / "store"), workers=0,
    ))
    svc.start_background()
    with ServiceClient(svc.url, timeout=10) as c:
        assert c.health()["ok"] is True
    t0 = time.perf_counter()
    svc.shutdown()
    assert time.perf_counter() - t0 < 0.25


def test_shutdown_endpoint_races_no_pool_teardown(tmp_path):
    """`POST /v1/shutdown` and `serve_forever()`'s own clean-up both shut
    the orchestrator down; racing each other into the process pool they
    used to die with EBADF about one time in ten."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for cycle in range(30):
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--mp-context", "fork",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()  # "matching-as-a-service on URL"
            url = banner.split()[-1]
            assert ServiceClient(url, timeout=10).shutdown()["ok"] is True
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"cycle {cycle}: {err}"
        assert "Traceback" not in err, f"cycle {cycle}: {err}"
