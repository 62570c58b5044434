"""The transport under the service: kept-alive connections, one re-send
on a stale one, one-segment replies, stored bytes passed through.

Real loopback sockets throughout. The service runs ``workers=0``; the
scripted peers at the bottom stand in for a server that misbehaves in
one exact way (stalls, hangs up, answers 500).
"""

import json
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.client import ServiceClient, ServiceError
from repro.service import (
    GraphRef,
    JobRequest,
    MatchingService,
    ServiceConfig,
    WireConfig,
)

WAIT = 60


def make_request(nprocs=2, model="nsr", seed=None):
    return JobRequest(
        graph=GraphRef("rmat-s10", seed=seed), nprocs=nprocs, model=model,
        config=WireConfig(machine="zero-latency"),
    )


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(tmp_path_factory.mktemp("store")), workers=0,
        linger=0.02, wait_timeout=WAIT,
    ))
    svc.start_background()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service):
    with ServiceClient(service.url, timeout=WAIT + 10) as c:
        yield c


def wait_until(condition, what: str, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


# -- reuse -------------------------------------------------------------------

def test_many_requests_one_connection(service, client):
    accepted = service.httpd.connections_accepted
    client.submit(make_request())
    for _ in range(20):
        assert client.submit(make_request())["cache"] == "hit"
    assert client.stats()["connections_accepted"] == accepted + 1


def test_client_socket_has_nodelay(client):
    client.health()
    (conn,) = client._idle
    assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_reply_is_not_stalled_by_nagle(client):
    """A reply split over two writes waits ~40 ms for the client's delayed
    ACK on a reused connection; one write does not."""
    client.submit(make_request())
    times = []
    for _ in range(50):
        t = time.perf_counter()
        client.submit(make_request())
        times.append(time.perf_counter() - t)
    assert statistics.median(times) < 0.010, statistics.median(times)


def test_shared_client_requests_are_in_flight_together(service, client):
    """Two threads, one client: the second request must reach the server
    while the first is still waiting, or it could not coalesce."""
    request = make_request(nprocs=4, seed=4242)
    gate = threading.Barrier(2)
    envs = []

    def fire():
        gate.wait(WAIT)
        envs.append(client.submit(request))

    threads = [threading.Thread(target=fire) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT)
    assert sorted(env["cache"] for env in envs) == ["coalesced", "miss"]
    assert envs[0]["result"] == envs[1]["result"]
    assert len(client._idle) == 2  # both connections went back for reuse


def test_shared_client_under_thread_switching(service, client):
    """More threads than cores on one client: every request gets a whole
    reply of its own, and connections are reused, not opened per request."""
    client.submit(make_request())
    accepted = service.httpd.connections_accepted
    per_thread, nthreads = 40, 8
    wrong: list = []

    def hammer():
        for _ in range(per_thread):
            env = client.submit(make_request())
            if env["cache"] != "hit" or env["result"]["status"] != "ok":
                wrong.append(env)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert service.httpd.connections_accepted - accepted < nthreads
    assert len(client._idle) <= nthreads


def test_context_manager_closes_the_sockets(service):
    with ServiceClient(service.url, timeout=WAIT) as c:
        c.health()
        (conn,) = c._idle
        sock = conn.sock
    assert not c._idle
    assert sock.fileno() == -1
    assert c.health()["ok"] is True  # a closed client reconnects
    c.close()
    wait_until(lambda: not service.httpd._open, "the server to see the close")


# -- stale connections -------------------------------------------------------

def test_idle_connection_closed_by_server_is_replaced_once(tmp_path):
    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(tmp_path / "store"), workers=0, linger=0.0,
    ))
    svc.httpd.RequestHandlerClass.timeout = 0.1  # IDLE_TIMEOUT, shortened
    svc.start_background()
    try:
        with ServiceClient(svc.url, timeout=WAIT) as c:
            c.submit(make_request())
            assert svc.httpd.connections_accepted == 1
            # the abandoned connection times out and releases its thread
            wait_until(lambda: not svc.httpd._open, "the idle timeout")
            assert c.submit(make_request())["cache"] == "hit"
            assert svc.httpd.connections_accepted == 2
    finally:
        svc.shutdown()


def test_shutdown_closes_a_connection_with_a_request_in_flight(tmp_path, capfd):
    """The handler's reply then lands on a closed socket: the client sees
    the hang-up, and the server does not report it as a fault of its own."""
    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(tmp_path / "store"), workers=0,
        # the job is still queued when the server stops (within 0.5 s),
        # so the handler's reply is the 202 after `wait_timeout`
        linger=1.0, wait_timeout=1.5,
    ))
    svc.start_background()
    errors = []

    def submit():
        with ServiceClient(svc.url, timeout=WAIT) as c:
            try:
                c.submit(make_request())
            except OSError as e:
                errors.append(e)

    t = threading.Thread(target=submit)
    t.start()
    wait_until(lambda: svc.orchestrator.stats()["queued"] == 1, "the submit")
    svc.shutdown()
    t.join(WAIT)
    assert not t.is_alive()
    assert len(errors) == 1 and isinstance(errors[0], ConnectionError)
    wait_until(lambda: not svc.httpd._open, "the handler to finish")
    assert "Traceback" not in capfd.readouterr().err


def test_unknown_post_leaves_no_body_behind(client):
    """An unread body would be parsed as the next request line."""
    body = json.dumps(make_request().to_dict()).encode()
    with pytest.raises(ServiceError, match="no such endpoint") as ei:
        client._request("POST", "/v1/nope", body)
    assert ei.value.status == 404
    (conn,) = client._idle
    assert client.health()["ok"] is True
    assert list(client._idle) == [conn]  # answered on that same connection


# -- the bytes served --------------------------------------------------------

def test_hit_reply_is_the_old_encoding_byte_for_byte(service, client):
    client.submit(make_request())
    _, blob, ctype = client._request(
        "POST", "/v1/jobs", make_request().to_json().encode())
    assert ctype == "application/json"
    env = json.loads(blob)
    assert env["cache"] == "hit"
    job = service.orchestrator.job(env["job_id"])
    old = job.describe()
    old["result"] = job.result.to_dict()
    assert blob == (json.dumps(old, sort_keys=True) + "\n").encode()
    # the same payload by job id and by content key
    _, polled, _ = client._request("GET", f"/v1/jobs/{env['job_id']}")
    assert polled == blob
    _, by_key, _ = client._request("GET", f"/v1/results/{env['key']}")
    assert by_key == (
        json.dumps({"result": job.result.to_dict()}, sort_keys=True) + "\n"
    ).encode()


def test_miss_and_hit_serve_the_same_result_bytes(client):
    def result_bytes(blob: bytes) -> bytes:
        return blob[blob.index(b'"result": '):blob.index(b', "state"')]

    body = make_request(nprocs=4, seed=77).to_json().encode()
    _, miss, _ = client._request("POST", "/v1/jobs", body)
    _, hit, _ = client._request("POST", "/v1/jobs", body)
    assert json.loads(miss)["cache"] == "miss"
    assert json.loads(hit)["cache"] == "hit"
    assert result_bytes(miss) == result_bytes(hit)


def test_evicted_job_id_is_a_404_that_says_why(service, client, monkeypatch):
    from repro.service import orchestrator

    monkeypatch.setattr(orchestrator, "FINISHED_JOBS_KEPT", 2)
    first = client.submit(make_request())
    for _ in range(3):
        last = client.submit(make_request())
    assert client.job(last["job_id"])["result"] == first["result"]
    with pytest.raises(ServiceError, match="most recently finished") as ei:
        client.job(first["job_id"])
    assert ei.value.status == 404
    assert client.result(first["key"]).to_dict() == first["result"]


# -- scripted peers: what the client does when the server misbehaves ---------

OK_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 12\r\n\r\n{\"ok\": true}"
)


class ScriptedPeer:
    """A listener that runs ``script(connection, index)`` per accepted
    connection and counts them; ``read_request`` consumes one GET."""

    def __init__(self, script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.accepted = 0
        self.release = threading.Event()  # set on exit: unblocks the scripts
        self._script = script
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(
                target=self._run, args=(conn, self.accepted), daemon=True
            ).start()

    def _run(self, conn, index):
        with conn:
            self._script(self, conn, index)

    @staticmethod
    def read_request(conn) -> bytes:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
        return data

    @staticmethod
    def replying(raw: bytes, *, hang_up: bool = True):
        """A script answering each connection's request with ``raw``, then
        hanging up, or holding the connection open until exit."""
        def script(peer, conn, index):
            peer.read_request(conn)
            conn.sendall(raw)
            if not hang_up:
                peer.release.wait(WAIT)
        return script

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.release.set()
        # Closing a listening socket does not wake a thread blocked in
        # accept(); shutting it down does.
        try:
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        self._thread.join(5)


def test_timeout_on_a_fresh_connection_is_raised_not_retried():
    def stall(peer, conn, index):
        peer.read_request(conn)
        peer.release.wait(WAIT)

    with ScriptedPeer(stall) as peer, ServiceClient(peer.url, timeout=0.2) as c:
        with pytest.raises(TimeoutError):
            c.health()
        assert peer.accepted == 1
        assert not c._idle  # a connection in an unknown state is not reused


def test_timeout_on_a_reused_connection_is_raised_not_retried():
    def answer_once_then_stall(peer, conn, index):
        peer.read_request(conn)
        conn.sendall(OK_REPLY)
        peer.read_request(conn)
        peer.release.wait(WAIT)

    with ScriptedPeer(answer_once_then_stall) as peer, \
            ServiceClient(peer.url, timeout=0.2) as c:
        assert c.health() == {"ok": True}
        with pytest.raises(TimeoutError):
            c.health()
        assert peer.accepted == 1


def test_hangup_on_a_fresh_connection_is_raised_not_retried():
    def hang_up(peer, conn, index):
        peer.read_request(conn)

    with ScriptedPeer(hang_up) as peer, ServiceClient(peer.url, timeout=5) as c:
        with pytest.raises(ConnectionError):
            c.health()
        assert peer.accepted == 1


def test_stale_connection_is_resent_exactly_once():
    """Connection 1 answers once and hangs up; the re-send's connection 2
    hangs up too: that error surfaces, there is no connection 3."""
    def script(peer, conn, index):
        peer.read_request(conn)
        if index == 1:
            conn.sendall(OK_REPLY)

    with ScriptedPeer(script) as peer, ServiceClient(peer.url, timeout=5) as c:
        assert c.health() == {"ok": True}
        with pytest.raises(ConnectionError):
            c.health()
        assert peer.accepted == 2


def test_5xx_raises_service_error_with_the_servers_text():
    def fail(peer, conn, index):
        peer.read_request(conn)
        body = b'{"error": "store on fire"}'
        conn.sendall(
            b"HTTP/1.1 500 Internal Server Error\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        peer.read_request(conn)

    with ScriptedPeer(fail) as peer, ServiceClient(peer.url, timeout=5) as c:
        with pytest.raises(ServiceError, match="store on fire") as ei:
            c.health()
        assert ei.value.status == 500
        assert len(c._idle) == 1  # an error reply does not cost the connection
