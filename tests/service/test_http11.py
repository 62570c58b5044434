"""HTTP/1.1 framing at both ends of a connection (repro.service.http11).

The server half sends hand-written requests over real loopback sockets
and reads the replies byte by byte; the client half points a
``ServiceClient`` at a ``ScriptedPeer`` that answers with exactly the
bytes a test gives it.
"""

import io
import json
import socket
import time
from email.utils import parsedate_to_datetime

import pytest

from repro.client import ServiceClient
from repro.service import MatchingService, ServiceConfig
from repro.service.http11 import (
    MAX_HEADERS,
    MAX_LINE,
    FramingError,
    content_length,
    read_headers,
)
from tests.service.test_connections import WAIT, ScriptedPeer, make_request

HEALTH = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = MatchingService(ServiceConfig(
        port=0, store_dir=str(tmp_path_factory.mktemp("store")), workers=0,
        wait_timeout=WAIT,
    ))
    svc.start_background()
    yield svc
    svc.shutdown()


class Peer:
    """One raw connection to the service."""

    def __init__(self, service):
        self.sock = socket.create_connection(service.address, timeout=WAIT)
        self.rfile = self.sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    def reply(self) -> tuple[int, str, dict, bytes]:
        """(status, reason, headers by lower-cased name, body)."""
        status = self.rfile.readline().decode("latin-1")
        assert status.startswith("HTTP/1.1 "), status
        headers = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        body = self.rfile.read(int(headers.get("content-length", 0)))
        return int(status[9:12]), status[13:].strip(), headers, body

    def still_open(self) -> bool:
        """True when the server answers a further request on this socket."""
        try:
            self.sock.sendall(HEALTH + b"\r\n")
            return self.rfile.readline().startswith(b"HTTP/1.1 200")
        except ConnectionError:
            return False


def ask(service, raw: bytes) -> tuple[int, str, dict, bytes, bool]:
    """Send ``raw`` on a fresh connection: the reply, then whether the
    server kept the connection open after it."""
    peer = Peer(service)
    try:
        peer.sock.sendall(raw)
        return (*peer.reply(), peer.still_open())
    finally:
        peer.close()


# -- the shared head reader --------------------------------------------------

def test_headers_are_keyed_by_lower_case_name_and_got_in_any_case():
    headers = read_headers(io.BytesIO(
        b"Content-Type: application/toml\r\nX-Twice: a\r\nx-twice: b\r\n\r\nrest"
    ))
    assert headers == {"content-type": "application/toml", "x-twice": "a"}
    assert headers.get("CONTENT-type") == "application/toml"
    assert headers.get("Missing", "none") == "none"


def test_content_length_framing_only():
    assert content_length(read_headers(io.BytesIO(b"\r\n"))) is None
    assert content_length(
        read_headers(io.BytesIO(b"Content-Length: 12\r\n\r\n"))) == 12
    for bad in (b"Content-Length: -1\r\n\r\n", b"Content-Length: 1e3\r\n\r\n"):
        with pytest.raises(FramingError) as ei:
            content_length(read_headers(io.BytesIO(bad)))
        assert ei.value.status == 400
    with pytest.raises(FramingError) as ei:
        content_length(read_headers(io.BytesIO(
            b"Transfer-Encoding: chunked\r\n\r\n")))
    assert ei.value.status == 501


# -- the server --------------------------------------------------------------

def test_a_request_is_answered_with_a_current_date(service):
    status, _, headers, body, open_after = ask(service, HEALTH + b"\r\n")
    assert status == 200 and json.loads(body)["ok"] is True
    assert headers["server"].startswith("repro-matchd/1 ")
    assert abs(parsedate_to_datetime(headers["date"]).timestamp()
               - time.time()) < 5
    assert open_after


@pytest.mark.parametrize("line", [
    b"GARBAGE\r\n",
    b"GET /v1/healthz HTTP/1.1 extra\r\n",
    b"GET /v1/healthz\r\n",
    b"GET /v1/healthz HTTQ/1.1\r\n",
    b"GET /v1/healthz HTTP/one.1\r\n",
])
def test_a_malformed_request_line_is_400(service, line):
    status, _, headers, _, open_after = ask(service, line + b"\r\n")
    assert status == 400
    assert headers["connection"] == "close" and not open_after


def test_http_2_is_505(service):
    status, reason, _, _, open_after = ask(
        service, b"GET /v1/healthz HTTP/2.0\r\n\r\n")
    assert (status, reason) == (505, "Invalid HTTP version (2.0)")
    assert not open_after


def test_header_count_and_line_length_limits_are_431(service):
    def fields(n: int) -> bytes:
        return b"".join(b"X-F%d: v\r\n" % i for i in range(n))

    status, *_ = ask(service, HEALTH + fields(MAX_HEADERS - 1) + b"\r\n")
    assert status == 200  # Host plus 99: exactly the limit
    status, reason, *_ = ask(service, HEALTH + fields(MAX_HEADERS) + b"\r\n")
    assert (status, reason) == (431, "Too many headers")
    long_line = b"X-Long: " + b"v" * MAX_LINE + b"\r\n"
    status, reason, *_ = ask(service, HEALTH + long_line + b"\r\n")
    assert (status, reason) == (431, "Line too long")


def test_a_chunked_body_is_refused_not_read_as_empty(service):
    body = make_request().to_json().encode()
    raw = (
        b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
        b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    )
    status, reason, _, _, open_after = ask(service, raw)
    assert status == 501 and "send Content-Length" in reason
    assert not open_after  # the unread chunks are never taken for a request


def test_conflicting_content_lengths_are_400_equal_ones_are_not(service):
    status, reason, _, _, open_after = ask(
        service,
        b"POST /v1/nope HTTP/1.1\r\nContent-Length: 2\r\n"
        b"Content-Length: 3\r\n\r\nabc",
    )
    assert (status, reason) == (400, "Conflicting Content-Length")
    assert not open_after
    status, *_ = ask(
        service,
        b"POST /v1/nope HTTP/1.1\r\nContent-Length: 3\r\n"
        b"Content-Length: 3\r\n\r\nabc",
    )
    assert status == 404  # framed, read, and routed


def test_an_obsolete_folded_header_line_is_400(service):
    status, reason, *_ = ask(
        service, HEALTH + b"X-Folded: one\r\n  two\r\n\r\n")
    assert (status, reason) == (400, "Obsolete line folding")


@pytest.mark.parametrize("version, connection, kept", [
    (b"HTTP/1.0", b"", False),
    (b"HTTP/1.0", b"Connection: keep-alive\r\n", True),
    (b"HTTP/1.1", b"", True),
    (b"HTTP/1.1", b"Connection: close\r\n", False),
    (b"HTTP/1.1", b"connection: CLOSE\r\n", False),
])
def test_connection_persistence_follows_version_and_header(
        service, version, connection, kept):
    status, _, _, _, open_after = ask(
        service, b"GET /v1/healthz " + version + b"\r\n" + connection + b"\r\n")
    assert status == 200
    assert open_after is kept


def test_expect_100_continue_is_answered_before_the_body_is_sent(service):
    body = make_request().to_json().encode()
    peer = Peer(service)
    try:
        peer.sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        assert peer.rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert peer.rfile.readline() == b"\r\n"
        peer.sock.sendall(body)
        status, _, _, reply = peer.reply()
        assert status == 200 and json.loads(reply)["state"] == "done"
        assert peer.still_open()
    finally:
        peer.close()


def test_lower_case_header_names_frame_and_type_the_body(service):
    body = b'nprocs = 2\nmodel = "nsr"\n[graph]\nname = "rmat-s10"\n'
    status, _, _, reply, _ = ask(
        service,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-type: application/toml\r\n"
        b"content-length: %d\r\n\r\n%s" % (len(body), body),
    )
    assert status == 200 and json.loads(reply)["result"]["status"] == "ok"


# -- the client --------------------------------------------------------------

@pytest.mark.parametrize("raw, hang_up, why", [
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}", False,
     "without Content-Length"),
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
     False, "Transfer-Encoding"),
    (b"HTTP/1.1 200 OK\r\nContent-Type: appl", True, "head cut off"),
    (b"HTTP/1.1 2", True, "status line"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"ok\": ", True,
     "cut off after 7 of 40"),
])
def test_a_reply_that_cannot_be_framed_is_a_connection_error(raw, hang_up, why):
    """Where the peer holds the connection open after its bytes, a client
    that read to the end of the stream would hang until its timeout."""
    with ScriptedPeer(ScriptedPeer.replying(raw, hang_up=hang_up)) as peer, \
            ServiceClient(peer.url, timeout=WAIT) as c:
        t = time.monotonic()
        with pytest.raises(ConnectionError, match=why):
            c.health()
        assert time.monotonic() - t < WAIT / 2
        assert peer.accepted == 1 and not c._idle


@pytest.mark.parametrize("raw", [
    b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
])
def test_a_reply_that_closes_does_not_leave_its_connection_idle(raw):
    with ScriptedPeer(ScriptedPeer.replying(raw)) as peer, \
            ServiceClient(peer.url, timeout=5) as c:
        assert c.health() == {}
        assert not c._idle
        assert c.health() == {}
        assert peer.accepted == 2


def test_an_http_1_0_keep_alive_reply_keeps_its_connection():
    raw = (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n"
           b"Content-Length: 2\r\n\r\n{}")
    with ScriptedPeer(ScriptedPeer.replying(raw, hang_up=False)) as peer, \
            ServiceClient(peer.url, timeout=5) as c:
        assert c.health() == {}
        assert len(c._idle) == 1


@pytest.mark.parametrize("url", [
    "https://127.0.0.1:8123", "ftp://127.0.0.1:8123", "127.0.0.1:8123",
])
def test_only_plain_http_urls_are_accepted(url):
    with pytest.raises(ValueError, match="plain HTTP"):
        ServiceClient(url)


def test_a_path_that_would_break_the_request_line_is_refused():
    with ServiceClient("http://127.0.0.1:9") as c:  # nothing is sent
        with pytest.raises(ValueError, match="request target"):
            c.job("a b\r\nX-Injected: 1")
