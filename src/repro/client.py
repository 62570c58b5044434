"""`repro.client` — thin stdlib HTTP client for the matching service.

>>> from repro.client import ServiceClient
>>> from repro.service import GraphRef, JobRequest
>>> with ServiceClient("http://127.0.0.1:8123") as c:     # doctest: +SKIP
...     env = c.submit(JobRequest(GraphRef("rmat-s10"), 8))
...     env["cache"], env["result"]["record"]["makespan"]

Everything speaks the versioned wire schema in
:mod:`repro.service.schema`, over plain HTTP/1.1 read and written here
on a socket: a request goes out in one ``sendall``, and a reply head is
read by :mod:`repro.service.http11`, the same reader the server uses.
No third-party or ``http.client`` stack is involved, so any environment
that can import ``repro`` can be a client. The server speaks ``http://``
only, so an ``https://`` URL is refused.

A client keeps its connections open between calls: the TCP set-up (and
the server's thread start) is paid once, not per request, which is most
of what a small exchange costs. Threads may share one client; each
request takes an idle connection or opens another, so concurrent
requests are in flight together, never queued on one socket.
"""

from __future__ import annotations

import json
import re
import socket
from collections import deque
from urllib.parse import urlsplit

from repro.service.http11 import (
    MAX_LINE,
    FramingError,
    content_length,
    read_headers,
)
from repro.service.schema import JobRequest, JobResult, SchemaError

#: a reply's status line: ``HTTP/1.<minor> <status> <reason>``
_STATUS = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: [^\r\n]*)?\r?\n")
#: a request target that would break the request line
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")


class ServiceError(RuntimeError):
    """The service answered with an error (HTTP status + body message)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Connection:
    """One kept-alive socket and the buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, address: tuple[str, int], timeout: float):
        self.sock = socket.create_connection(address, timeout)
        # a request is one write anyway; never hold the next one back
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()  # first: the socket stays open while it is not
        self.sock.close()

    def exchange(self, request: bytes) -> tuple[int, bytes, str, bool]:
        """Send one request; (status, body, Content-Type, keep open)."""
        self.sock.sendall(request)
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionError("the server closed the connection")
        status = _STATUS.fullmatch(line)
        if status is None:
            raise ConnectionError(f"malformed reply: status line {line[:80]!r}")
        try:
            headers = read_headers(self.rfile)
            length = content_length(headers)
        except FramingError as e:
            raise ConnectionError(f"malformed reply: {e.reason}") from None
        if length is None:
            raise ConnectionError("malformed reply: without Content-Length")
        blob = self.rfile.read(length)
        if len(blob) < length:
            raise ConnectionError(
                f"reply cut off after {len(blob)} of {length} body bytes")
        conntype = headers.get("connection", "").lower()
        keep = (conntype == "keep-alive" if status[1] == b"0"  # HTTP/1.0
                else conntype != "close")
        return int(status[2]), blob, headers.get("content-type", ""), keep


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://host:8123")``.

    Close it (or use it in a ``with`` block) to release its sockets;
    a closed client reconnects if it is used again.
    """

    def __init__(self, url: str, *, timeout: float = 630.0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"{url!r}: the service speaks plain HTTP, give http://HOST:PORT"
            )
        self._address = (parts.hostname, parts.port or 80)
        self._host = parts.netloc
        self._prefix = parts.path
        #: connections no request is using; deque push/pop are atomic
        self._idle: deque[_Connection] = deque()

    # -- lifecycle ----------------------------------------------------
    def close(self) -> None:
        """Close the idle connections; call once the last request is back."""
        while self._idle:
            self._idle.pop().close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, bytes, str]:
        target = self._prefix + path
        if _BAD_TARGET.search(target):
            raise ValueError(f"not a request target: {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        if body is not None:
            head += (f"Content-Type: {content_type}\r\n"
                     f"Content-Length: {len(body)}\r\n")
        request = head.encode("latin-1") + b"\r\n" + (body or b"")

        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = _Connection(self._address, self.timeout), False
        try:
            try:
                status, blob, ctype, keep = conn.exchange(request)
            except ConnectionError:
                # The server closes connections that sit idle, and only a
                # reused one can have gone stale: send again, once, on a
                # fresh one. Safe to repeat — a submission is idempotent
                # by content key. A timeout is not a ConnectionError.
                if not reused:
                    raise
                conn.close()
                conn = _Connection(self._address, self.timeout)
                status, blob, ctype, keep = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        if keep:
            self._idle.append(conn)
        else:
            conn.close()
        if status >= 400:
            detail = blob.decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServiceError(status, detail)
        return status, blob, ctype

    def _reply(self, method: str, path: str, body: bytes | None = None,
               content_type: str = "application/json",
               ) -> tuple[dict, JobResult | None]:
        """The reply envelope, and its ``result`` parsed through the schema
        (version and unknown-field checks); the envelope keeps the dict
        as the server sent it."""
        _, blob, _ = self._request(method, path, body, content_type)
        payload = json.loads(blob)
        result = None
        if isinstance(payload, dict) and payload.get("result"):
            result = JobResult.from_dict(payload["result"])
        return payload, result

    def _json(self, method: str, path: str, body: bytes | None = None,
              content_type: str = "application/json") -> dict:
        return self._reply(method, path, body, content_type)[0]

    # -- API ----------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/v1/stats")

    def submit(
        self,
        request: JobRequest,
        *,
        wait: bool = True,
        toml_body: str | None = None,
    ) -> dict:
        """Submit one job; returns the response envelope.

        Envelope keys: ``job_id``, ``state``, ``cache`` ("hit" / "miss" /
        "coalesced"), and — once done — ``result`` (the cache-stable
        :class:`JobResult` payload, bit-identical across hit and miss).
        ``toml_body`` sends raw TOML instead of the request's JSON (the
        server decodes both through the same schema path).
        """
        path = "/v1/jobs" if wait else "/v1/jobs?wait=0"
        if toml_body is not None:
            return self._json(
                "POST", path, toml_body.encode(), "application/toml"
            )
        return self._json("POST", path, request.to_bytes())

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result(self, key: str) -> JobResult:
        _, result = self._reply("GET", f"/v1/results/{key}")
        if result is None:
            raise SchemaError(f"service returned no result for key {key}")
        return result

    def artifact(self, key: str, name: str) -> bytes:
        _, blob, _ = self._request("GET", f"/v1/artifacts/{key}/{name}")
        return blob

    def shutdown(self) -> dict:
        return self._json("POST", "/v1/shutdown", b"")
