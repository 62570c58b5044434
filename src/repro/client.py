"""`repro.client` — thin stdlib HTTP client for the matching service.

>>> from repro.client import ServiceClient
>>> from repro.service import GraphRef, JobRequest
>>> with ServiceClient("http://127.0.0.1:8123") as c:     # doctest: +SKIP
...     env = c.submit(JobRequest(GraphRef("rmat-s10"), 8))
...     env["cache"], env["result"]["record"]["makespan"]

Everything speaks the versioned wire schema in
:mod:`repro.service.schema`; no third-party HTTP stack is involved
(``http.client`` only), so any environment that can import ``repro``
can be a client.

A client keeps its connections open between calls: the TCP set-up (and
the server's thread start) is paid once, not per request, which is most
of what a small exchange costs. Threads may share one client; each
request takes an idle connection or opens another, so concurrent
requests are in flight together, never queued on one socket.
"""

from __future__ import annotations

import http.client
import json
from collections import deque
from urllib.parse import urlsplit

from repro.service.schema import JobRequest, JobResult, SchemaError


class ServiceError(RuntimeError):
    """The service answered with an error (HTTP status + body message)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://host:8123")``.

    Close it (or use it in a ``with`` block) to release its sockets;
    a closed client reconnects if it is used again.
    """

    def __init__(self, url: str, *, timeout: float = 630.0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        self._connection = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        #: connections no request is using; deque push/pop are atomic
        self._idle: deque[http.client.HTTPConnection] = deque()

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
    def _connect(self) -> http.client.HTTPConnection:
        conn = self._connection(self._netloc, timeout=self.timeout)
        conn.connect()  # sets TCP_NODELAY: headers and body go out at once
        return conn

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, bytes, str]:
        headers = {} if body is None else {"Content-Type": content_type}

        def exchange(conn) -> http.client.HTTPResponse:
            conn.request(method, self._prefix + path, body, headers)
            return conn.getresponse()

        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
        try:
            try:
                resp = exchange(conn)
            except ConnectionError:
                # The server closes connections that sit idle, and only a
                # reused one can have gone stale: send again, once, on a
                # fresh one. Safe to repeat — a submission is idempotent
                # by content key. A timeout is not a ConnectionError.
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                resp = exchange(conn)
            blob = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        if resp.status >= 400:
            detail = blob.decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ServiceError(resp.status, detail)
        return resp.status, blob, resp.headers.get("Content-Type", "")

    def _json(self, method: str, path: str, body: bytes | None = None,
              content_type: str = "application/json") -> dict:
        status, blob, _ = self._request(method, path, body, content_type)
        payload = json.loads(blob)
        if isinstance(payload, dict) and "result" in payload and payload["result"]:
            # parse through the schema so version/unknown-field checks run
            payload["result"] = JobResult.from_dict(payload["result"]).to_dict()
        return payload

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
        return self._json("POST", path, request.to_json().encode())

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def result(self, key: str) -> JobResult:
        env = self._json("GET", f"/v1/results/{key}")
        if not env.get("result"):
            raise SchemaError(f"service returned no result for key {key}")
        return JobResult.from_dict(env["result"])

    def artifact(self, key: str, name: str) -> bytes:
        _, blob, _ = self._request("GET", f"/v1/artifacts/{key}/{name}")
        return blob

    def shutdown(self) -> dict:
        return self._json("POST", "/v1/shutdown", b"")
