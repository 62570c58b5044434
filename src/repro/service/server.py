"""Matching-as-a-service HTTP front end (stdlib ``http.server``).

Endpoints (all under ``/v1``, JSON unless noted — see docs/service.md):

=======  ==============================  =====================================
method   path                            meaning
=======  ==============================  =====================================
POST     /v1/jobs[?wait=0]               submit a JobRequest (JSON or TOML
                                         body); waits for the result by
                                         default, ``wait=0`` returns the job
                                         id immediately
GET      /v1/jobs/<id>                   job status (+ result when done)
GET      /v1/results/<key>               cached JobResult by content key
GET      /v1/artifacts/<key>/<name>      one artifact file (trace JSON, CSV…)
GET      /v1/stats                       cache/batch/worker counters
GET      /v1/healthz                     liveness + code_version
POST     /v1/shutdown                    clean shutdown
=======  ==============================  =====================================

The response envelope for job submission separates what is per-request
(``job_id``, ``cache``, ``state``) from the cache-stable ``result``
payload, which is **bit-identical** between the run that computed it and
every later cache hit: a hit's reply carries the store object's bytes as
they are.

Connections are kept alive (HTTP/1.1) and served by one thread each, so
a client pays the TCP set-up and the thread start once, not per request.
A request head is read by :mod:`repro.service.http11`, not by the
``email`` parser ``http.server`` uses, and a body is framed by
``Content-Length`` only (docs/service.md, "Wire framing").

A submit body the server has accepted before is not decoded again: the
request comes from a memo keyed on the exact (Content-Type, body) pair,
and it carries its cache key from the first submit.
"""

from __future__ import annotations

import functools
import json
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.codever import cached_code_version
from repro.service.http11 import FramingError, content_length, read_headers
from repro.service.orchestrator import FINISHED_JOBS_KEPT, Orchestrator
from repro.service.pool import make_executor, warm_executor
from repro.service.schema import (
    SCHEMA_VERSION,
    JobRequest,
    JobResult,
    SchemaError,
    parse_request,
)
from repro.service.store import ResultStore, write_store_meta

#: default cap on how long one synchronous submit may hold a connection
WAIT_TIMEOUT = 600.0
#: seconds a kept-alive connection may sit between requests before the
#: server closes it and releases its thread (a client that comes back
#: later reconnects; `repro.client` does so transparently)
IDLE_TIMEOUT = 60.0
#: accepted submit bodies whose decoded request is kept, most recently
#: used; a body the schema or the registry refused is not
DECODED_REQUESTS_KEPT = 1024
#: bodies longer than this are decoded on every submit, never kept, so
#: the memo holds at most DECODED_REQUESTS_KEPT × this many body bytes
#: (a real request is a few hundred bytes)
DECODED_BODY_MAX = 4096
#: seconds the accept loop waits before it looks for a shutdown request,
#: so the longest a clean shutdown waits on it (requests on kept-alive
#: connections are served by their own threads, not by this loop)
POLL_INTERVAL = 0.05


#: the versions a request line may name, ``HTTP/<major>.<minor>``
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})")
#: ``(second, Date header value)``, formatted again once a second
_date = (0, "")


def _http_date() -> str:
    global _date
    now = int(time.time())
    if _date[0] != now:
        _date = (now, formatdate(now, usegmt=True))
    return _date[1]


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _encode_with_result(payload: dict, result: JobResult) -> bytes:
    """``_encode({**payload, "result": result.to_dict()})`` without
    encoding the result again: its own bytes are spliced in."""
    head, _, tail = json.dumps(
        {**payload, "result": None}, sort_keys=True
    ).partition('"result": null')
    return b"".join(
        (head.encode(), b'"result": ', result.to_bytes(), tail.encode(), b"\n")
    )


class _HTTPServer(ThreadingHTTPServer):
    """Counts accepted connections and tracks the open ones, so that a
    shutdown can close them under their (otherwise immortal) threads."""

    daemon_threads = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._conn_lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self.connections_accepted = 0

    def process_request(self, request, client_address):
        with self._conn_lock:
            self.connections_accepted += 1
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._conn_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._conn_lock:
            still_open = list(self._open)
        for sock in still_open:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes the thread reading it
            except OSError:
                pass  # the peer or the handler closed it first

    def handle_error(self, request, client_address):
        # a peer that went away mid-reply is not a server fault
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@dataclass
class ServiceConfig:
    """Everything `repro serve` can tune."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 → ephemeral (the bound port is reported back)
    store_dir: str = "service-store"
    workers: int = 2  #: worker processes; 0 = inline (tests/sandboxes)
    mp_context: str = "spawn"  #: "spawn" | "fork" (see pool.py)
    linger: float = 0.0  #: extra batch-coalescing window (seconds)
    wait_timeout: float = WAIT_TIMEOUT


class MatchingService:
    """The assembled service: store + pool + orchestrator + HTTP server."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.code_version = cached_code_version()
        self.store = ResultStore(self.config.store_dir)
        #: ``(content_type, body) -> request``, raising for a body it
        #: refuses; only accepted bodies are memoised
        self.decode_memo = functools.lru_cache(DECODED_REQUESTS_KEPT)(
            self._decode_request
        )
        write_store_meta(self.config.store_dir, self.code_version)
        executor = make_executor(self.config.workers, self.config.mp_context)
        warm_executor(executor, self.config.workers)
        self.orchestrator = Orchestrator(
            self.store,
            executor,
            self.code_version,
            linger=self.config.linger,
        ).start()
        handler = _make_handler(self)
        self.httpd = _HTTPServer((self.config.host, self.config.port), handler)

    def decode_request(self, content_type: str, body: bytes) -> JobRequest:
        """Decode and validate one submit body (SchemaError, or KeyError
        naming the known graphs), from the memo if it is short enough."""
        if len(body) > DECODED_BODY_MAX:
            return self._decode_request(content_type, body)
        return self.decode_memo(content_type, body)

    @staticmethod
    def _decode_request(content_type: str, body: bytes) -> JobRequest:
        from repro.harness.spec import get_spec

        request = parse_request(body, content_type)
        get_spec(request.graph.name)  # reject before queueing
        return request

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        try:
            self.httpd.serve_forever(POLL_INTERVAL)
        finally:
            self.orchestrator.shutdown()

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        t = threading.Thread(
            target=self.httpd.serve_forever, args=(POLL_INTERVAL,),
            name="repro-httpd", daemon=True,
        )
        t.start()
        return t

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections()
        self.orchestrator.shutdown()


def _make_handler(service: MatchingService):
    orch = service.orchestrator
    store = service.store

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-matchd/1"
        timeout = IDLE_TIMEOUT
        disable_nagle_algorithm = True
        server_header = (
            f"Server: {server_version} {BaseHTTPRequestHandler.sys_version}\r\n"
        )

        # -- plumbing -------------------------------------------------
        def log_message(self, format, *args):  # quiet by default
            pass

        def parse_request(self) -> bool:
            """``BaseHTTPRequestHandler.parse_request`` over
            :mod:`repro.service.http11`: HTTP/1.0 and 1.1 only, and
            ``self.body_length`` from ``Content-Length``."""
            self.command = None
            self.close_connection = True
            # so that a refusal below is sent with a status line
            self.request_version = "HTTP/1.0"
            self.requestline = str(
                self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            words = self.requestline.split()
            if not words:
                return False
            if len(words) != 3:
                self.send_error(
                    400, f"Bad request syntax ({self.requestline!r})")
                return False
            self.command, path, version = words
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
            # '//x' would read as a host to a client; see gh-87389
            self.path = "/" + path.lstrip("/") if path[:2] == "//" else path
            try:
                self.headers = read_headers(self.rfile)
                self.body_length = content_length(self.headers) or 0
            except FramingError as e:
                self.send_error(e.status, e.reason)
                return False
            conntype = self.headers.get("connection", "").lower()
            self.close_connection = (
                conntype == "close" if number >= (1, 1)
                else conntype != "keep-alive"
            )
            if (self.headers.get("expect", "").lower() == "100-continue"
                    and number >= (1, 1)):
                return self.handle_expect_100()
            return True

        def _send(self, code: int, payload: dict | bytes,
                  content_type: str = "application/json",
                  close: bool = False) -> None:
            body = payload if isinstance(payload, bytes) else _encode(payload)
            head = (
                f"HTTP/1.1 {code} {self.responses[code][0]}\r\n"
                f"{self.server_header}Date: {_http_date()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if close:
                head += "Connection: close\r\n"
                self.close_connection = True
            # One write, so one segment: on a kept-alive connection a body
            # written after its headers waits out the peer's delayed ACK
            # (Nagle), ~40 ms a reply.
            self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

        def _error(self, code: int, message: str) -> None:
            self._send(code, {"error": message})

        def _body(self) -> bytes:
            length = self.body_length
            return self.rfile.read(length) if length else b""

        def _envelope(self, job) -> bytes:
            if job.result is None:
                return _encode(job.describe())
            return _encode_with_result(job.describe(), job.result)

        # -- routes ---------------------------------------------------
        def do_POST(self):
            # read before any reply: bytes left unread on a kept-alive
            # connection would be parsed as the next request line
            body = self._body()
            url = urlparse(self.path)
            if url.path == "/v1/jobs":
                return self._post_job(url, body)
            if url.path == "/v1/shutdown":
                self._send(200, {"ok": True, "message": "shutting down"},
                           close=True)
                threading.Thread(target=service.shutdown, daemon=True).start()
                return
            self._error(404, f"no such endpoint: POST {url.path}")

        def _post_job(self, url, body: bytes) -> None:
            try:
                request = service.decode_request(
                    self.headers.get("Content-Type", ""), body
                )
                job = orch.submit(request)
            except (KeyError, SchemaError) as e:
                return self._error(400, str(e))
            params = parse_qs(url.query)
            wait = params.get("wait", ["1"])[0] not in ("0", "false", "no")
            if wait:
                if not job.wait(timeout=service.config.wait_timeout):
                    return self._send(202, self._envelope(job))
            self._send(200, self._envelope(job))

        def do_GET(self):
            self._body()  # nothing unread, as in do_POST
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            if url.path == "/v1/healthz":
                return self._send(200, {
                    "ok": True,
                    "schema_version": SCHEMA_VERSION,
                    "code_version": service.code_version,
                })
            if url.path == "/v1/stats":
                return self._send(200, {
                    **orch.stats(),
                    "connections_accepted": self.server.connections_accepted,
                })
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                job = orch.job(parts[2])
                if job is None:
                    return self._error(
                        404,
                        f"no such job {parts[2]!r}: never issued, or finished "
                        f"and dropped (the {FINISHED_JOBS_KEPT} most recently "
                        "finished jobs are kept; results stay under "
                        "/v1/results/<key>)",
                    )
                return self._send(200, self._envelope(job))
            if len(parts) == 3 and parts[:2] == ["v1", "results"]:
                result = store.peek(parts[2])
                if result is None:
                    return self._error(404, f"no cached result for {parts[2]!r}")
                return self._send(200, _encode_with_result({}, result))
            if len(parts) == 4 and parts[:2] == ["v1", "artifacts"]:
                path = store.artifact_path(parts[2], parts[3])
                if path is None:
                    return self._error(
                        404, f"no artifact {parts[3]!r} under {parts[2]!r}"
                    )
                blob = path.read_bytes()
                ctype = (
                    "application/json" if path.suffix == ".json"
                    else "text/csv" if path.suffix == ".csv"
                    else "text/plain"
                )
                return self._send(200, blob, content_type=ctype)
            self._error(404, f"no such endpoint: GET {url.path}")

    return Handler


def serve(config: ServiceConfig | None = None) -> MatchingService:
    """Build a service; callers pick ``serve_forever`` or background mode."""
    return MatchingService(config)
