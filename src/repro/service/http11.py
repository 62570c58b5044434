"""The HTTP/1.1 message head, read the same way by the server and the client.

A head is a start line (the request line or the status line, which each
end reads itself), then header lines up to a blank line. The limits are
the ones ``http.client`` enforces: at most ``MAX_HEADERS`` header lines,
each at most ``MAX_LINE`` bytes. A body is framed by ``Content-Length``
only; anything else is a :class:`FramingError` carrying the status a
server answers it with.
"""

from __future__ import annotations

#: longest header line accepted, in bytes (its CRLF included)
MAX_LINE = 65536
#: most header lines accepted in one head
MAX_HEADERS = 100


class FramingError(ValueError):
    """A message this module cannot frame: ``status`` is the HTTP reply a
    server owes it, ``reason`` one line saying why."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason


class Headers(dict):
    """Header fields keyed by lower-cased name; ``get`` takes any case.

    A repeated field keeps its first value, as ``email.message.Message.get``
    returns it.
    """

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def read_headers(rfile) -> Headers:
    """Read header lines from a binary reader up to the blank line."""
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise FramingError(400, "Message head cut off")
        if line[0] in b" \t":
            raise FramingError(400, "Obsolete line folding")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name or name != name.strip():
            raise FramingError(400, "Malformed header line")
        name, value = name.lower(), value.strip()
        first = headers.setdefault(name, value)
        if name == "content-length" and first != value:
            raise FramingError(400, "Conflicting Content-Length")
    raise FramingError(431, "Too many headers")


def content_length(headers: Headers) -> int | None:
    """The body's length in bytes, or None when the head names none."""
    if "transfer-encoding" in headers:
        raise FramingError(501, "Transfer-Encoding refused: send Content-Length")
    value = headers.get("content-length")
    if value is None:
        return None
    if not (value.isascii() and value.isdigit()):
        raise FramingError(400, "Bad Content-Length")
    return int(value)
