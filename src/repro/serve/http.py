"""Minimal HTTP/1.1 layer for the telemetry service.

The service speaks plain HTTP/JSON with zero dependencies beyond the
stdlib: a hand-rolled request reader over :mod:`asyncio` streams and a
response serialiser.  Only the subset the API needs is implemented —
``GET``/``POST``/``DELETE``, ``Content-Length`` bodies, keep-alive —
and everything outside that subset is rejected with a *structured*
JSON error, never an exception escaping to the transport.

The reader is a trust boundary in the same sense as
:class:`~repro.wire.framing.FrameParser`: arbitrary bytes in, either a
well-formed :class:`Request` or a :class:`ProtocolError` naming what
was wrong out.  Size limits (request line, header block, body) are
enforced *while reading*, so a hostile client cannot make the server
buffer unbounded garbage.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "MAX_REQUEST_LINE_BYTES",
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "make_request",
    "Response",
    "json_response",
    "error_response",
    "read_request",
    "render_response",
]

#: Longest accepted request line (method + target + version).
MAX_REQUEST_LINE_BYTES = 8192

#: Longest accepted header block.
MAX_HEADER_BYTES = 32768

#: Default body cap; the service config can lower or raise it.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_SUPPORTED_METHODS = frozenset({"GET", "POST", "DELETE", "HEAD"})

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class ProtocolError(Exception):
    """A malformed request, carrying the HTTP status to answer with."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    @property
    def tenant(self) -> str:
        """The requesting tenant (``X-Tenant`` header, may be empty)."""
        return self.headers.get("x-tenant", "")

    @property
    def content_type(self) -> str:
        """Media type, lowercased, parameters stripped."""
        raw = self.headers.get("content-type", "")
        return raw.split(";", 1)[0].strip().lower()

    def json(self) -> object:
        """Decode the body as JSON; :class:`ProtocolError` on failure."""
        if not self.body:
            raise ProtocolError(400, "empty-body", "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                400, "bad-json", f"request body is not valid JSON: {exc}"
            ) from exc


def make_request(
    method: str,
    path: str,
    *,
    tenant: str = "",
    query: dict[str, str] | None = None,
    body: bytes = b"",
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
) -> Request:
    """Build an in-process :class:`Request` for
    :meth:`~repro.serve.app.TelemetryApp.dispatch` (no socket)."""
    all_headers = {k.lower(): v for k, v in (headers or {}).items()}
    if tenant:
        all_headers["x-tenant"] = tenant
    if body:
        all_headers.setdefault("content-type", content_type)
    return Request(
        method=method,
        path=path,
        query=dict(query or {}),
        headers=all_headers,
        body=body,
    )


@dataclass(frozen=True)
class Response:
    """One HTTP response, body already serialised."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def json_response(
    payload: object,
    status: int = 200,
    *,
    headers: dict[str, str] | None = None,
) -> Response:
    """Serialise ``payload`` as a JSON response."""
    body = json.dumps(payload, default=float).encode("utf-8")
    return Response(status=status, body=body, headers=headers or {})


def error_response(
    status: int,
    code: str,
    message: str,
    *,
    headers: dict[str, str] | None = None,
    **extra: object,
) -> Response:
    """The service's uniform error shape: ``{"error": {...}}``."""
    payload: dict[str, object] = {
        "error": {"status": status, "code": code, "message": message}
    }
    if extra:
        payload["error"].update(extra)  # type: ignore[union-attr]
    return json_response(payload, status=status, headers=headers)


async def _read_line(
    reader: asyncio.StreamReader, limit: int, what: str
) -> bytes:
    """Read one CRLF-terminated line, enforcing ``limit`` bytes."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(
            431, "line-too-long", f"{what} exceeds {limit} bytes"
        ) from exc
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from exc
        raise ProtocolError(
            400, "truncated", f"connection closed mid-{what}"
        ) from exc
    if len(line) > limit:
        raise ProtocolError(
            431, "line-too-long", f"{what} exceeds {limit} bytes"
        )
    return line[:-2]


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> Request | None:
    """Read one request off the stream.

    Returns ``None`` on a clean EOF before any bytes (keep-alive close);
    raises :class:`ProtocolError` for anything malformed or oversized.
    """
    try:
        raw_line = await _read_line(
            reader, MAX_REQUEST_LINE_BYTES, "request line"
        )
    except EOFError:
        return None
    parts = raw_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ProtocolError(
            400, "bad-request-line", f"malformed request line: {raw_line!r}"
        )
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(
            400, "bad-version", f"unsupported protocol {version}"
        )
    if method not in _SUPPORTED_METHODS:
        raise ProtocolError(
            405, "bad-method", f"method {method} not supported"
        )

    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await _read_line(reader, MAX_HEADER_BYTES, "header")
        except EOFError as exc:
            raise ProtocolError(
                400, "truncated", "connection closed mid-headers"
            ) from exc
        if not line:
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError(
                431, "headers-too-large",
                f"header block exceeds {MAX_HEADER_BYTES} bytes",
            )
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(
                400, "bad-header", f"malformed header line: {line!r}"
            )
        headers[name.strip().lower()] = value.strip()

    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise ProtocolError(
                400, "bad-content-length",
                f"unparseable Content-Length {raw_length!r}",
            ) from exc
        if length < 0:
            raise ProtocolError(
                400, "bad-content-length", "negative Content-Length"
            )
        if length > max_body_bytes:
            raise ProtocolError(
                413, "body-too-large",
                f"body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                400, "truncated", "connection closed mid-body"
            ) from exc
    elif headers.get("transfer-encoding"):
        raise ProtocolError(
            501, "chunked-unsupported",
            "chunked transfer encoding is not supported",
        )

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    response: Response, *, keep_alive: bool = True
) -> bytes:
    """Serialise a :class:`Response` to wire bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body
