"""Stdlib-only HTTP/JSON binding for :class:`~repro.serve.server.MISService`.

A deliberately small HTTP/1.1 front end on ``asyncio.start_server`` — no
third-party web framework, matching the repository's no-new-dependencies
rule.  The binding is a thin translator: it parses a request, builds the
protocol-agnostic :class:`~repro.serve.server.Request`, and renders the
:class:`~repro.serve.server.Response` as JSON with the status code the
typed error carries (``http_status`` on every
:class:`~repro.serve.errors.ServiceError`).

Routes::

    GET    /healthz                      liveness probe (always 200)
    GET    /readyz                       readiness probe (200 or 503)
    GET    /metrics                      Prometheus text exposition
    GET    /v1/sessions                  list session names
    POST   /v1/sessions                  create {name, edges, seed, deadline_s}
    DELETE /v1/sessions/<name>           drop
    GET    /v1/sessions/<name>/mis       query the maintained MIS
    POST   /v1/sessions/<name>/mutations mutate {mutations: [...], deadline_s}

Backpressure surfaces as HTTP semantics: ``429`` with a ``Retry-After``
header at the admission watermark, ``504`` on deadline, ``503`` for
circuit-open.  Framing errors are answered and the connection
closed (never silently truncated, which would desync keep-alive):
``400`` for a malformed ``Content-Length`` or a body that is not a JSON
object, ``413`` for a body over the 8 MiB cap.  A request that sends
``Connection: close`` is answered with ``Connection: close`` and the
connection is closed after it (RFC 9112 §9.6).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import unquote

from repro.serve.errors import BadRequestError
from repro.serve.incremental import mutations_from_records, wire_int
from repro.serve.server import MISService, Request, Response

__all__ = ["HttpFrontend", "serve_http"]

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100


class _ProtocolError(Exception):
    """HTTP framing error: answer with ``status`` and close the
    connection — the stream may hold an unread body, so continuing the
    keep-alive loop would desync pipelined requests."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        super().__init__(payload.get("error", {}).get("message", ""))
        self.status = status
        self.payload = payload


def _bad_request(message: str) -> _ProtocolError:
    return _ProtocolError(
        400, {"error": {"code": "bad-request", "message": message}}
    )


class HttpFrontend:
    """Binds one :class:`MISService` to a TCP listener."""

    def __init__(self, service: MISService):
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, host: str = "127.0.0.1", port: int = 8321) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        async with self._server:
            await self._server.serve_forever()

    # -- one connection -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _ProtocolError as exc:
                    await self._write_response(
                        writer, exc.status, exc.payload, {"Connection": "close"}
                    )
                    break
                if parsed is None:
                    break
                method, path, body, close = parsed
                status, payload, headers = await self._dispatch(
                    method, path, body
                )
                if close:
                    headers["Connection"] = "close"
                await self._write_response(writer, status, payload, headers)
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: Dict[str, str],
    ) -> None:
        raw = (
            payload.encode()
            if isinstance(payload, str)
            else json.dumps(payload).encode()
        )
        content_type = (
            "text/plain; version=0.0.4"
            if isinstance(payload, str)
            else "application/json"
        )
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(raw)}",
        ]
        head.extend(f"{k}: {v}" for k, v in headers.items())
        head.append("\r\n")
        writer.write("\r\n".join(head).encode() + raw)
        await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, Any], bool]]:
        """``(method, path, body, close)``, or None at end of stream.

        ``close`` is True when the client sent ``Connection: close``.
        """
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode().split(None, 2)
        except ValueError:
            return None
        content_length = 0
        close = False
        for _ in range(_MAX_HEADER_LINES):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode().partition(":")
            name = name.strip().lower()
            if name == "connection":
                close = "close" in {o.strip().lower() for o in value.split(",")}
            elif name == "content-length":
                try:
                    content_length = int(value.strip() or 0)
                except ValueError:
                    raise _bad_request("invalid Content-Length header") from None
                if content_length < 0:
                    raise _bad_request("negative Content-Length header")
        if content_length > _MAX_BODY:
            # Refuse rather than truncate: reading only a prefix would
            # leave the remainder in the stream to be misparsed as the
            # next pipelined request.
            raise _ProtocolError(
                413,
                {
                    "error": {
                        "code": "payload-too-large",
                        "message": f"body exceeds {_MAX_BODY} bytes",
                    }
                },
            )
        body: Dict[str, Any] = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
                raise _bad_request("body is not valid JSON") from None
            if not isinstance(body, dict):
                raise _bad_request("body must be a JSON object")
        return method.upper(), path, body, close

    # -- routing --------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: Dict[str, Any]
    ) -> Tuple[int, Any, Dict[str, str]]:
        service = self.service
        if method == "GET" and path == "/healthz":
            return 200, service.health(), {}
        if method == "GET" and path == "/readyz":
            ready = service.ready()
            return (200 if ready else 503), {"ready": ready}, {}
        if method == "GET" and path == "/metrics":
            return 200, service.prometheus(), {}

        request: Optional[Request] = None
        if path == "/v1/sessions" and method == "GET":
            request = Request(op="list")
        elif path == "/v1/sessions" and method == "POST":
            try:
                request = Request(
                    op="create",
                    session=body.get("name"),
                    edges=tuple(
                        (wire_int(u, "edge endpoint"), wire_int(v, "edge endpoint"))
                        for u, v in body.get("edges", [])
                    ),
                    seed=wire_int(body.get("seed", 0), "seed"),
                    deadline_s=body.get("deadline_s"),
                )
            except (TypeError, ValueError, BadRequestError):
                return 400, {"error": {"code": "bad-request"}}, {}
        elif path.startswith("/v1/sessions/"):
            # Split before decoding, so an encoded "/" (%2F) stays inside
            # its segment instead of starting a new one.
            name, *action = [
                unquote(s) for s in path[len("/v1/sessions/"):].split("/")
            ]
            if method == "DELETE" and not action:
                request = Request(op="drop", session=name)
            elif method == "GET" and action == ["mis"]:
                request = Request(op="query", session=name)
            elif method == "POST" and action == ["mutations"]:
                try:
                    mutations = mutations_from_records(
                        body.get("mutations", [])
                    )
                except Exception:
                    return 400, {"error": {"code": "bad-request"}}, {}
                request = Request(
                    op="mutate",
                    session=name,
                    mutations=tuple(mutations),
                    deadline_s=body.get("deadline_s"),
                )
        if request is None:
            return 404, {"error": {"code": "no-route", "path": path}}, {}

        response = await service.submit(request)
        return self._render(response)

    @staticmethod
    def _render(response: Response) -> Tuple[int, Any, Dict[str, str]]:
        headers: Dict[str, str] = {}
        status = 200
        if not response.ok and response.error is not None:
            status = _STATUS_BY_CODE.get(response.error.get("code"), 500)
            retry_after = response.error.get("retry_after_s")
            if retry_after is not None:
                headers["Retry-After"] = str(retry_after)
        return status, response.to_dict(), headers


#: ServiceError.code → HTTP status (kept in sync with the error classes;
#: a test asserts the mapping matches each class's ``http_status``).
_STATUS_BY_CODE = {
    "queue-full": 429,
    "deadline-exceeded": 504,
    "circuit-open": 503,
    "session-not-found": 404,
    "session-exists": 409,
    "bad-request": 400,
    "engine-failed": 502,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def serve_http(
    service: MISService, host: str = "127.0.0.1", port: int = 8321
) -> HttpFrontend:
    """Start a frontend; returns it once the listener is bound."""
    frontend = HttpFrontend(service)
    await frontend.start(host, port)
    return frontend
