"""Tests for the stdlib HTTP/JSON binding.

A real listener is bound on an ephemeral port and driven with
``http.client`` from a worker thread — no third-party HTTP client, per
the no-new-dependencies rule.  The assertions pin the route table, the
typed-error → status-code mapping, and the ``Retry-After`` backpressure
header.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket

from repro.serve.http import HttpFrontend
from repro.serve.server import MISService, ServeConfig


def run_with_frontend(scenario):
    """Boot service + frontend, run ``scenario(port)`` in a thread."""

    async def main():
        service = MISService(ServeConfig(retries=0, backoff_base=0.0))
        frontend = HttpFrontend(service)
        await frontend.start("127.0.0.1", 0)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, scenario, frontend.port, service
            )
        finally:
            await frontend.close()

    return asyncio.run(main())


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        headers_out = dict(response.getheaders())
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError:
            decoded = raw.decode()
        return response.status, decoded, headers_out
    finally:
        conn.close()


class TestRoutes:
    def test_session_lifecycle_over_http(self):
        def scenario(port, service):
            status, body, _ = request(
                port,
                "POST",
                "/v1/sessions",
                {"name": "s", "edges": [[u, u + 1] for u in range(8)], "seed": 1},
            )
            assert status == 200
            assert body["ok"] and body["result"]["mis_size"] > 0

            status, body, _ = request(port, "GET", "/v1/sessions")
            assert status == 200 and body["result"]["sessions"] == ["s"]

            status, body, _ = request(port, "GET", "/v1/sessions/s/mis")
            assert status == 200 and "mis" in body["result"]

            status, body, _ = request(
                port,
                "POST",
                "/v1/sessions/s/mutations",
                {"mutations": [{"op": "add-edge", "u": 0, "v": 5}]},
            )
            assert status == 200
            assert body["result"]["mode"] in ("repair", "recompute")

            status, body, _ = request(port, "DELETE", "/v1/sessions/s")
            assert status == 200 and body["result"]["dropped"] == "s"

            status, body, _ = request(port, "GET", "/v1/sessions/s/mis")
            assert status == 404
            assert body["error"]["code"] == "session-not-found"

        run_with_frontend(scenario)

    def test_percent_encoded_session_name_round_trips(self):
        # The routes used to match the raw path, so GET
        # /v1/sessions/a%20b/mis answered 404 for the session that
        # GET /v1/sessions listed as "a b".
        def scenario(port, service):
            status, body, _ = request(
                port, "POST", "/v1/sessions", {"name": "a b", "edges": [[0, 1], [1, 2]]}
            )
            assert status == 200, body

            status, body, _ = request(port, "GET", "/v1/sessions")
            assert body["result"]["sessions"] == ["a b"]

            status, body, _ = request(port, "GET", "/v1/sessions/a%20b/mis")
            assert status == 200, body
            assert body["result"]["mis"] == [0, 2]

            status, body, _ = request(
                port,
                "POST",
                "/v1/sessions/a%20b/mutations",
                {"mutations": [{"op": "add-edge", "u": 0, "v": 2}]},
            )
            assert status == 200, body
            status, body, _ = request(port, "GET", "/v1/sessions/a%20b/mis")
            assert len(body["result"]["mis"]) == 1  # now a triangle

            # An encoded slash stays inside the name: no such session.
            status, body, _ = request(port, "GET", "/v1/sessions/a%2Fb/mis")
            assert status == 404 and body["error"]["code"] == "session-not-found"

            status, body, _ = request(port, "DELETE", "/v1/sessions/a%20b")
            assert status == 200 and body["result"]["dropped"] == "a b"
            assert service.sessions == {}

        run_with_frontend(scenario)

    def test_probes_and_metrics(self):
        def scenario(port, service):
            status, body, _ = request(port, "GET", "/healthz")
            assert status == 200 and body["status"] == "ok"

            status, body, _ = request(port, "GET", "/readyz")
            assert status == 200 and body["ready"] is True

            status, text, headers = request(port, "GET", "/metrics")
            assert status == 200
            assert isinstance(text, str)
            assert "repro_serve_requests_total" in text
            assert headers["Content-Type"].startswith("text/plain")

        run_with_frontend(scenario)

    def test_unknown_route_is_404(self):
        def scenario(port, service):
            status, body, _ = request(port, "GET", "/nope")
            assert status == 404 and body["error"]["code"] == "no-route"

        run_with_frontend(scenario)


def raw_request(port, data: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


class TestFraming:
    def test_connection_close_is_answered_and_honoured(self):
        # The connection used to stay open after the response, so a
        # client reading to EOF hung (RFC 9112 §9.6).
        def scenario(port, service):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                chunks = []
                while True:
                    try:
                        chunk = sock.recv(65536)
                    except socket.timeout:
                        raise AssertionError("connection left open") from None
                    if not chunk:
                        break
                    chunks.append(chunk)
            raw = b"".join(chunks)
            assert raw.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in raw

        run_with_frontend(scenario)

    def test_malformed_content_length_is_400_and_closes(self):
        def scenario(port, service):
            raw = raw_request(
                port,
                b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" in raw

        run_with_frontend(scenario)

    def test_negative_content_length_is_400(self):
        def scenario(port, service):
            raw = raw_request(
                port,
                b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 400 ")

        run_with_frontend(scenario)

    def test_oversized_body_is_413_and_closes(self):
        def scenario(port, service):
            # The body is never sent: the server must refuse on the
            # declared length (and close) instead of truncating the
            # read and desyncing the keep-alive stream.
            raw = raw_request(
                port,
                b"POST /v1/sessions HTTP/1.1\r\n"
                b"Content-Length: 9000000\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 413 ")
            assert b"payload-too-large" in raw
            assert b"Connection: close" in raw

        run_with_frontend(scenario)


def post_raw_body(port, path, body: bytes) -> bytes:
    return raw_request(
        port,
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body,
    )


class TestBodies:
    def test_json_array_body_is_400(self):
        # Valid JSON that is not an object used to crash the connection
        # handler; the client got no response at all.
        def scenario(port, service):
            raw = post_raw_body(port, "/v1/sessions", b"[1, 2]")
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert b"bad-request" in raw
            assert service.sessions == {}

        run_with_frontend(scenario)

    def test_invalid_json_body_is_400_not_an_empty_request(self):
        # Garbled JSON used to be read as {}, so a garbled mutate ran as
        # an empty epoch.
        def scenario(port, service):
            request(port, "POST", "/v1/sessions", {"name": "s"})
            epoch = service.sessions["s"].snapshot["epoch"]
            raw = post_raw_body(port, "/v1/sessions/s/mutations", b'{"mutations": [')
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert b"bad-request" in raw
            raw = post_raw_body(port, "/v1/sessions", b"\xff\xfe")
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert service.sessions["s"].snapshot["epoch"] == epoch

        run_with_frontend(scenario)

    def test_null_or_non_string_session_name_is_400(self):
        # str() used to turn {"name": null} into a session named "None".
        def scenario(port, service):
            for name in (None, 5, ["s"], ""):
                status, body, _ = request(
                    port, "POST", "/v1/sessions", {"name": name, "edges": [[0, 1]]}
                )
                assert status == 400, (name, body)
                assert body["error"]["code"] == "bad-request"
            assert service.sessions == {}

        run_with_frontend(scenario)

    def test_session_name_with_a_slash_is_400(self):
        # "a/b" could be created, queried and mutated, but DELETE
        # /v1/sessions/a/b answered 404 no-route: it could never be dropped.
        def scenario(port, service):
            status, body, _ = request(
                port, "POST", "/v1/sessions", {"name": "a/b", "edges": [[0, 1]]}
            )
            assert status == 400, body
            assert body["error"]["code"] == "bad-request"
            assert service.sessions == {}

        run_with_frontend(scenario)

    def test_non_integer_ids_and_seeds_are_400_not_coerced(self):
        # int() used to commit edge 1-2 for u = 1.9, read true as node 1
        # and a float seed as its floor.
        def scenario(port, service):
            for fields in (
                {"edges": [[1.9, 2]]},
                {"edges": [[True, 2]]},
                {"edges": [["1", 2]]},
                {"seed": 1.5},
                {"seed": True},
                {"seed": "7"},
            ):
                status, body, _ = request(
                    port, "POST", "/v1/sessions", {"name": "c", **fields}
                )
                assert status == 400, (fields, body)
                assert body["error"]["code"] == "bad-request"
            assert service.sessions == {}

            request(port, "POST", "/v1/sessions", {"name": "s", "edges": [[0, 1]]})
            epoch = service.sessions["s"].snapshot["epoch"]
            for mutation in (
                {"op": "add-edge", "u": 1.9, "v": 2},
                {"op": "add-node", "u": True},
                {"op": "add-edge", "u": 2.5, "v": 2.1},
            ):
                status, body, _ = request(
                    port, "POST", "/v1/sessions/s/mutations", {"mutations": [mutation]}
                )
                assert status == 400, (mutation, body)
                assert body["error"]["code"] == "bad-request"
            assert service.sessions["s"].snapshot["epoch"] == epoch
            assert sorted(service.sessions["s"].session.graph.nodes) == [0, 1]

        run_with_frontend(scenario)


class TestErrorStatuses:
    def test_conflict_and_bad_request(self):
        def scenario(port, service):
            request(port, "POST", "/v1/sessions", {"name": "s"})
            status, body, _ = request(port, "POST", "/v1/sessions", {"name": "s"})
            assert status == 409 and body["error"]["code"] == "session-exists"

            status, body, _ = request(
                port,
                "POST",
                "/v1/sessions/s/mutations",
                {"mutations": [{"op": "frobnicate", "u": 1}]},
            )
            assert status == 400 and body["error"]["code"] == "bad-request"

            # Empty mutation list reaches the service and is typed there.
            status, body, _ = request(
                port, "POST", "/v1/sessions/s/mutations", {"mutations": []}
            )
            assert status == 400 and body["error"]["code"] == "bad-request"

        run_with_frontend(scenario)

    def test_deadline_maps_to_504(self):
        def scenario(port, service):
            request(
                port,
                "POST",
                "/v1/sessions",
                {"name": "s", "edges": [[u, u + 1] for u in range(8)]},
            )
            status, body, _ = request(
                port,
                "POST",
                "/v1/sessions/s/mutations",
                {
                    "mutations": [{"op": "add-edge", "u": 0, "v": 5}],
                    "deadline_s": 1e-9,
                },
            )
            assert status == 504
            assert body["error"]["code"] == "deadline-exceeded"

        run_with_frontend(scenario)

    def test_non_numeric_deadline_is_400_and_leaks_no_slot(self):
        def scenario(port, service):
            request(port, "POST", "/v1/sessions", {"name": "s"})
            # More malformed requests than the queue holds: a leaked
            # in-flight slot per request would fill it.
            for _ in range(service.config.queue_limit + 1):
                status, body, _ = request(
                    port,
                    "POST",
                    "/v1/sessions/s/mutations",
                    {
                        "mutations": [{"op": "add-edge", "u": 0, "v": 5}],
                        "deadline_s": "5",
                    },
                )
                assert status == 400 and body["error"]["code"] == "bad-request"
            assert service.queue_depth == 0
            status, body, _ = request(
                port,
                "POST",
                "/v1/sessions/s/mutations",
                {"mutations": [{"op": "add-edge", "u": 0, "v": 5}]},
            )
            assert status == 200 and body["ok"]

        run_with_frontend(scenario)

    def test_queue_full_carries_retry_after(self):
        def scenario(port, service):
            request(port, "POST", "/v1/sessions", {"name": "s"})
            # Pin the service at its watermark so admission rejects.
            service._inflight = service.config.queue_limit
            try:
                status, body, headers = request(
                    port,
                    "POST",
                    "/v1/sessions/s/mutations",
                    {"mutations": [{"op": "add-edge", "u": 0, "v": 5}]},
                )
            finally:
                service._inflight = 0
            assert status == 429
            assert body["error"]["code"] == "queue-full"
            assert float(headers["Retry-After"]) > 0

        run_with_frontend(scenario)
