"""The daemon's endpoints, exercised in-process over real sockets."""

import asyncio
import json

from repro.server import LineageApp

V1 = "CREATE VIEW v1 AS SELECT a, b FROM t1"
V2 = "CREATE VIEW v2 AS SELECT a FROM v1"


async def _request(host, port, method, path, payload=None, headers=()):
    """One HTTP exchange on a fresh connection; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        for name, value in headers:
            head += f"{name}: {value}\r\n"
        if body:
            head += f"Content-Length: {len(body)}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_bytes, _, response_body = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    response_headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, response_body


async def _json(host, port, method, path, payload=None):
    status, _, body = await _request(host, port, method, path, payload)
    return status, json.loads(body)


def _with_app(test, **app_kwargs):
    async def go():
        app = LineageApp(**app_kwargs)
        host, port = await app.start(port=0)
        try:
            await test(app, host, port)
        finally:
            await app.stop()

    asyncio.run(go())


class TestReadEndpoints:
    def test_health_before_any_ingest(self):
        async def check(app, host, port):
            status, payload = await _json(host, port, "GET", "/health")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["snapshot_version"] == 0
            assert payload["relations"] == 0

        _with_app(check)

    def test_stats_shape(self):
        async def check(app, host, port):
            await app.preload({"v1": V1})
            status, payload = await _json(host, port, "GET", "/stats")
            assert status == 200
            assert payload["ingest"]["extracted"] == 1
            assert payload["snapshot"]["version"] == 1
            assert "csv" in payload["server"]["formats"]
            assert "store" not in payload  # no cache_dir configured

        _with_app(check)

    def test_stats_includes_store_block(self, tmp_path):
        async def check(app, host, port):
            await app.preload({"v1": V1, "v2": V2})
            _, payload = await _json(host, port, "GET", "/stats")
            store = payload["store"]
            assert store["entries"] == 2
            assert store["size_bytes"] > 0
            assert store["breaker"] == "closed"

        _with_app(check, cache_dir=str(tmp_path / "cache"))

    def test_impact_over_the_snapshot(self):
        async def check(app, host, port):
            await app.preload({"v1": V1, "v2": V2})
            status, payload = await _json(
                host, port, "GET", "/impact?column=t1.a"
            )
            assert status == 200
            assert payload["impacted_tables"] == ["v1", "v2"]
            assert {"table": "v2", "column": "a", "kind": "contribute"} in payload[
                "columns"
            ]

        _with_app(check)

    def test_impact_requires_column(self):
        async def check(app, host, port):
            status, payload = await _json(host, port, "GET", "/impact")
            assert status == 400
            assert "column" in payload["error"]
            status, _ = await _json(
                host, port, "GET", "/impact?column=t1.a&direction=sideways"
            )
            assert status == 400

        _with_app(check)

    def test_ordering_kinds(self):
        async def check(app, host, port):
            await app.preload({"v1": V1, "v2": V2})
            _, payload = await _json(host, port, "GET", "/ordering")
            assert payload == {
                "kind": "creation",
                "order": ["v1", "v2"],
                "snapshot_version": 1,
            }
            _, payload = await _json(host, port, "GET", "/ordering?kind=drop")
            assert payload["order"] == ["v2", "v1"]
            _, payload = await _json(host, port, "GET", "/ordering?kind=terminal")
            assert payload["order"] == ["v2"]
            _, payload = await _json(host, port, "GET", "/ordering?kind=roots")
            assert payload["order"] == ["t1"]
            status, _ = await _json(host, port, "GET", "/ordering?kind=nope")
            assert status == 400

        _with_app(check)

    def test_render_serves_registry_content_types(self):
        async def check(app, host, port):
            await app.preload({"v1": V1})
            status, headers, body = await _request(host, port, "GET", "/render/csv")
            assert status == 200
            assert headers["content-type"] == "text/csv; charset=utf-8"
            assert b"t1.a,v1.a,contribute" in body
            status, headers, body = await _request(host, port, "GET", "/render/json")
            assert headers["content-type"] == "application/json; charset=utf-8"
            assert json.loads(body)["stats"]["num_views"] == 1

        _with_app(check)

    def test_render_unknown_format_is_404(self):
        async def check(app, host, port):
            status, payload = await _json(host, port, "GET", "/render/pdf")
            assert status == 404
            assert "pdf" in payload["error"]

        _with_app(check)


class TestExtractEndpoint:
    def test_extract_then_duplicate(self):
        async def check(app, host, port):
            status, payload = await _json(
                host, port, "POST", "/extract", {"statements": {"v1": V1, "v2": V2}}
            )
            assert status == 200
            assert [row["status"] for row in payload["statements"]] == [
                "extracted",
                "extracted",
            ]
            assert payload["batch"]["extracted"] == 2
            status, payload = await _json(
                host, port, "POST", "/extract", {"v1": V1}
            )
            assert status == 200
            assert payload["statements"][0]["status"] == "duplicate"

        _with_app(check)

    def test_batch_counts_splices_by_origin(self, tmp_path):
        # one daemon fills the store; the next boots warm from it, and an
        # append after that boot splices the corpus from memory, not disk
        cache_dir = str(tmp_path / "cache")

        async def fill(app, host, port):
            await app.preload({"v1": V1, "v2": V2})

        async def check(app, host, port):
            boot = await app.batcher.submit({"v1": V1, "v2": V2}, journal=False)
            assert boot["batch"]["reused_from_store"] == 2
            assert boot["batch"]["reused_from_memory"] == 0
            status, payload = await _json(
                host, port, "POST", "/extract",
                {"v3": "CREATE VIEW v3 AS SELECT a FROM v2"},
            )
            assert status == 200
            assert payload["batch"] == {
                "extracted": 1,
                "reused_from_memory": 2,
                "reused_from_store": 0,
                "unresolved": [],
            }

        _with_app(fill, cache_dir=cache_dir)
        _with_app(check, cache_dir=cache_dir)

    def test_bare_mapping_body_accepted(self):
        async def check(app, host, port):
            status, payload = await _json(host, port, "POST", "/extract", {"v1": V1})
            assert status == 200
            assert payload["snapshot_version"] == 1

        _with_app(check)

    def test_bad_bodies_are_400(self):
        async def check(app, host, port):
            status, _ = await _json(host, port, "POST", "/extract", {})
            assert status == 400
            status, _ = await _json(host, port, "POST", "/extract", ["not", "a", "map"])
            assert status == 400
            status, _ = await _json(host, port, "POST", "/extract", {"v1": "   "})
            assert status == 400
            status, _, _ = await _request(
                host, port, "POST", "/extract",
                headers=[("Content-Length", "0")],
            )
            assert status == 400

        _with_app(check)

    def test_extraction_error_quarantines_and_state_survives(self):
        async def check(app, host, port):
            status, payload = await _json(
                host, port, "POST", "/extract", {"broken": "CREATE VIEW b AS SELEKT"}
            )
            # poison isolates to its statement: the request itself succeeds
            assert status == 200
            row = payload["statements"][0]
            assert row["status"] == "quarantined"
            assert "ParseError" in row["error"]["type"]
            assert row["retry_after_seconds"] > 0
            status, payload = await _json(host, port, "POST", "/extract", {"v1": V1})
            assert status == 200
            assert payload["snapshot_version"] == 1

        _with_app(check)


class TestProtocolSurface:
    def test_unknown_endpoint_is_404(self):
        async def check(app, host, port):
            status, _ = await _json(host, port, "GET", "/nope")
            assert status == 404

        _with_app(check)

    def test_method_mismatches_are_405(self):
        async def check(app, host, port):
            status, _ = await _json(host, port, "GET", "/extract")
            assert status == 405
            status, _ = await _json(host, port, "POST", "/health", {"x": 1})
            assert status == 405

        _with_app(check)

    def test_keep_alive_serves_multiple_requests(self):
        async def check(app, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(3):
                    writer.write(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200")
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    await reader.readexactly(length)
            finally:
                writer.close()
                await writer.wait_closed()

        _with_app(check)

    def test_head_omits_body_and_keeps_the_connection_usable(self):
        # a HEAD response must advertise the GET Content-Length but put
        # no body bytes on the wire: a compliant client will not read a
        # body, and leftover bytes would desync the next request on a
        # keep-alive connection
        async def check(app, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"HEAD /health HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200")
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                assert length > 0  # the GET body size is still advertised
                # without reading any body, the same connection must
                # serve the next request cleanly — this would fail if
                # HEAD had written body bytes
                writer.write(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200")
                get_length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                body = await reader.readexactly(get_length)
                assert json.loads(body)["status"] == "ok"
            finally:
                writer.close()
                await writer.wait_closed()

        _with_app(check)

    def test_malformed_wire_data_gets_400(self):
        async def check(app, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"THIS IS NOT HTTP\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            assert raw.startswith(b"HTTP/1.1 400")
            writer.close()
            await writer.wait_closed()

        _with_app(check)


class TestWarmSession:
    def test_app_over_an_extracted_session_serves_immediately(self):
        from repro.session import LineageSession

        async def go():
            session = LineageSession({"v1": V1})
            session.extract()
            app = LineageApp(session)
            host, port = await app.start(port=0)
            try:
                status, payload = await _json(host, port, "GET", "/health")
                assert payload["relations"] == 2  # t1 + v1
                _, payload = await _json(host, port, "GET", "/ordering")
                assert payload["order"] == ["v1"]
            finally:
                await app.stop()

        asyncio.run(go())
