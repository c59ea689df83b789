"""Backpressure, deadlines, quarantine surface, and degraded-mode serving."""

import asyncio
import json

import pytest

from repro.core.lineage import LineageGraph
from repro.server import LineageApp, OverloadedError
from repro.server.batcher import IngestBatcher
from repro.quarantine import Quarantine
from repro.server.snapshot import SnapshotManager
from repro.session import LineageSession
from repro.testing import faults

V1 = "CREATE VIEW v1 AS SELECT a, b FROM t1"


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.reset()
    yield
    faults.reset()


async def _request(host, port, method, path, payload=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
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
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(response_body) if response_body else None


def _with_app(test, **app_kwargs):
    async def go():
        app = LineageApp(**app_kwargs)
        host, port = await app.start(port=0)
        try:
            await test(app, host, port)
        finally:
            await app.stop()

    asyncio.run(go())


async def _make_batcher(**kwargs):
    session = LineageSession()
    snapshots = SnapshotManager(LineageGraph())
    batcher = IngestBatcher(session, snapshots, **kwargs)
    batcher.start()
    return snapshots, batcher


def _view(index):
    return f"CREATE VIEW q{index} AS SELECT c{index} FROM t{index}"


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self):
        async def go():
            # hold the ingest loop inside a slow refresh so the queue
            # actually backs up (the loop normally drains instantly)
            faults.install(
                faults.FaultPlan(seed=0, delays={"batcher.refresh": 0.2})
            )
            _, batcher = await _make_batcher(max_pending=1)
            first = asyncio.ensure_future(batcher.submit({"q0": _view(0)}))
            await asyncio.sleep(0.05)  # the loop picked q0 up; now stall it
            second = asyncio.ensure_future(batcher.submit({"q1": _view(1)}))
            await asyncio.sleep(0.01)  # q1 sits in the queue: depth == 1
            with pytest.raises(OverloadedError) as error:
                await batcher.submit({"q2": _view(2)})
            assert error.value.retry_after > 0
            assert batcher.counters["shed"] == 1
            # the accepted requests still complete
            results = await asyncio.gather(first, second)
            assert all(
                row["status"] == "extracted"
                for result in results
                for row in result["statements"]
            )
            await batcher.stop()

        asyncio.run(go())

    def test_replay_traffic_is_never_shed(self):
        async def go():
            faults.install(
                faults.FaultPlan(seed=0, delays={"batcher.refresh": 0.2})
            )
            _, batcher = await _make_batcher(max_pending=1)
            first = asyncio.ensure_future(batcher.submit({"q0": _view(0)}))
            await asyncio.sleep(0.05)
            second = asyncio.ensure_future(batcher.submit({"q1": _view(1)}))
            await asyncio.sleep(0.01)
            # recovery replay (journal=False) must get through: shedding
            # boot-time replay would lose acknowledged statements
            third = asyncio.ensure_future(
                batcher.submit({"q2": _view(2)}, journal=False)
            )
            results = await asyncio.gather(first, second, third)
            assert all(
                row["status"] == "extracted"
                for result in results
                for row in result["statements"]
            )
            assert batcher.counters["shed"] == 0
            await batcher.stop()

        asyncio.run(go())

    def test_overload_is_a_503_with_retry_after_header(self):
        async def check(app, host, port):
            faults.install(
                faults.FaultPlan(seed=0, delays={"batcher.refresh": 0.2})
            )
            first = asyncio.ensure_future(
                _request(host, port, "POST", "/extract", {"q0": _view(0)})
            )
            await asyncio.sleep(0.05)
            second = asyncio.ensure_future(
                _request(host, port, "POST", "/extract", {"q1": _view(1)})
            )
            await asyncio.sleep(0.05)
            status, headers, payload = await _request(
                host, port, "POST", "/extract", {"q2": _view(2)}
            )
            assert status == 503
            assert int(headers["retry-after"]) >= 1
            assert "queue full" in payload["error"]
            for response in await asyncio.gather(first, second):
                assert response[0] == 200

        _with_app(check, max_pending=1)


class TestDeadlines:
    def test_slow_batch_times_out_as_retryable_503(self):
        async def check(app, host, port):
            faults.install(
                faults.FaultPlan(seed=0, delays={"batcher.refresh": 0.5})
            )
            status, headers, payload = await _request(
                host, port, "POST", "/extract", {"q0": _view(0)}
            )
            assert status == 503
            assert "retry-after" in headers
            assert "deduplicated" in payload["error"]
            assert app.batcher.counters["deadline_exceeded"] == 1
            faults.reset()
            # the batch itself still completed behind the deadline: the
            # work was not lost, and the daemon is healthy
            await asyncio.sleep(0.6)
            status, _, payload = await _request(
                host, port, "POST", "/extract", {"q0": _view(0)}
            )
            assert status == 200
            assert payload["statements"][0]["status"] == "duplicate"

        _with_app(check, request_timeout=0.1)


class TestBatchSplitting:
    def test_oversized_batch_is_split(self):
        async def go():
            snapshots, batcher = await _make_batcher(max_batch_statements=2)
            result = await batcher.submit(
                {f"q{i}": _view(i) for i in range(5)}
            )
            assert [row["status"] for row in result["statements"]] == [
                "extracted"
            ] * 5
            assert batcher.counters["batch_splits"] == 2  # 5 -> 2+2+1
            # each chunk published: the watchdog keeps publish latency
            # bounded instead of one giant batch blocking readers
            assert snapshots.version == 3
            assert snapshots.current().stats["num_views"] == 5
            await batcher.stop()

        asyncio.run(go())

    def test_replay_is_never_split(self):
        # chunk boundaries change dependency context and store keys —
        # exactly what makes chunked replay slow and key-mismatched — so
        # the split watchdog must not apply to journal replay / preload
        async def go():
            from repro.sources import content_hash

            snapshots, batcher = await _make_batcher(max_batch_statements=2)
            entries = [
                (index, f"q{index}", _view(index), content_hash(_view(index)))
                for index in range(5)
            ]
            assert await batcher.replay(entries) == 5
            assert batcher.counters["batch_splits"] == 0
            assert snapshots.version == 1  # one batch, one publish
            assert snapshots.current().stats["num_views"] == 5
            await batcher.stop()

        asyncio.run(go())


class TestJournalFailure:
    def test_journal_write_failure_is_a_retryable_503(self, tmp_path):
        async def check(app, host, port):
            faults.install(
                faults.FaultPlan(seed=0, rates={"journal.fsync": 1.0})
            )
            status, headers, payload = await _request(
                host, port, "POST", "/extract", {"q0": _view(0)}
            )
            assert status == 503
            assert "retry-after" in headers
            # nothing was acknowledged, so nothing was adopted: after the
            # disk recovers the same statement extracts normally
            faults.reset()
            status, _, payload = await _request(
                host, port, "POST", "/extract", {"q0": _view(0)}
            )
            assert status == 200
            assert payload["statements"][0]["status"] == "extracted"
            assert app.journal.stats()["entries_on_disk"] == 1

        _with_app(check, journal_dir=str(tmp_path / "journal"))


class TestDegradedMode:
    def test_store_outage_degrades_health_not_availability(self, tmp_path):
        async def check(app, host, port):
            faults.install(
                faults.FaultPlan(
                    seed=0, rates={"store.read": 1.0, "store.write": 1.0}
                )
            )
            # every batch drops its cache write; enough consecutive
            # failures trip the store's breaker
            for index in range(6):
                status, _, _ = await _request(
                    host, port, "POST", "/extract", {f"q{index}": _view(index)}
                )
                assert status == 200  # extraction works without the cache
            status, _, health = await _request(host, port, "GET", "/health")
            assert status == 200
            assert health["status"] == "degraded"
            assert health["store"]["status"] == "degraded"
            assert health["store"]["breaker"] == "open"
            status, _, stats = await _request(host, port, "GET", "/stats")
            assert stats["store"]["session_dropped_writes"] >= 6

        _with_app(check, cache_dir=str(tmp_path / "cache"))

    def test_thirty_percent_fault_rate_never_5xxes(self, tmp_path):
        async def check(app, host, port):
            faults.install(
                faults.FaultPlan(
                    seed=42, rates={"store.read": 0.3, "store.write": 0.3}
                )
            )
            for index in range(20):
                status, _, payload = await _request(
                    host, port, "POST", "/extract", {f"q{index}": _view(index)}
                )
                assert status == 200
                assert payload["statements"][0]["status"] == "extracted"
            for path in ("/health", "/stats", "/render/json", "/quarantine"):
                status, _, _ = await _request(host, port, "GET", path)
                assert status == 200

        _with_app(check, cache_dir=str(tmp_path / "cache"))


class TestQuarantineSurface:
    def test_quarantine_endpoint_shape(self, tmp_path):
        async def check(app, host, port):
            status, _, payload = await _request(
                host, port, "POST", "/extract",
                {"bad": "CREATE VIEW bad AS SELEKT"},
            )
            assert status == 200
            status, _, payload = await _request(host, port, "GET", "/quarantine")
            assert status == 200
            (entry,) = payload["entries"]
            assert entry["name"] == "bad"
            assert entry["failures"] == 1
            assert entry["error"]["type"]
            assert entry["retry_after_seconds"] > 0
            assert payload["stats"]["recorded"] == 1

        _with_app(check)

    def test_corrected_statement_bypasses_the_quarantined_pair(self):
        async def go():
            snapshots, batcher = await _make_batcher()
            await batcher.submit({"v1": "CREATE VIEW v1 AS SELEKT"})
            # the fix changes the content hash: a fresh pair, extracted
            # immediately even though the broken pair is still backed off
            result = await batcher.submit({"v1": V1})
            assert result["statements"][0]["status"] == "extracted"
            assert snapshots.current().stats["num_views"] == 1
            assert len(batcher.quarantine) == 1  # broken pair still parked
            await batcher.stop()

        asyncio.run(go())

    def test_backoff_expiry_allows_a_retrial(self):
        async def go():
            clock = [1000.0]
            quarantine = Quarantine(clock=lambda: clock[0])
            _, batcher = await _make_batcher(quarantine=quarantine)
            broken = {"bad": "CREATE VIEW bad AS SELEKT"}
            await batcher.submit(broken)
            assert quarantine.get("bad", batcher_hash(broken)) .failures == 1
            # inside the window: blocked without a parse
            await batcher.submit(broken)
            assert batcher.counters["quarantine_blocked"] == 1
            # past the window: re-parsed, fails again, backoff doubles
            clock[0] += 2.0
            await batcher.submit(broken)
            entry = quarantine.get("bad", batcher_hash(broken))
            assert entry.failures == 2
            assert entry.blocked_until - clock[0] == pytest.approx(2.0)
            await batcher.stop()

        asyncio.run(go())


def batcher_hash(mapping):
    from repro.sources import content_hash

    (sql,) = mapping.values()
    return content_hash(sql)


class TestQuarantineTable:
    def test_backoff_doubles_and_caps(self):
        clock = [0.0]
        table = Quarantine(backoff_base=1.0, backoff_cap=8.0, clock=lambda: clock[0])
        backoffs = [table.record("v", "h", {"type": "E"}) for _ in range(6)]
        assert backoffs == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_bounded_table_evicts_oldest(self):
        clock = [0.0]
        table = Quarantine(max_entries=2, clock=lambda: clock[0])
        for index in range(3):
            clock[0] += 1.0
            table.record(f"v{index}", "h", {"type": "E"})
        assert len(table) == 2
        assert table.get("v0", "h") is None  # oldest failure evicted
        assert table.counters["evicted"] == 1

    def test_clear_on_success(self):
        table = Quarantine()
        table.record("v", "h", {"type": "E"})
        table.clear("v", "h")
        assert len(table) == 0
        assert table.blocked_for("v", "h") is None
        assert table.counters["cleared"] == 1
