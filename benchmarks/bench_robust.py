"""ROBUST — crash safety priced: journal overhead, recovery, faulty serving.

Three robustness claims, measured against the in-process daemon
(:class:`repro.server.LineageApp`) over real loopback sockets:

* **durability is cheap** — cold ingest at the 400-view tier with the
  write-ahead journal on (fsync'd per batch) must sustain at least
  **85%** of the journal-off throughput of the same run (the ≤15%
  overhead budget; compare also against ``BENCH_serve.json``'s
  ``ingest_statements_per_s``, which was measured journal-off);
* **recovery is splice-speed** — replaying the 10k-statement journal of
  a crashed daemon (boot -> byte-identical serving graph) must complete
  in a small fraction of the original ingest time, because replay rides
  the warm store instead of re-parsing;
* **degraded is not down** — with a 30% injected fault rate on every
  store read *and* write, the daemon must keep answering: ingest
  completes, ``GET /impact`` p99 stays under the same 50 ms bound the
  healthy daemon is held to, and the only non-200s permitted anywhere
  are deliberate 503 sheds.

Wall-clock gates only fire off-CI (or with ``BENCH_STRICT=1``); results
land in ``benchmarks/results/robust.*`` and the committed trajectory
file ``BENCH_robust.json``.  ``BENCH_ROBUST_QUICK=1`` shrinks the tiers.
"""

import asyncio
import json
import os
import time

from repro.datasets import workload
from repro.server import LineageApp
from repro.testing import faults

from _report import emit, emit_json, emit_root_json, table

QUICK = bool(os.environ.get("BENCH_ROBUST_QUICK"))
GATES_ON = not os.environ.get("CI") or os.environ.get("BENCH_STRICT")

VIEW_TIER = 80 if QUICK else 400
SCALE_TIER = 1000 if QUICK else 10_000
SEED = 431
FAULT_RATE = 0.3
READS_UNDER_FAULTS = 100 if QUICK else 400
INGEST_CHUNK = 50
JOURNAL_OVERHEAD_BUDGET = 0.85  # journal-on must keep >= 85% throughput


def _warehouse(num_views, seed=SEED):
    return workload.generate_warehouse(
        num_base_tables=max(4, num_views // 12), num_views=num_views, seed=seed
    )


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class _Client:
    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_response(self):
        head = await self.reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        body = await self.reader.readexactly(length) if length else b""
        status = int(head.split(b" ", 2)[1])
        return status, body

    async def get(self, path):
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: b\r\n\r\n".encode())
        await self.writer.drain()
        return await self._read_response()

    async def post_extract(self, statements):
        body = json.dumps({"statements": statements}).encode()
        self.writer.write(
            b"POST /extract HTTP/1.1\r\nHost: b\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        return await self._read_response()


def _chunks(mapping, size):
    names = list(mapping)
    return [
        {name: mapping[name] for name in names[index:index + size]}
        for index in range(0, len(names), size)
    ]


async def _ingest(client, statements, chunk=INGEST_CHUNK, statuses=None):
    started = time.perf_counter()
    for piece in _chunks(statements, chunk):
        status, payload = await client.post_extract(piece)
        if statuses is not None:
            statuses.append(status)
        else:
            assert status == 200, payload[:200]
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# phase 1: journal overhead (on vs off, same corpus, same process)
# ----------------------------------------------------------------------
async def _cold_ingest(tmp_dir, tag, journal_dir):
    warehouse = _warehouse(VIEW_TIER)
    app = LineageApp(
        catalog=warehouse.catalog(),
        cache_dir=os.path.join(tmp_dir, f"cache-{tag}"),
        journal_dir=journal_dir,
    )
    host, port = await app.start(port=0)
    try:
        client = _Client(host, port)
        await client.connect()
        elapsed = await _ingest(client, warehouse.views)
        journal_stats = app.journal.stats() if app.journal else None
        await client.close()
        return {
            "ingest_seconds": round(elapsed, 4),
            "ingest_statements_per_s": round(len(warehouse.views) / elapsed, 1),
            "journal": journal_stats,
        }
    finally:
        await app.stop()


# ----------------------------------------------------------------------
# phase 2: recovery time at the scale tier
# ----------------------------------------------------------------------
async def _bench_recovery(tmp_dir):
    warehouse = _warehouse(SCALE_TIER)
    journal_dir = os.path.join(tmp_dir, "scale-journal")
    cache_dir = os.path.join(tmp_dir, "scale-cache")

    app = LineageApp(
        catalog=warehouse.catalog(),
        cache_dir=cache_dir,
        journal_dir=journal_dir,
    )
    host, port = await app.start(port=0)
    try:
        client = _Client(host, port)
        await client.connect()
        ingest_elapsed = await _ingest(client, warehouse.views, chunk=500)
        status, body = await client.get("/render/json")
        assert status == 200
        reference = body
        await client.close()
    finally:
        # the daemon is abandoned, not drained: journal entries are
        # already durable, which is the whole point
        await app.stop()

    revived = LineageApp(
        catalog=warehouse.catalog(),
        cache_dir=cache_dir,
        journal_dir=journal_dir,
    )
    started = time.perf_counter()
    host, port = await revived.start(port=0)  # start() replays before binding
    recovery_elapsed = time.perf_counter() - started
    try:
        client = _Client(host, port)
        await client.connect()
        status, body = await client.get("/render/json")
        assert status == 200
        assert body == reference, "recovered graph is not byte-identical"
        await client.close()
    finally:
        await revived.stop()
    return {
        "tier": SCALE_TIER,
        "ingest_seconds": round(ingest_elapsed, 2),
        "ingest_statements_per_s": round(len(warehouse.views) / ingest_elapsed, 1),
        "recovery_seconds": round(recovery_elapsed, 2),
        "recovery_statements_per_s": round(
            len(warehouse.views) / recovery_elapsed, 1
        ),
        "recovery_vs_ingest": round(recovery_elapsed / ingest_elapsed, 3),
        "byte_identical": True,
    }


# ----------------------------------------------------------------------
# phase 3: serving under a 30% store fault rate
# ----------------------------------------------------------------------
async def _bench_faulty_serving(tmp_dir):
    warehouse = _warehouse(VIEW_TIER)
    app = LineageApp(
        catalog=warehouse.catalog(),
        cache_dir=os.path.join(tmp_dir, "faulty-cache"),
    )
    host, port = await app.start(port=0)
    faults.install(
        faults.FaultPlan(
            seed=SEED,
            rates={"store.read": FAULT_RATE, "store.write": FAULT_RATE},
        )
    )
    try:
        client = _Client(host, port)
        await client.connect()
        statuses = []
        ingest_elapsed = await _ingest(
            client, warehouse.views, statuses=statuses
        )
        bad = [status for status in statuses if status not in (200, 503)]
        assert not bad, f"unexpected statuses under faults: {bad}"

        # only measure columns the generated views actually reference
        # (an unreferenced base column is a legitimate 404)
        impact_paths = []
        for t, columns in warehouse.base_tables.items():
            path = f"/impact?column={t}.{columns[0]}"
            status, _ = await client.get(path)
            if status == 200:
                impact_paths.append(path)
        assert impact_paths
        latencies = []
        read_statuses = []
        for index in range(READS_UNDER_FAULTS):
            path = impact_paths[index % len(impact_paths)]
            started = time.perf_counter()
            status, _ = await client.get(path)
            latencies.append(time.perf_counter() - started)
            read_statuses.append(status)
        assert all(status == 200 for status in read_statuses)

        status, body = await client.get("/health")
        assert status == 200
        health = json.loads(body)
        status, body = await client.get("/stats")
        assert status == 200
        stats = json.loads(body)
        await client.close()
        return {
            "fault_rate": FAULT_RATE,
            "ingest_seconds": round(ingest_elapsed, 4),
            "ingest_statements_per_s": round(
                len(warehouse.views) / ingest_elapsed, 1
            ),
            "read_requests": len(latencies),
            "read_p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
            "read_p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
            "health_status": health["status"],
            "store_error_misses": stats["store"]["session_error_misses"],
            "store_dropped_writes": stats["store"]["session_dropped_writes"],
            "non_200_responses": len([s for s in statuses if s != 200]),
        }
    finally:
        faults.reset()
        await app.stop()


def test_robustness_benchmark(tmp_path):
    tmp_dir = str(tmp_path)
    journal_off = asyncio.run(_cold_ingest(tmp_dir, "off", None))
    journal_on = asyncio.run(
        _cold_ingest(tmp_dir, "on", os.path.join(tmp_dir, "journal"))
    )
    overhead_ratio = round(
        journal_on["ingest_statements_per_s"]
        / journal_off["ingest_statements_per_s"],
        4,
    )
    recovery = (
        {"tier": SCALE_TIER, "skipped": "BENCH_ROBUST_QUICK"}
        if QUICK
        else asyncio.run(_bench_recovery(tmp_dir))
    )
    faulty = asyncio.run(_bench_faulty_serving(tmp_dir))

    view_metrics = {
        "tier": VIEW_TIER,
        "journal_off_statements_per_s": journal_off["ingest_statements_per_s"],
        "journal_on_statements_per_s": journal_on["ingest_statements_per_s"],
        "journal_throughput_ratio": overhead_ratio,
        "journal_entries": (journal_on["journal"] or {}).get("appended"),
        "faulty_read_p99_ms": faulty["read_p99_ms"],
        "faulty_ingest_statements_per_s": faulty["ingest_statements_per_s"],
    }
    payload = {
        "view_tier": view_metrics,
        "journal_off": journal_off,
        "journal_on": journal_on,
        "faulty_serving": faulty,
        "recovery": recovery,
        "quick": QUICK,
        "gates": {
            "journal_throughput_ratio_min": JOURNAL_OVERHEAD_BUDGET,
            "faulty_read_p99_ms_max": 50.0,
        },
        # pinned on first emit (emit_root_json keeps the existing value)
        "baseline": dict(view_metrics),
    }
    emit_json("robust", payload)
    emit_root_json("robust", payload)

    rows = [[key, value] for key, value in sorted(view_metrics.items())]
    emit(
        "robust",
        f"Crash-safe serving @ {VIEW_TIER} views "
        f"({'quick' if QUICK else 'full'} scale)",
        table(["metric", "value"], rows)
        + [
            "",
            f"recovery: {recovery}",
            f"faulty serving: {faulty}",
        ],
    )

    # correctness-side assertions always run
    assert (journal_on["journal"] or {}).get("appended", 0) == len(
        _warehouse(VIEW_TIER).views
    )
    assert faulty["health_status"] in ("ok", "degraded")
    assert faulty["store_error_misses"] + faulty["store_dropped_writes"] > 0
    assert faulty["non_200_responses"] == 0  # sheds would be 503, none expected

    if GATES_ON:
        assert overhead_ratio >= JOURNAL_OVERHEAD_BUDGET, (
            f"journal overhead exceeds budget: on/off throughput ratio "
            f"{overhead_ratio} < {JOURNAL_OVERHEAD_BUDGET}"
        )
        assert faulty["read_p99_ms"] < 50.0, (
            "p99 /impact latency under a 30% store fault rate must stay "
            f"under 50 ms, got {faulty['read_p99_ms']} ms"
        )
        if not QUICK:
            assert recovery["recovery_vs_ingest"] < 0.5, (
                "journal replay should ride the warm store: recovery took "
                f"{recovery['recovery_vs_ingest']:.0%} of the original ingest"
            )
