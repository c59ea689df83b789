"""SERVE — the lineage daemon: dedupe throughput and lock-free read latency.

Three serving claims, measured over real loopback sockets against the
in-process daemon (:class:`repro.server.LineageApp`):

* **hash dedupe pays** — streaming a duplicate-heavy workload through
  ``POST /extract`` (every statement already known to the daemon) must
  sustain at least **5x** the statement throughput of a unique-statement
  workload, because duplicates are answered from the content-hash index
  without ever reaching the parser;
* **readers never block on ingest** — while the ingest loop is
  extracting a fresh corpus, concurrent ``GET /impact`` reads against
  the published snapshot must keep p99 latency under **50 ms** at the
  400-view tier (reads are served from an immutable frozen graph; the
  batch runs on a worker thread);
* **scale** — a 10k-statement corpus streamed through the daemon in
  chunks ingests end to end (skipped under ``BENCH_SERVE_QUICK=1``).

Wall-clock gates only fire off-CI (or with ``BENCH_STRICT=1``), matching
the other benchmarks.  Results land in ``benchmarks/results/serve.*``
and the committed trajectory file ``BENCH_serve.json``.
"""

import asyncio
import json
import os
import time

from repro.datasets import workload
from repro.server import LineageApp

from _report import emit, emit_json, emit_root_json, table

QUICK = bool(os.environ.get("BENCH_SERVE_QUICK"))
GATES_ON = not os.environ.get("CI") or os.environ.get("BENCH_STRICT")

VIEW_TIER = 80 if QUICK else 400
SCALE_TIER = 1000 if QUICK else 10_000
SEED = 430
READ_CLIENTS = 4
READS_PER_CLIENT = 50 if QUICK else 200
INGEST_CHUNK = 50


def _warehouse(num_views, seed=SEED):
    return workload.generate_warehouse(
        num_base_tables=max(4, num_views // 12), num_views=num_views, seed=seed
    )


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


# ----------------------------------------------------------------------
# a minimal keep-alive benchmark client
# ----------------------------------------------------------------------
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
        status, payload = await self._read_response()
        assert status == 200, payload[:200]
        return json.loads(payload)


def _chunks(mapping, size):
    names = list(mapping)
    return [
        {name: mapping[name] for name in names[index:index + size]}
        for index in range(0, len(names), size)
    ]


async def _ingest(client, statements, chunk=INGEST_CHUNK):
    started = time.perf_counter()
    for piece in _chunks(statements, chunk):
        await client.post_extract(piece)
    return time.perf_counter() - started


async def _read_loop(host, port, paths, latencies):
    client = _Client(host, port)
    await client.connect()
    try:
        for path in paths:
            started = time.perf_counter()
            status, _ = await client.get(path)
            latencies.append(time.perf_counter() - started)
            assert status == 200
    finally:
        await client.close()


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------
async def _bench_view_tier(tmp_dir):
    warehouse = _warehouse(VIEW_TIER)
    app = LineageApp(
        catalog=warehouse.catalog(),
        cache_dir=os.path.join(tmp_dir, "cache"),
    )
    host, port = await app.start(port=0)
    metrics = {"tier": VIEW_TIER}
    try:
        client = _Client(host, port)
        await client.connect()

        # --- phase 1: cold ingest -------------------------------------
        elapsed = await _ingest(client, warehouse.views)
        metrics["ingest_seconds"] = round(elapsed, 4)
        metrics["ingest_statements_per_s"] = round(len(warehouse.views) / elapsed, 1)

        # --- phase 2: sustained snapshot reads ------------------------
        impact_paths = [
            f"/impact?column={t}.{columns[0]}"
            for t, columns in warehouse.base_tables.items()
        ]
        paths = [
            impact_paths[i % len(impact_paths)] for i in range(READS_PER_CLIENT)
        ]
        latencies = []
        started = time.perf_counter()
        await asyncio.gather(
            *(_read_loop(host, port, paths, latencies) for _ in range(READ_CLIENTS))
        )
        read_elapsed = time.perf_counter() - started
        metrics["read_requests"] = len(latencies)
        metrics["read_req_per_s"] = round(len(latencies) / read_elapsed, 1)
        metrics["read_p50_ms"] = round(_percentile(latencies, 0.50) * 1000, 3)
        metrics["read_p99_ms"] = round(_percentile(latencies, 0.99) * 1000, 3)

        # --- phase 3: reads while a fresh corpus ingests --------------
        second = _warehouse(VIEW_TIER, seed=SEED + 1)
        renamed = {
            f"b_{name}": sql.replace(name, f"b_{name}", 1)
            for name, sql in second.views.items()
        }
        busy_latencies = []
        ingest_task = asyncio.ensure_future(_ingest(client, renamed))
        while not ingest_task.done():
            await _read_loop(
                host, port, paths[:10], busy_latencies
            )
        await ingest_task
        metrics["busy_read_requests"] = len(busy_latencies)
        metrics["busy_read_p50_ms"] = round(
            _percentile(busy_latencies, 0.50) * 1000, 3
        )
        metrics["busy_read_p99_ms"] = round(
            _percentile(busy_latencies, 0.99) * 1000, 3
        )

        # --- phase 4: duplicate-heavy vs unique extract throughput ----
        dup_started = time.perf_counter()
        for piece in _chunks(warehouse.views, INGEST_CHUNK):
            await client.post_extract(piece)
        dup_elapsed = time.perf_counter() - dup_started
        unique = _warehouse(VIEW_TIER, seed=SEED + 2)
        fresh = {
            f"c_{name}": sql.replace(name, f"c_{name}", 1)
            for name, sql in unique.views.items()
        }
        unique_elapsed = await _ingest(client, fresh)
        dup_rate = len(warehouse.views) / dup_elapsed
        unique_rate = len(fresh) / unique_elapsed
        metrics["dup_statements_per_s"] = round(dup_rate, 1)
        metrics["unique_statements_per_s"] = round(unique_rate, 1)
        metrics["dedupe_speedup"] = round(dup_rate / unique_rate, 2)

        # --- phase 5: warm-hit ratio from /stats ----------------------
        status, body = await client.get("/stats")
        assert status == 200
        stats = json.loads(body)
        ingest = stats["ingest"]
        skipped = ingest["duplicate"] + ingest["coalesced"]
        metrics["warm_hit_ratio"] = round(skipped / ingest["statements"], 4)
        metrics["snapshot_version"] = stats["snapshot"]["version"]
        metrics["store_entries"] = stats["store"]["entries"]

        await client.close()
    finally:
        await app.stop()
    return metrics


async def _bench_scale_tier(tmp_dir):
    warehouse = _warehouse(SCALE_TIER)
    app = LineageApp(
        cache_dir=os.path.join(tmp_dir, "scale-cache"),
        catalog=warehouse.catalog(),
    )
    host, port = await app.start(port=0)
    try:
        client = _Client(host, port)
        await client.connect()
        elapsed = await _ingest(client, warehouse.views, chunk=500)
        status, body = await client.get("/health")
        assert status == 200
        health = json.loads(body)
        await client.close()
        return {
            "tier": SCALE_TIER,
            "ingest_seconds": round(elapsed, 2),
            "ingest_statements_per_s": round(len(warehouse.views) / elapsed, 1),
            "relations": health["relations"],
        }
    finally:
        await app.stop()


def test_serving_benchmark(tmp_path):
    view_metrics = asyncio.run(_bench_view_tier(str(tmp_path)))
    scale_metrics = (
        {"tier": SCALE_TIER, "skipped": "BENCH_SERVE_QUICK"}
        if QUICK
        else asyncio.run(_bench_scale_tier(str(tmp_path)))
    )

    payload = {
        "view_tier": view_metrics,
        "scale_tier": scale_metrics,
        "quick": QUICK,
        "gates": {
            "dedupe_speedup_min": 5.0,
            "busy_read_p99_ms_max": 50.0,
        },
        # pinned on first emit (emit_root_json keeps the existing value):
        # the trajectory file records where the daemon started
        "baseline": dict(view_metrics),
    }
    emit_json("serve", payload)
    emit_root_json("serve", payload)

    rows = [[key, value] for key, value in sorted(view_metrics.items())]
    emit(
        "serve",
        f"Serving daemon @ {VIEW_TIER} views "
        f"({'quick' if QUICK else 'full'} scale)",
        table(["metric", "value"], rows)
        + [
            "",
            f"scale tier: {scale_metrics}",
        ],
    )

    # correctness-side assertions always run: the dedupe path must have
    # actually engaged and every phase must have produced samples
    assert view_metrics["warm_hit_ratio"] > 0.2
    assert view_metrics["busy_read_requests"] > 0
    assert view_metrics["snapshot_version"] > 2

    if GATES_ON:
        assert view_metrics["dedupe_speedup"] >= 5.0, (
            "duplicate-heavy /extract throughput must be at least 5x the "
            f"unique-statement workload, got {view_metrics['dedupe_speedup']}x"
        )
        assert view_metrics["busy_read_p99_ms"] < 50.0, (
            "p99 /impact latency during active ingest must stay under 50 ms, "
            f"got {view_metrics['busy_read_p99_ms']} ms"
        )
