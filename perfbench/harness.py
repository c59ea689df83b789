"""The timed phases of one workload run and their correctness checks.

One :class:`WorkloadRun` drives the system through its public surfaces.
It times ``import repro`` in fresh interpreters (``setup``), writes the
corpus, then repeats one round ``spec.rounds`` times.  A round is, in
order:

1. ``cold`` — ``LineageSession(<sql dir>, cache_dir=<empty>).extract()``,
   then the first ``warm`` extraction: a new session over that
   now-populated store (100% splice asserted);
2. ``setup`` — a daemon boot: preload the corpus, with every earlier
   round's deltas, from the warm store and publish snapshot 1 (journal
   on, loopback socket bound);
3. ``fresh`` and ``impact`` — the round's share of the one-statement
   ``POST /extract`` deltas, closed loop, with a group of
   ``GET /impact?column=`` reads on the quiescent snapshot before each
   delta and after the last;
4. the second ``warm`` extraction;
5. ``setup`` and ``stream`` — a fresh copy of the initial log, the
   streamer bootstrap (its first pass), then ``spec.stream_chunks``
   chunks, each appended and drained in 1,000-line batches;
6. the remaining ``warm`` extractions.

Rounds, and warm extractions between the phases, spread every metric's
samples over the whole run, so changes of the host's speed within a run
reach every metric alike.  Only one session or daemon is open at a time,
and each extraction, boot and stream round, and each daemon's first read
group, starts from a collected heap.  Every phase counts the operations
it attempted and the ones that failed; references are compared outside
the timed windows.

With a tracer, every other unit of work (an extraction, a delta, a read,
a stream batch) runs with the layer wrappers installed; the untraced
units in between give each phase's tracing overhead.
"""

import asyncio
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from urllib.parse import quote

from repro.analysis.impact import impact_analysis
from repro.output.csv_output import graph_to_csv
from repro.server import LineageApp
from repro.session import LineageSession

import workloads

IMPORT_REPS = 3
BFS_CHECKS = 50
PHASES = ("setup", "cold", "warm", "fresh", "impact", "stream")
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "started = time.perf_counter(); import repro; "
    "print(time.perf_counter() - started)"
)


class Unit:
    """One timed unit of work."""

    __slots__ = ("phase", "index", "traced", "elapsed", "work", "refreshed")

    def __init__(self, phase, index, traced):
        self.phase = phase
        self.index = index
        self.traced = traced
        self.elapsed = 0.0
        self.work = 1            # log lines, for a stream batch
        self.refreshed = False   # a stream batch that refreshed the session


class Client:
    """A minimal keep-alive HTTP/1.1 client for the loopback daemon."""

    async def connect(self, host, port):
        self.reader, self.writer = await asyncio.open_connection(host, port)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _response(self):
        head = await self.reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        body = await self.reader.readexactly(length) if length else b""
        return int(head.split(b" ", 2)[1]), body

    async def get(self, path):
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await self.writer.drain()
        return await self._response()

    async def post(self, path, payload):
        body = json.dumps(payload).encode()
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        return await self._response()


def current_rss_mb():
    """Resident set size now (peak so far where /proc is unavailable)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spliced_from_store(report):
    """Entries an extraction spliced from the store (``num_reused_store``)."""
    return sum(1 for origin in report.reused_from.values() if origin == "store")


class WorkloadRun:
    """One seeded run of one workload; see the module docstring."""

    def __init__(self, spec, seed, workdir, src_dir, tracer=None, targets=()):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.src_dir = src_dir
        self.tracer = tracer
        self.targets = list(targets)
        self.units = []
        self.setup = {"import": [], "boot": [], "stream_bootstrap": []}
        self.stream_drains = []  # seconds per appended chunk
        self.attempted = dict.fromkeys(PHASES, 0)
        self.failed = dict.fromkeys(PHASES, 0)
        self.problems = []
        self.counts = {}       # per-phase program counters (dirty entries, answers, ...)
        self.rss = {}
        self.digests = {}      # SHA-256 of this run's four inputs
        self.pinned_corpus = None
        self.peak_rss = None
        self.timeline = {}     # step -> wall seconds, summed over rounds
        self._last_mark = time.perf_counter()
        self._dirs = 0
        self._dirty = []
        self._answers = []
        self._stream_totals = [0, 0, 0]  # statements, skipped, applied
        self._stream_steps = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @contextmanager
    def unit(self, phase, index):
        """Time one unit; in a traced run, odd units run traced."""
        traced = self.tracer is not None and index % 2 == 1
        record = Unit(phase, index, traced)
        if traced:
            self.tracer.request = (phase, index)
            self.tracer.install(self.targets)
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.elapsed = time.perf_counter() - started
            if traced:
                self.tracer.uninstall()
                self.tracer.request = None
            self.units.append(record)

    def fail(self, phase, message, count=1):
        self.failed[phase] += count
        if len(self.problems) < 20:
            self.problems.append(f"{phase}: {message}")

    def _fresh_dir(self, label):
        self._dirs += 1
        path = os.path.join(self.workdir, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def catalog(self):
        return self.warehouse.catalog()

    def phase_units(self, phase):
        return [unit for unit in self.units if unit.phase == phase]

    def _settle(self):
        """Collect garbage between units (untimed; its cost is metadata)."""
        started = time.perf_counter()
        gc.collect()
        self.timeline["collect"] = self.timeline.get("collect", 0.0) + time.perf_counter() - started

    def _mark(self, step):
        """Add the wall time since the last mark to ``step`` (metadata)."""
        now = time.perf_counter()
        self.timeline[step] = self.timeline.get(step, 0.0) + now - self._last_mark
        self._last_mark = now

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self):
        self._time_imports()
        self._mark("imports")
        self.warehouse = workloads.generate(self.spec, self.seed)
        self.sql_dir = self._fresh_dir("sql")
        for name, sql in self.warehouse.views.items():
            with open(os.path.join(self.sql_dir, f"{name}.sql"), "w", encoding="utf-8") as handle:
                handle.write(sql)
        # the daemon's corpus: each round's boot preloads it, and the
        # round's deltas extend it
        self.corpus = dict(self.warehouse.views)
        self._mark("corpus")
        for round_index in range(self.spec.rounds):
            self._round(round_index)
        self.peak_rss = peak_rss_mb()
        self.counts["fresh.dirty_entries"] = statistics.fmean(self._dirty)
        self.counts["impact.answers"] = self._answers
        statements, skipped, applied = self._stream_totals
        self.counts["stream.absorbed_ratio"] = skipped / statements if statements else 0.0
        self.counts["stream.applied"] = applied
        self.digests["log"] = self._log_digest.hexdigest()

        # references, outside every timed window
        if graph_to_csv(self._one_shot(self.corpus)) != self.daemon_csv:
            self.fail("fresh", "daemon graph differs from a one-shot extraction of the final corpus")
        if graph_to_csv(self._one_shot(self.log_path)) != self.stream_csv:
            self.fail("stream", "streamed graph differs from a one-shot load of the log")
        checked = (
            self.digests if self.seed == workloads.DEFAULT_SEED
            else {"corpus": self.pinned_corpus}
        )
        for name in workloads.check_pins(self.spec, checked):
            self.fail("setup", f"pinned input {name!r} changed: the generator output drifted")
        self._mark("references")

    def _one_shot(self, source):
        """The graph of a one-shot extraction of ``source`` (a reference)."""
        with LineageSession(source, catalog=self.catalog(), cache_dir=self.reference_store) as session:
            return session.extract().graph

    def _time_imports(self):
        for _ in range(IMPORT_REPS):
            self.attempted["setup"] += 1
            probe = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, self.src_dir],
                capture_output=True, text=True, timeout=120, check=False,
            )
            if probe.returncode != 0:
                self.fail("setup", f"import repro failed: {probe.stderr.strip()[-200:]}")
                continue
            self.setup["import"].append(float(probe.stdout.strip().splitlines()[-1]))

    # ------------------------------------------------------------------
    # cold and warm extractions
    # ------------------------------------------------------------------
    def _extraction(self, phase, store_dir):
        """One timed ``LineageSession(...).extract()`` over the sql dir."""
        self._settle()
        catalog = self.catalog()
        with self.unit(phase, len(self.phase_units(phase))):
            session = LineageSession(self.sql_dir, catalog=catalog, cache_dir=store_dir)
            result = session.extract()
        session.close()
        self.rss[phase] = current_rss_mb()
        self.attempted[phase] += self.spec.views
        unresolved = len(result.report.unresolved)
        if unresolved:
            self.fail(phase, f"{unresolved} unresolved entries", unresolved)
        return result

    def _round(self, round_index):
        """One round; its warm extractions are spread between the phases.

        The cold extraction fills an empty store that serves only this
        round's warm extractions: the first right after it, the second
        after the daemon, the rest after the streamer.  The first round
        derives the inputs from its cold graph, checks it against its
        first warm graph, and then copies the store twice: one copy for
        the daemons and streamers, one for the references.
        """
        first = round_index == 0
        store = self._fresh_dir("store")
        cold = self._extraction("cold", store)
        cold_csv = None
        if first:
            self._derive_inputs(cold.graph)
            cold_csv = graph_to_csv(cold.graph)
        cold = None
        self._warm(store, check_csv=cold_csv)
        if first:
            # the references warm-start from a copy that holds only records
            # the cold extraction wrote and the warm check verified
            self.store_dir = os.path.join(self._fresh_dir("serve"), "store")
            shutil.copytree(store, self.store_dir)
            self.reference_store = os.path.join(self._fresh_dir("reference"), "store")
            shutil.copytree(store, self.reference_store)
        self._mark("extractions")
        asyncio.run(self._serve(round_index))
        self._mark("daemon")
        if self.spec.warm_reps > 1:
            self._warm(store)
            self._mark("extractions")
        self._stream(round_index)
        self._mark("stream")
        for _ in range(2, self.spec.warm_reps):
            self._warm(store)
        self._mark("extractions")
        shutil.rmtree(store)

    def _warm(self, store, check_csv=None):
        """One warm extraction over ``store``; asserts a 100% splice."""
        warm = self._extraction("warm", store)
        spliced = _spliced_from_store(warm.report)
        if spliced != self.spec.views:
            self.fail("warm", f"spliced {spliced} of {self.spec.views} entries from the store")
        if check_csv is not None and graph_to_csv(warm.graph) != check_csv:
            self.fail("warm", "warm graph differs from the cold graph")

    def _derive_inputs(self, graph):
        """Deltas and log lines from the first cold graph; their digests."""
        spec, seed = self.spec, self.seed
        fresh_targets, stream_targets = [], []
        if spec.delta_kind == "redefine":
            fresh_targets, stream_targets = workloads.redefinition_targets(
                spec, self.warehouse, graph, seed
            )
        self.deltas = workloads.deltas(spec, self.warehouse, graph, seed, fresh_targets)
        self.log_initial, self.log_chunks = workloads.stream_log(
            spec, self.warehouse, seed, stream_targets
        )
        self._log_digest = hashlib.sha256("".join(self.log_initial).encode("utf-8"))
        self.digests["corpus"] = workloads.corpus_digest(self.warehouse)
        self.digests["deltas"] = workloads.digest(self.deltas)
        if seed != workloads.DEFAULT_SEED:
            # another seed still proves the generator unchanged on the pinned one
            default = workloads.generate(spec, workloads.DEFAULT_SEED)
            self.pinned_corpus = workloads.corpus_digest(default)

    # ------------------------------------------------------------------
    # the daemon: a boot, reads, the round's deltas, reads
    # ------------------------------------------------------------------
    async def _boot(self):
        self._settle()
        journal_dir = self._fresh_dir("journal")
        catalog = self.catalog()
        self.attempted["setup"] += 1
        started = time.perf_counter()
        app = LineageApp(catalog=catalog, cache_dir=self.store_dir, journal_dir=journal_dir)
        app.batcher.start()
        await app.preload(self.corpus)
        address = await app.start("127.0.0.1", 0)
        self.setup["boot"].append(time.perf_counter() - started)
        report = app.session.result.report
        spliced = _spliced_from_store(report)
        if spliced != len(self.corpus) or report.unresolved:
            self.fail("setup", f"boot spliced {spliced} of {len(self.corpus)} entries")
        return app, address

    async def _serve(self, round_index):
        """One daemon: a boot, then the round's deltas, with a group of
        reads before each delta and after the last.

        The starts come from the first daemon's snapshot 1, and the last
        daemon's final graph is kept for the reference check.
        """
        app, (host, port) = await self._boot()
        if not round_index:
            # starts come from snapshot 1 (the corpus), stratified by answer size
            self.starts = workloads.impact_starts(app.snapshots.current().graph, self.seed)
            self.digests["starts"] = workloads.digest(self.starts)
            self._checked = set(random.Random(f"bfs-check:{self.seed}").sample(
                range(len(self.starts)), min(BFS_CHECKS, len(self.starts))
            ))
        total, rounds = self.spec.deltas, self.spec.rounds
        end = (round_index + 1) * total // rounds
        client = Client()
        await client.connect(host, port)
        try:
            self._settle()
            for index in range(round_index * total // rounds, end):
                # groups are numbered in run order: this round's come after
                # every earlier round's deltas and final groups
                await self._read_group(app, client, index + round_index)
                statements = self.deltas[index]
                self._dirty.append(await self._delta(client, index, statements))
                self.corpus.update(statements)
            self.rss["fresh"] = current_rss_mb()
            await self._read_group(app, client, end + round_index)
            if round_index == self.spec.rounds - 1:
                self.daemon_csv = graph_to_csv(app.snapshots.current().graph)
        finally:
            await client.close()
            await app.stop()

    async def _read_group(self, app, client, group):
        """Every ``groups``-th start from ``group``, on the quiescent snapshot.

        A run has one group before each delta and one after each round's
        last, so the reads interleave with the deltas of every round.
        """
        groups = self.spec.deltas + self.spec.rounds
        kept = {}
        for index in range(group, len(self.starts), groups):
            self._answers.append(
                await self._read(client, index, kept if index in self._checked else None)
            )
        snapshot = app.snapshots.current()
        for index, body in sorted(kept.items()):
            self._check_answer(snapshot, self.starts[index], body)

    async def _delta(self, client, index, statements):
        """One timed ``POST /extract``; returns the entries it re-extracted."""
        self.attempted["fresh"] += 1
        with self.unit("fresh", index):
            status, body = await client.post("/extract", {"statements": statements})
        if status != 200:
            self.fail("fresh", f"POST /extract answered {status}")
            return 0
        payload = json.loads(body)
        rows = payload["statements"]
        batch = payload.get("batch", {})
        if any(row["status"] != "extracted" for row in rows) or batch.get("unresolved"):
            self.fail("fresh", f"delta {index} not extracted cleanly: {rows}")
        return batch.get("extracted", 0)

    async def _read(self, client, index, keep=None):
        """One timed ``GET /impact`` of start ``index``; returns the answer's
        column count.

        Units are numbered in read order, so traced and untraced reads
        alternate within every block.  The body is stored in ``keep`` (by
        start index) when given.
        """
        column = self.starts[index]
        self.attempted["impact"] += 1
        with self.unit("impact", len(self._answers)):
            status, body = await client.get("/impact?column=" + quote(column, safe=""))
        if status != 200:
            self.fail("impact", f"GET /impact?column={column} answered {status}")
            return 0
        if keep is not None:
            keep[index] = body
        return body.count(b'"kind":')

    def _check_answer(self, snapshot, column, body):
        """Compare one served answer with the BFS reference on ``snapshot``."""
        payload = json.loads(body)
        served = [(row["table"], row["column"], row["kind"]) for row in payload["columns"]]
        expected = impact_analysis(snapshot.graph, column, method="bfs").to_rows()
        if payload["snapshot_version"] != snapshot.version or served != expected:
            self.fail("impact", f"/impact answer for {column} differs from BFS")

    # ------------------------------------------------------------------
    # the query-log streamer: a bootstrap, then drains of appended chunks
    # ------------------------------------------------------------------
    def _stream(self, round_index):
        """A fresh log and streamer, then the round's chunks one by one.

        The last round's end state is kept for the reference check.
        """
        self._settle()
        log_dir = self._fresh_dir("log")
        self.log_path = os.path.join(log_dir, "query.jsonl")
        with open(self.log_path, "w", encoding="utf-8") as handle:
            handle.writelines(self.log_initial)
        catalog = self.catalog()
        self.attempted["setup"] += 1
        started = time.perf_counter()
        session = LineageSession(catalog=catalog, cache_dir=self.store_dir)
        try:
            streamer = session.stream_log(
                self.log_path, offset_path=os.path.join(log_dir, "offset.json")
            )
            streamer.run()
            self.setup["stream_bootstrap"].append(time.perf_counter() - started)
            if streamer.statements != len(self.log_initial) or session.result.report.unresolved:
                self.fail("setup", f"stream bootstrap consumed {streamer.statements} lines")
            for _ in range(self.spec.stream_chunks):
                self._drain(round_index, streamer)
                if session.result.report.unresolved:
                    self.fail("stream", "unresolved entries after a drain")
            self.rss["stream"] = current_rss_mb()
            if round_index == self.spec.rounds - 1:
                self.stream_csv = graph_to_csv(session.result.graph)
        finally:
            session.close()

    def _drain(self, round_index, streamer):
        """Append the next chunk to the log and drain it, one timed unit per
        ``QueryLogStreamer.step()``."""
        chunk_round, chunk = next(self.log_chunks)
        if chunk_round != round_index:
            raise RuntimeError(f"log chunk of round {chunk_round} drawn in round {round_index}")
        self._log_digest.update("".join(chunk).encode("utf-8"))
        before = (streamer.statements, streamer.skipped_statements, streamer.applied_statements)
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.writelines(chunk)
        self.attempted["stream"] += len(chunk)
        started = time.perf_counter()
        while True:
            with self.unit("stream", self._stream_steps) as unit:
                report = streamer.step()
            self._stream_steps += 1
            unit.work = report["consumed"]
            unit.refreshed = bool(report["applied"])
            if not report["consumed"]:
                break
        self.stream_drains.append(time.perf_counter() - started)
        consumed = streamer.statements - before[0]
        self._stream_totals[0] += consumed
        self._stream_totals[1] += streamer.skipped_statements - before[1]
        self._stream_totals[2] += streamer.applied_statements - before[2]
        if consumed != len(chunk):
            self.fail("stream", f"drained {consumed} of {len(chunk)} appended lines")
