"""The ingest side of the daemon: deduped, journaled, fault-isolated.

All writes funnel through one :class:`IngestBatcher`.  ``POST /extract``
handlers call :meth:`submit` and await the result; a single ingest task
turns the queue into micro-batches by *group commit* (DeWitt et al.,
SIGMOD 1984): it takes the first request and everything already queued
behind it, with no fixed window, and hands the batch to the shared
ingest core (:mod:`repro.ingest`) in a worker thread so the event loop
keeps serving reads.  A lone request starts at once; requests that
arrive while a batch runs wait in the queue and form the next one,
sharing its journal fsync.  The loop keeps its clients' pace: after a
batch that answered n requests, it waits until n are queued again, but
never longer than that batch took, so closed-loop writers answered
together stay in one batch.

Deduplication keys on the **(view name, statement text)** pair, checked
before any parsing against the session's record of applied text
(:attr:`~repro.session.LineageSession.statements`); the batcher keeps no
bookkeeping of its own:

* a pair the session already holds is a *duplicate*: it is answered at
  once and never reaches the parser (this is the cheap path that makes
  duplicate-heavy workloads an order of magnitude faster than unique
  ones);
* the same pair submitted twice inside one micro-batch (two concurrent
  clients racing the same statement, queued together while the previous
  batch ran) is *coalesced*: one extraction, both requests get the
  answer;
* a known view name arriving with new text is a *redefinition*: once it
  lands, the old text would extract again if resubmitted.

The name is part of the key because the ``{name: sql}`` mapping can
legitimately carry the same text under two names (dbt-style passthrough
models are bare identical SELECTs): each name is its own view and must
extract, so only an exact (name, text) repeat is skippable.

Durability: when a :class:`~repro.server.journal.IngestJournal` is
attached, every *accepted novel* statement is appended and fsync'd
before extraction starts — a SIGKILL after the append loses nothing,
because boot replays the journal through :meth:`replay` (not
re-journaled: those entries are already durable).  The journal
checkpoint advances after each batch publishes, which is what makes old
segments eligible for compaction.  A journal append that cannot be made
durable fails the batch with a *retryable* :class:`ExtractionFailed`
(the HTTP layer maps it to 503) — the daemon never acknowledges a
statement it could not journal.  Because journaling happens *before*
extraction, a statement that then quarantines is tombstoned in the
journal (:meth:`~repro.server.journal.IngestJournal.mark_quarantined`),
so replay and compaction fall back to the name's last *published*
definition instead of resurrecting text that never made it into the
graph; if the tombstone cannot be made durable, the checkpoint is held
below the quarantined offset so compaction cannot discard the fallback.

Failure domain: **per statement**, not per batch.  Each micro-batch goes
through the shared ingest core (:func:`repro.ingest.apply`): one refresh
when the batch is clean, bisection down to the poison when it is not.
The failures land in the :class:`~repro.quarantine.Quarantine` (their
response rows carry status ``quarantined`` plus a structured error and a
backoff hint) while the survivors publish normally, and a name whose
newest version quarantined keeps its previous one.  A pair still inside
its backoff window is rejected at classification time without burning a
parse.  Duplicate-only requests are answered before extraction starts
and are unaffected by any of this.

Overload: ``max_pending`` bounds the ingest queue — beyond it
:meth:`submit` sheds with :class:`OverloadedError` (503 + Retry-After on
the wire) instead of buffering unboundedly.  ``max_batch_statements``
splits oversized micro-batches into chunks that extract and publish
separately, so one giant request cannot stall the loop (readers see
intermediate snapshots, which is the point).
"""

import asyncio
import time

from .journal import JournalError
from .. import ingest
from ..quarantine import Quarantine
from ..sources.base import content_hash
from ..testing import faults


_SHUTDOWN = object()


class _PendingRequest:
    """One awaiting ``POST /extract`` call: its statements and its future."""

    __slots__ = ("statements", "future", "journal")

    def __init__(self, statements, future, journal=True):
        self.statements = statements  # [(name, sql, hash)] in request order
        self.future = future
        self.journal = journal        # False for preload/replay (already durable)


class IngestBatcher:
    """Serialises all graph writes into hash-deduped micro-batches."""

    def __init__(self, session, snapshots, executor=None, journal=None,
                 quarantine=None, max_pending=0, max_batch_statements=0):
        self._session = session
        self._snapshots = snapshots
        self._executor = executor
        self._journal = journal
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self._max_pending = int(max_pending or 0)
        self._max_batch_statements = int(max_batch_statements or 0)
        self._queue = asyncio.Queue()
        self._task = None
        self._stopping = False
        # the session result the current snapshot was frozen from: while
        # a failed publish leaves the session ahead of its readers, no
        # pair counts as a duplicate, so the next batch republishes
        self._published = session.result
        # journal offsets that quarantined but whose tombstone could not
        # be made durable yet: re-marked every batch, and the checkpoint
        # is clamped below them until the marks stick (compaction past an
        # unmarked poison offset would discard its fallback definition)
        self._unmarked_quarantined = set()
        # the last client batch: how many requests it answered and how
        # long it took, from journal append to reply (group commit's pace)
        self._last_batch_requests = 0
        self._last_batch_seconds = 0.0
        self.counters = {
            "requests": 0,
            "statements": 0,
            "extracted": 0,
            "duplicate": 0,
            "coalesced": 0,
            "batches": 0,
            "batch_failures": 0,
            "batch_splits": 0,
            "quarantined": 0,
            "quarantine_blocked": 0,
            "shed": 0,
            "deadline_exceeded": 0,
            "journal_entries": 0,
            "journal_failures": 0,
            "replayed": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self._task

    async def stop(self):
        """Drain queued work, then stop the ingest task."""
        if self._task is None:
            return
        self._stopping = True
        await self._queue.put(_SHUTDOWN)
        await self._task
        self._task = None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    async def submit(self, statements, journal=True):
        """Queue ``{name: sql}`` for extraction; await the batch outcome.

        Returns ``{"statements": [...], "snapshot_version": int, ...}``
        with a per-statement status (``extracted`` / ``duplicate`` /
        ``coalesced`` / ``quarantined``), or raises the batch's error.
        ``journal=False`` marks internal traffic (preload, journal
        replay) that must not be re-journaled and is never shed.
        """
        if self._stopping:
            raise RuntimeError("server is shutting down")
        if journal and self._max_pending and self._queue.qsize() >= self._max_pending:
            self.counters["shed"] += 1
            raise OverloadedError(
                f"ingest queue full ({self._max_pending} pending requests)",
                retry_after=self._retry_after_hint(),
            )
        return await self._enqueue(
            [(str(name), sql, content_hash(sql)) for name, sql in statements.items()],
            journal,
        )

    async def replay(self, entries):
        """Feed journal entries ``[(offset, name, sql, hash)]`` back through
        ingest in offset order (not re-journaled).

        The whole journal goes in as ONE batch (last definition per name
        wins): nobody reads intermediate snapshots during boot, and a
        single batch extracts with full dependency context, so its store
        keys line up with the original ingest's and the replay splices
        warm instead of re-parsing.  Chunked replay was measured at ~5x
        slower on a 10k-statement journal for exactly that reason.

        A definition that quarantines during replay (a poison
        redefinition the crash caught journaled-but-unmarked) falls back
        to the name's next-most-recent journaled definition, so recovery
        converges on the last definition that actually *published*
        instead of losing the name from the graph entirely.  Returns how
        many definitions were tried: each name's latest, plus every one a
        quarantined definition fell back to.
        """
        result = await self._enqueue(
            [(name, sql, digest) for _offset, name, sql, digest in entries],
            journal=False,
        )
        rows = result["statements"]
        total = sum(1 for row in rows if row["status"] == "quarantined") + len(
            {row["name"] for row in rows if row["status"] != "quarantined"}
        )
        self.counters["replayed"] += total
        return total

    async def _enqueue(self, statements, journal):
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(_PendingRequest(statements, future, journal))
        return await future

    def _retry_after_hint(self):
        """A Retry-After guess: the whole queue joins the next batch, so
        the backlog drains in about one batch."""
        return max(1.0, self._last_batch_seconds)

    # ------------------------------------------------------------------
    # ingest loop
    # ------------------------------------------------------------------
    async def _run(self):
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                break
            # group commit: the batch is this request and whatever queued
            # behind it while the previous batch ran, so a lone writer
            # never waits.  Clients answered together tend to come back
            # together, though: after a batch that answered n requests,
            # wait until n are queued, but no longer than that batch took
            # (what running the stragglers as a batch of their own would
            # cost).  Without it, closed-loop writers split into two
            # batches that alternate, each paying the per-batch cost.
            pending = [item]
            done = False
            deadline = loop.time() + self._last_batch_seconds
            while True:
                if self._queue.empty():
                    remaining = deadline - loop.time()
                    if len(pending) >= self._last_batch_requests or remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                else:
                    extra = self._queue.get_nowait()
                if extra is _SHUTDOWN:
                    done = True
                    break
                pending.append(extra)
            try:
                await self._process(pending)
            except Exception as error:  # noqa: BLE001 - loop must survive
                # a bug past the per-statement isolation (publish,
                # bookkeeping) must not kill the ingest task: fail this
                # batch's still-unresolved futures and keep serving
                self.counters["batch_failures"] += 1
                failure = ExtractionFailed(f"{type(error).__name__}: {error}")
                for request in pending:
                    if not request.future.done():
                        request.future.set_exception(failure)
            if done:
                break

    async def _process(self, pending):
        """Assemble one micro-batch from ``pending`` requests and run it."""
        # while a failed publish leaves the session ahead of its readers,
        # nothing counts as applied
        behind = self._session.result is not self._published
        known = {} if behind else self._session.statements
        versions = {}         # name -> [sql, ...]: the novel statements, in order
        staged = {}           # name -> hash staged last by this batch (coalescing)
        journal_entries = []  # (name, sql, hash) needing a journal entry, in order
        waiting = []          # requests that contributed novel statements
        statuses = {}         # id(request) -> per-statement status rows
        for request in pending:
            rows = []
            novel = False
            for name, sql, digest in request.statements:
                self.counters["statements"] += 1
                blocked = self.quarantine.blocked_for(name, digest)
                if blocked is not None:
                    # still in backoff: reject up front, no parse burned
                    entry = self.quarantine.get(name, digest)
                    self.counters["quarantine_blocked"] += 1
                    rows.append(
                        {
                            "name": name,
                            "status": "quarantined",
                            "hash": digest[:12],
                            "error": entry.error,
                            "retry_after_seconds": round(blocked, 3),
                        }
                    )
                    continue
                # the dedupe key is the (name, text) pair: identical text
                # under a different name is a distinct view, not a dupe
                if known.get(name) == sql:
                    status = "duplicate"
                    self.counters["duplicate"] += 1
                elif staged.get(name) == digest:
                    status = "coalesced"
                    self.counters["coalesced"] += 1
                    novel = True  # outcome depends on this batch
                else:
                    status = "extracted"
                    self.counters["extracted"] += 1
                    if request.journal:
                        journal_entries.append((name, sql, digest))
                    staged[name] = digest
                    versions.setdefault(name, []).append(sql)
                    novel = True
                rows.append({"name": name, "status": status, "hash": digest[:12]})
            self.counters["requests"] += 1
            statuses[id(request)] = rows
            if novel:
                waiting.append(request)
            else:
                # pure-duplicate (or fully quarantine-blocked) request:
                # answered without touching the parser or waiting for the
                # batch — the dedupe fast path
                request.future.set_result(
                    self._result_payload(rows, report=None)
                )

        if not waiting:
            return

        self.counters["batches"] += 1
        loop = asyncio.get_running_loop()
        started = time.monotonic()

        # ---- durability first: journal every accepted novel statement
        # (fsync'd) before any extraction work starts
        max_offset = None
        journal_offsets = {}  # (name, hash) -> its journal offset this batch
        if self._journal is not None and journal_entries:
            try:
                offsets = await loop.run_in_executor(
                    self._executor, self._journal.append_batch, journal_entries
                )
            except JournalError as error:
                # could not promise durability: refuse the whole batch
                # with a retryable error (503 on the wire) — never
                # acknowledge what the journal did not accept
                self.counters["journal_failures"] += 1
                self.counters["batch_failures"] += 1
                failure = ExtractionFailed(
                    f"journal append failed: {error}", retryable=True
                )
                for request in waiting:
                    if not request.future.done():
                        request.future.set_exception(failure)
                return
            self.counters["journal_entries"] += len(offsets)
            journal_offsets = {
                (name, digest): offset
                for (name, _sql, digest), offset in zip(journal_entries, offsets)
            }
            max_offset = offsets[-1] if offsets else None

        # ---- extraction, chunked so one oversized batch cannot stall
        # the loop: each chunk refreshes, freezes, and publishes on its
        # own (readers see intermediate snapshots — by design).  Internal
        # batches (journal=False: boot replay, preload) are never split —
        # chunk boundaries change dependency context and store keys,
        # which is exactly what makes chunked replay ~5x slower (see
        # replay()), and nobody reads intermediate snapshots during boot.
        items = list(versions.items())
        size = self._max_batch_statements
        splittable = all(request.journal for request in waiting)
        if size and splittable and len(items) > size:
            chunks = [items[i:i + size] for i in range(0, len(items), size)]
            self.counters["batch_splits"] += len(chunks) - 1
        else:
            chunks = [items]

        failed = {}   # (name, hash) -> {"error": payload, "retry_after_seconds": s}
        report = None
        for chunk in chunks:
            chunk_failed, result, snapshot = await loop.run_in_executor(
                self._executor, self._apply_and_freeze, dict(chunk)
            )
            failed.update(chunk_failed)
            if snapshot is not None:
                # publish: a client that sees "extracted" can immediately
                # read its lineage
                self._snapshots.install(snapshot)
                self._published = result
                report = result.report

        if failed:
            self.counters["quarantined"] += len(failed)
            self.counters["batch_failures"] += 1

        # ---- tombstone journaled statements that quarantined instead of
        # publishing: without the mark, replay's and compaction's
        # latest-per-name selection would resurrect the poison text and
        # lose the name's last published definition across a crash
        checkpoint_offset = max_offset
        if self._journal is not None:
            self._unmarked_quarantined.update(
                journal_offsets[key] for key in failed if key in journal_offsets
            )
            if self._unmarked_quarantined:
                try:
                    await loop.run_in_executor(
                        self._executor,
                        self._journal.mark_quarantined,
                        sorted(self._unmarked_quarantined),
                    )
                    self._unmarked_quarantined.clear()
                except JournalError:
                    self.counters["journal_failures"] += 1
            if self._unmarked_quarantined and checkpoint_offset is not None:
                # the marks are not durable yet: hold the checkpoint
                # below the oldest unmarked quarantined offset so
                # compaction cannot fold away the prior published
                # definition the name must fall back to on replay (the
                # offsets stay in the retry set until a mark sticks)
                checkpoint_offset = min(
                    checkpoint_offset, min(self._unmarked_quarantined) - 1
                )

        # ---- checkpoint after publish: everything journaled this batch
        # has been processed (extracted, or quarantined and durably
        # marked), so the journal prefix is eligible for compaction
        if self._journal is not None and checkpoint_offset is not None \
                and checkpoint_offset >= 0:
            try:
                await loop.run_in_executor(
                    self._executor, self._journal.checkpoint, checkpoint_offset
                )
            except JournalError:
                # checkpoint advance is an optimisation (compaction
                # eligibility); failing it loses nothing but disk
                self.counters["journal_failures"] += 1

        if splittable:  # client traffic; preload and replay set no pace
            self._last_batch_requests = len(waiting)
            self._last_batch_seconds = time.monotonic() - started
        version = self._snapshots.version
        for request in waiting:
            if request.future.done():
                continue
            rows = statuses[id(request)]
            for (name, _sql, digest), row in zip(request.statements, rows):
                outcome = failed.get((name, digest))
                if outcome is not None and row["status"] in ("extracted", "coalesced"):
                    row["status"] = "quarantined"
                    row.update(outcome)
            request.future.set_result(self._result_payload(rows, report, version))

    def _apply_and_freeze(self, versions):
        """Worker-thread half of a batch: the ingest core, then a freeze.

        Returns ``(failed, result, snapshot)``, where ``failed`` is what
        :func:`repro.ingest.apply` quarantined and ``snapshot`` is
        ``None`` when the readers already see ``result``.  Freezing a
        large graph copies the relation map and builds the adjacency
        index, which would stall every read endpoint if it ran on the
        event loop; the loop only installs the snapshot (an atomic swap).
        """
        faults.fire("batcher.refresh")
        failed, _ = ingest.apply(self._session, versions, self.quarantine)
        result = self._session.result
        if result is None or result is self._published:
            return failed, result, None
        snapshot = self._snapshots.prepare(
            result.graph, statement_names=self._session.statements
        )
        return failed, result, snapshot

    def _result_payload(self, rows, report, version=None):
        payload = {
            "statements": rows,
            "snapshot_version": (
                version if version is not None else self._snapshots.version
            ),
        }
        quarantined = sum(1 for row in rows if row["status"] == "quarantined")
        if quarantined:
            payload["quarantined"] = quarantined
        if report is not None:
            # counted by the scheduler in the worker thread, not per name here
            origins = getattr(report, "reused_counts", None) or {}
            payload["batch"] = {
                "extracted": len(getattr(report, "order", ()) or ()),
                "reused_from_memory": origins.get("memory", 0),
                "reused_from_store": origins.get("store", 0),
                "unresolved": sorted(getattr(report, "unresolved", ()) or ()),
            }
        return payload

    def stats(self):
        counters = dict(self.counters)
        total = counters["statements"]
        skipped = counters["duplicate"] + counters["coalesced"]
        counters["dedupe_ratio"] = round(skipped / total, 4) if total else 0.0
        counters["known_statements"] = len(self._session.statements)
        counters["queue_depth"] = self._queue.qsize()
        counters["max_pending"] = self._max_pending
        counters["max_batch_statements"] = self._max_batch_statements
        return counters


class ExtractionFailed(RuntimeError):
    """A micro-batch failed.

    ``retryable`` marks failures where the statements themselves are fine
    but the daemon could not process them right now (journal write
    failure) — the HTTP layer answers 503 instead of 500 for those.
    """

    def __init__(self, message, retryable=False):
        super().__init__(message)
        self.retryable = retryable


class OverloadedError(RuntimeError):
    """The ingest queue is full; carries a Retry-After hint in seconds."""

    def __init__(self, message, retry_after=1.0):
        super().__init__(message)
        self.retry_after = retry_after
