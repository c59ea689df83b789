"""The persistent, content-addressed lineage store.

:class:`LineageStore` maps a cache key (see :mod:`repro.store.keys`) to a
serialized :class:`~repro.core.lineage.TableLineage` record behind an
SQLite backend with an in-memory LRU front.  It is what makes extraction
results survive the process: a fresh session over an unchanged corpus
splices every entry straight from disk instead of re-parsing and
re-extracting it.

Design points:

* **cache, not database** — every failure mode (missing file, corrupted
  database, malformed JSON, record-version skew) degrades to a cold miss
  or a dropped write, never an exception on the extraction path.  The
  degradation is not *silent*: I/O failures are retried with jittered
  backoff, counted (``error_misses`` / ``dropped_writes`` in
  :meth:`LineageStore.stats`), logged at WARNING on first occurrence, and
  repeated failures trip a circuit breaker — further I/O short-circuits
  to the degraded path for a cooldown instead of paying timeouts, and
  :meth:`LineageStore.health` reports the store ``degraded`` (the serving
  daemon's ``/health`` surfaces this);
* **LRU front** — hot records are served from memory as decoded record
  dicts; each hit still constructs a fresh ``TableLineage``, so callers
  can mutate what they are given without poisoning the cache;
* **deferred usage updates** — reads only note the key; the runner calls
  ``flush()`` once per run (``close()`` flushes too) to write the
  ``last_used_at`` / ``use_count`` bookkeeping in one batch.

On-disk layout: one SQLite file, ``<cache_dir>/lineage.sqlite``, behind
one connection, one lock and one circuit breaker.  No other file in the
directory is read, so a directory written by an older layout opens as a
cold cache and its files are left as they are.
"""

import json
import logging
import os
import random
import sqlite3
import threading
import time

from ..core.errors import LineageRecordError
from ..core.lineage import TableLineage
from ..testing import faults

_LOGGER = logging.getLogger("repro.store")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS lineage_records (
    cache_key          TEXT PRIMARY KEY,
    content_hash       TEXT NOT NULL,
    dialect            TEXT NOT NULL,
    extractor_version  TEXT NOT NULL,
    schema_fingerprint TEXT NOT NULL,
    record             TEXT NOT NULL,
    created_at         REAL NOT NULL,
    last_used_at       REAL NOT NULL,
    use_count          INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_lineage_last_used
    ON lineage_records (last_used_at);
CREATE INDEX IF NOT EXISTS idx_lineage_content_hash
    ON lineage_records (content_hash);
CREATE TABLE IF NOT EXISTS source_records (
    source_key   TEXT PRIMARY KEY,
    record       TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_source_last_used
    ON source_records (last_used_at);
CREATE TABLE IF NOT EXISTS superseded_marks (
    content_hash TEXT PRIMARY KEY,
    marked_at    REAL NOT NULL
);
"""

#: filename of the SQLite database inside the cache directory.
STORE_FILENAME = "lineage.sqlite"

#: concurrent readers/writers on the file wait this long for a lock
#: before giving up (and degrading to a cold miss / dropped write) instead
#: of failing instantly with "database is locked".
BUSY_TIMEOUT_MS = 10_000

#: batch width of ``IN (...)`` reads (SQLite's default variable limit is
#: 999; 400 leaves comfortable headroom).
_CHUNK = 400

#: I/O retries after the first failure (transient lock contention /
#: injected faults get a second and third chance before degrading).
RETRY_ATTEMPTS = 2

#: jittered backoff window per retry, milliseconds (scaled by attempt).
RETRY_BACKOFF_MS = (5.0, 25.0)

#: consecutive failures (after retries) that trip the breaker.
BREAKER_THRESHOLD = 5

#: seconds a tripped breaker short-circuits I/O before allowing a probe.
BREAKER_COOLDOWN_S = 30.0

#: backoff jitter source — timing only, never outcome, so it is fine for
#: this to be nondeterministic even under a seeded fault plan.
_BACKOFF_RNG = random.Random()

class _LRU:
    """A tiny size-capped LRU over decoded record dicts."""

    def __init__(self, capacity):
        self.capacity = max(int(capacity), 0)
        self._entries = {}

    def get(self, key):
        value = self._entries.pop(key, None)
        if value is not None:
            self._entries[key] = value  # re-insert = most recent
        return value

    def put(self, key, value):
        if self.capacity <= 0:
            return
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.pop(next(iter(self._entries)))

    def clear(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)


class LineageStore:
    """Persistent ``cache_key -> TableLineage`` mapping (SQLite + LRU).

    Parameters
    ----------
    cache_dir:
        Directory holding the store (created on first write or read).
    lru_size:
        Capacity of the in-memory front (record count); ``0`` disables it.
    """

    def __init__(self, cache_dir, lru_size=2048):
        self.cache_dir = os.fspath(cache_dir)
        #: the SQLite file holding every record
        self.path = os.path.join(self.cache_dir, STORE_FILENAME)
        self._lru = _LRU(lru_size)
        self._lock = threading.Lock()   # guards the connection and breaker
        self._connection = None
        self._broken = False            # the file could not be opened
        self._closed = False
        # circuit breaker
        self._failures = 0              # consecutive failed operations
        self._open_until = 0.0          # monotonic deadline while open
        self._trips = 0                 # closed -> open transitions
        self._warned = False            # first-failure WARNING emitted
        # usage tracking is batched: reads only note the key here and
        # flush() writes last_used_at/use_count in one executemany
        self._meta_lock = threading.Lock()
        self._used_keys = set()
        self._used_source_keys = set()
        # session counters (not persisted)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.error_misses = 0     # cold misses caused by I/O errors
        self.dropped_writes = 0   # writes lost to I/O errors

    def _connect(self):
        """The live connection, opened on first use (``None`` once closed
        or when the file cannot be opened).

        Callers must hold ``self._lock``.  The connection gets WAL journal
        mode (readers never block the writer) and a busy timeout, so
        concurrent access from several processes — parallel sessions over
        one cache directory — waits for locks instead of erroring out.
        """
        if self._connection is not None or self._broken or self._closed:
            return self._connection
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            connection = sqlite3.connect(self.path, check_same_thread=False)
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            connection.executescript(_SCHEMA)
            connection.commit()
            self._connection = connection
        except (sqlite3.Error, OSError):
            # an unusable backing file turns the store into a pass-through
            self._broken = True
        return self._connection

    # ------------------------------------------------------------------
    # Fault-hardened I/O
    # ------------------------------------------------------------------
    def _io(self, kind, operation):
        """Run ``operation(connection)`` under the store lock with fault
        injection, bounded jittered retry, and circuit-breaker accounting.

        ``kind`` is ``"read"`` or ``"write"`` — it picks which degraded
        counter a failure lands in.  Returns ``(ok, result)``; ``ok``
        False means the caller must degrade (cold miss / dropped write).
        A closed store, or one whose file cannot be opened, passes
        through uncounted; any other failure has already been counted
        and, if it crossed the threshold, has tripped the breaker.  While
        the breaker is open the operation is not attempted at all: a file
        that is timing out repeatedly must not make every request pay its
        busy timeout.  After the cooldown one probe is allowed through;
        its success closes the breaker, its failure re-arms the cooldown.

        Every failed attempt rolls the connection back (a failed commit
        can leave the write transaction open, pinning the file's write
        lock and staging half-applied statements for whatever commits
        next) and the backoff sleep happens with the lock *released* —
        during a fault storm the other readers/writers must not queue
        behind a sleeping thread.  The lock is re-held when ``operation``
        runs.
        """
        with self._lock:
            connection = self._connect()
            if connection is None:
                return False, None
            if self._open_until > time.monotonic():
                self._count_degraded(kind)
                return False, None
            error = None
            for attempt in range(1 + RETRY_ATTEMPTS):
                if attempt:
                    low, high = RETRY_BACKOFF_MS
                    delay = (
                        (low + _BACKOFF_RNG.random() * (high - low))
                        * attempt / 1000.0
                    )
                    self._lock.release()
                    try:
                        time.sleep(delay)
                    finally:
                        self._lock.acquire()
                try:
                    faults.fire(f"store.{kind}")
                    result = operation(connection)
                except (sqlite3.Error, OSError, faults.InjectedFault) as caught:
                    error = caught
                    self._rollback_quietly()
                    continue
                self._failures = 0
                if self._open_until:
                    self._open_until = 0.0
                    _LOGGER.warning(
                        "lineage store %s recovered; circuit closed", self.path
                    )
                return True, result
            self._count_degraded(kind)
            was_closed = self._open_until == 0.0
            self._failures += 1
            if not self._warned:
                self._warned = True
                _LOGGER.warning(
                    "lineage store %s %s failed (degrading to %s): %s",
                    self.path, kind,
                    "cold miss" if kind == "read" else "dropped write", error,
                )
            if self._failures >= BREAKER_THRESHOLD:
                self._open_until = time.monotonic() + BREAKER_COOLDOWN_S
                if was_closed:
                    self._trips += 1
                    _LOGGER.warning(
                        "lineage store %s circuit breaker OPEN for %.0fs "
                        "after %d consecutive failures",
                        self.path, BREAKER_COOLDOWN_S, self._failures,
                    )
            return False, None

    def _rollback_quietly(self):
        """Abandon any transaction a failed operation left open (the
        connection may already be gone — every error is suppressed)."""
        connection = self._connection
        if connection is None:
            return
        try:
            connection.rollback()
        except (sqlite3.Error, OSError):
            pass

    def _count_degraded(self, kind):
        if kind == "write":
            self.dropped_writes += 1
        else:
            self.error_misses += 1

    def _breaker_open(self):
        return self._open_until > time.monotonic() or self._broken

    def health(self):
        """Cheap (no I/O, no locks) breaker state for ``/health``.

        ``status`` is ``degraded`` while the breaker is open or the file
        cannot be opened — extraction still works (cold path), but the
        cache is blind.
        """
        open_ = self._breaker_open()
        return {
            "status": "degraded" if open_ else "ok",
            "breaker": "open" if open_ else "closed",
            "broken": self._broken,
            "consecutive_failures": self._failures,
            "error_misses": self.error_misses,
            "dropped_writes": self.dropped_writes,
            "trips": self._trips,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Flush pending usage updates and release the database handle.

        Idempotent, and terminal: a closed store never reopens its
        connection — reads degrade to cold misses and writes are dropped
        (cache semantics).  This is what makes a store handle shared by
        many consumers (the serving daemon's batcher, concurrent reader
        threads) safe to tear down: a racing read that arrives after
        ``close()`` cannot resurrect a connection the shutdown path just
        released.
        """
        if self._closed:
            return
        self.flush()
        with self._lock:
            self._closed = True
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None
        self._lru.clear()

    @property
    def closed(self):
        """True once :meth:`close` has run (the store serves only misses)."""
        return self._closed

    def flush(self):
        """Write the batched usage updates in one transaction."""
        with self._meta_lock:
            keys, self._used_keys = self._used_keys, set()
            source_keys, self._used_source_keys = self._used_source_keys, set()
        if not keys and not source_keys:
            return
        now = time.time()
        with self._lock:
            connection = self._connect()
            if connection is None:
                return
            try:
                connection.executemany(
                    "UPDATE lineage_records SET last_used_at = ?, "
                    "use_count = use_count + 1 WHERE cache_key = ?",
                    [(now, key) for key in keys],
                )
                connection.executemany(
                    "UPDATE source_records SET last_used_at = ? "
                    "WHERE source_key = ?",
                    [(now, key) for key in source_keys],
                )
                connection.commit()
            except sqlite3.Error:
                self._rollback_quietly()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # ------------------------------------------------------------------
    # The cache surface
    # ------------------------------------------------------------------
    def get(self, key):
        """The stored :class:`TableLineage` for ``key``, or ``None``.

        Every failure — no database, corrupted row, malformed JSON, record
        version mismatch — is a silent cold miss.
        """
        record = self._lru.get(key)
        if record is None:
            record = self._fetch(key)
            if record is None:
                self.misses += 1
                return None
            self._lru.put(key, record)
        try:
            lineage = TableLineage.from_record(record)
        except LineageRecordError:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        with self._meta_lock:
            self._used_keys.add(key)
        return lineage

    def _select_in(self, sql, values):
        """The rows of ``sql`` (one ``IN ({})`` slot) over ``values``, one
        SELECT per :data:`_CHUNK` values; ``None`` when the read degrades."""

        def _read(connection):
            rows = []
            for start in range(0, len(values), _CHUNK):
                batch = values[start:start + _CHUNK]
                rows.extend(
                    connection.execute(
                        sql.format(",".join("?" * len(batch))), batch
                    ).fetchall()
                )
            return rows

        ok, rows = self._io("read", _read)
        return rows if ok else None

    def prime(self, content_hashes):
        """Bulk-load every record matching ``content_hashes`` into the LRU;
        return the set of those hashes that have a record.

        A run looks an entry up only once the column lists it reads are
        known, one key at a time, but the *content hashes* of every entry
        it may look up are known up front: one batched SELECT per chunk
        replaces a point query per entry, and a hash outside the returned
        set needs no lookup at all.  Returns ``None`` when nothing was
        read (the LRU front is off, or the read degraded): then no hash is
        known to be absent, and every key still resolves through
        :meth:`get`.
        """
        if self._lru.capacity <= 0:
            return None
        hashes = [str(value) for value in content_hashes]
        if not hashes:
            return set()
        rows = self._select_in(
            "SELECT cache_key, content_hash, record FROM lineage_records "
            "WHERE content_hash IN ({})",
            hashes,
        )
        if rows is None:
            return None
        found = set()
        for key, content_hash, text in rows:
            try:
                record = json.loads(text)
            except (TypeError, ValueError):
                self.corrupt += 1
                continue
            if isinstance(record, dict):
                self._lru.put(key, record)
                found.add(content_hash)
        return found

    def _fetch(self, key):
        """The decoded record stored under one cache key, or ``None``."""
        ok, row = self._io(
            "read",
            lambda connection: connection.execute(
                "SELECT record FROM lineage_records WHERE cache_key = ?", (key,)
            ).fetchone(),
        )
        if not ok or row is None:
            return None
        try:
            record = json.loads(row[0])
        except (TypeError, ValueError):
            self.corrupt += 1
            return None
        return record if isinstance(record, dict) else None

    def put(self, key, lineage, *, content_hash="", dialect="",
            extractor_version="", schema_fingerprint=""):
        """Store ``lineage`` under ``key`` (best-effort; committed per write).

        The individual key components are persisted alongside the record
        for observability (``cache stats``) and targeted invalidation;
        they do not participate in lookups — the combined ``key`` does.
        """
        meta = {
            "content_hash": content_hash,
            "dialect": dialect,
            "extractor_version": extractor_version,
            "schema_fingerprint": schema_fingerprint,
        }
        return self.put_many([(key, lineage, meta)]) == 1

    def put_many(self, rows):
        """Store many records in one transaction; returns #written.

        ``rows`` is an iterable of ``(key, lineage, meta)`` where ``meta``
        is the keyword mapping :meth:`put` takes (``content_hash``,
        ``dialect``, ``extractor_version``, ``schema_fingerprint``).  This
        is the bulk-write path of a large cold run: serialisation happens
        up front, then a single ``executemany`` runs under one lock
        acquisition instead of a round trip per record.  Rows that fail to
        serialise are skipped (dropped-write semantics, like :meth:`put`).
        """
        now = time.time()
        batch = []
        decoded = []
        for key, lineage, meta in rows:
            try:
                record = lineage.to_record()
                # no sort_keys: JSON objects preserve insertion order in
                # Python, and the record's dict order (e.g. column ->
                # sources) is part of the loss-free round trip — reordering
                # it would make warm-spliced graphs render differently
                text = json.dumps(record)
            except (TypeError, ValueError):
                continue
            batch.append(
                (
                    key,
                    str(meta.get("content_hash", "")),
                    str(meta.get("dialect", "")),
                    str(meta.get("extractor_version", "")),
                    str(meta.get("schema_fingerprint", "")),
                    text,
                    now,
                    now,
                )
            )
            decoded.append((key, record))
        if not batch:
            return 0

        def _write(connection):
            connection.executemany(
                "INSERT OR REPLACE INTO lineage_records "
                "(cache_key, content_hash, dialect, extractor_version, "
                " schema_fingerprint, record, created_at, last_used_at, use_count) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                batch,
            )
            # a re-put definition is live again: clear any pending
            # superseded mark so compaction cannot evict it early
            connection.executemany(
                "DELETE FROM superseded_marks WHERE content_hash = ?",
                [(row[1],) for row in batch if row[1]],
            )
            # commit per write: under WAL + synchronous=NORMAL a commit is
            # lock release without an fsync, and holding an open write
            # transaction across puts would block every other handle's
            # writer until the busy timeout drops its write
            connection.commit()

        ok, _ = self._io("write", _write)
        if not ok:
            return 0
        for key, record in decoded:
            self._lru.put(key, record)
        self.puts += len(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # The parse cache (per-source preprocessing records)
    # ------------------------------------------------------------------
    def get_source(self, key):
        """The statement records of one source fragment, or ``None``."""
        ok, row = self._io(
            "read",
            lambda connection: connection.execute(
                "SELECT record FROM source_records WHERE source_key = ?", (key,)
            ).fetchone(),
        )
        if not ok or row is None:
            return None
        try:
            records = json.loads(row[0])
        except (TypeError, ValueError):
            self.corrupt += 1
            return None
        with self._meta_lock:
            self._used_source_keys.add(key)
        return records

    def get_sources(self, keys):
        """Batch-fetch parse-cache records: ``{key: records}`` for hits.

        One chunked ``IN (...)`` SELECT per 400 keys replaces per-fragment
        point lookups.  Missing keys are simply absent from the result;
        decode failures count as corrupt and are dropped (cold miss
        semantics).
        """
        keys = [str(key) for key in keys]
        found = {}
        if not keys:
            return found
        for key, text in self._select_in(
            "SELECT source_key, record FROM source_records "
            "WHERE source_key IN ({})",
            keys,
        ) or ():
            try:
                found[key] = json.loads(text)
            except (TypeError, ValueError):
                self.corrupt += 1
        with self._meta_lock:
            self._used_source_keys.update(found)
        return found

    def put_source(self, key, records):
        """Store one source fragment's statement records (best-effort)."""
        try:
            text = json.dumps(records, sort_keys=True)
        except (TypeError, ValueError):
            return False
        now = time.time()

        def _write(connection):
            connection.execute(
                "INSERT OR REPLACE INTO source_records "
                "(source_key, record, created_at, last_used_at) VALUES (?, ?, ?, ?)",
                (key, text, now, now),
            )
            connection.commit()  # see the per-write commit rationale in put_many()

        ok, _ = self._io("write", _write)
        return ok

    def parse_cache(self, dialect):
        """The ``get(sql)/put(sql, records)`` adapter ``preprocess`` consumes."""
        return _ParseCache(self, dialect)

    # ------------------------------------------------------------------
    # Compaction: superseded-definition marks
    # ------------------------------------------------------------------
    def mark_superseded(self, content_hashes):
        """Flag canonical content hashes whose definitions were replaced.

        The streaming ingest calls this when a name's latest content hash
        changes: the records cached under the *prior* hashes are still
        valid (the cache key is content-addressed) but no longer describe
        any live definition, so ``gc(max_entries=…)`` evicts them ahead of
        the global LRU cutoff.  Marks are purely advisory — a marked hash
        that gets re-put (the definition flipped back) is unmarked by the
        write, so live hashes never regress to cold.  Returns the number
        of marks written (best-effort, dropped-write semantics).
        """
        now = time.time()
        hashes = sorted({str(value) for value in content_hashes if str(value)})
        if not hashes:
            return 0

        def _write(connection):
            connection.executemany(
                "INSERT OR REPLACE INTO superseded_marks "
                "(content_hash, marked_at) VALUES (?, ?)",
                [(value, now) for value in hashes],
            )
            connection.commit()

        ok, _ = self._io("write", _write)
        return len(hashes) if ok else 0

    def superseded_count(self):
        """How many content hashes are currently marked superseded."""
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                return connection.execute(
                    "SELECT COUNT(*) FROM superseded_marks"
                ).fetchone()[0]
            except sqlite3.Error:
                return 0

    # ------------------------------------------------------------------
    # Maintenance (the CLI ``cache`` subcommand)
    # ------------------------------------------------------------------
    def stats(self):
        """Counters for ``cache stats``, ``/stats`` and the benchmark reports.

        ``hit_count`` is the cumulative recorded hit count of every
        record; ``breaker`` / ``breaker_trips`` mirror :meth:`health`.
        """
        self.flush()
        entries = source_entries = superseded_entries = hit_count = 0
        extractor_versions = {}
        with self._lock:
            connection = self._connect()
            if connection is not None:
                try:
                    entries, hit_count = connection.execute(
                        "SELECT COUNT(*), COALESCE(SUM(use_count), 0) "
                        "FROM lineage_records"
                    ).fetchone()
                    source_entries = connection.execute(
                        "SELECT COUNT(*) FROM source_records"
                    ).fetchone()[0]
                    superseded_entries = connection.execute(
                        "SELECT COUNT(*) FROM superseded_marks"
                    ).fetchone()[0]
                    extractor_versions = dict(
                        connection.execute(
                            "SELECT extractor_version, COUNT(*) FROM lineage_records "
                            "GROUP BY extractor_version"
                        )
                    )
                except sqlite3.Error:
                    pass
        try:
            size_bytes = os.path.getsize(self.path)
        except OSError:
            size_bytes = 0
        return {
            "path": self.path,
            "entries": entries,
            "source_entries": source_entries,
            "superseded_entries": superseded_entries,
            "size_bytes": size_bytes,
            "extractor_versions": extractor_versions,
            "hit_count": hit_count,
            "breaker": "open" if self._breaker_open() else "closed",
            "breaker_trips": self._trips,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_puts": self.puts,
            "session_corrupt": self.corrupt,
            "session_error_misses": self.error_misses,
            "session_dropped_writes": self.dropped_writes,
            "lru_entries": len(self._lru),
        }

    def clear(self):
        """Delete every record (lineage and parse); returns the number removed."""
        removed = 0
        with self._lock:
            connection = self._connect()
            if connection is not None:
                try:
                    removed = connection.execute(
                        "SELECT (SELECT COUNT(*) FROM lineage_records) + "
                        "       (SELECT COUNT(*) FROM source_records)"
                    ).fetchone()[0]
                    connection.execute("DELETE FROM lineage_records")
                    connection.execute("DELETE FROM source_records")
                    connection.execute("DELETE FROM superseded_marks")
                    connection.commit()
                except sqlite3.Error:
                    self._rollback_quietly()
                    removed = 0
        self._lru.clear()
        return removed

    def gc(self, max_age_days=None, max_entries=None):
        """Evict stale records; returns the number removed.

        ``max_age_days`` drops records (lineage and parse) not used within
        the window; ``max_entries`` then keeps only the most recently used
        N lineage records.  When the store is over the entry cap,
        **superseded-definition** records (see :meth:`mark_superseded`)
        are evicted first, ahead of the LRU cutoff — a
        redefinition-heavy streaming workload compacts to its live set
        before any live record is touched.  Parse records whose every
        lineage-bearing statement was evicted are deleted in the same pass
        (and counted), so ``max_entries`` does not strand orphaned
        ``source_records`` forever.
        """
        removed = 0
        lineage_removed = 0
        with self._lock:
            connection = self._connect()
            if connection is None:
                return 0
            try:
                # counts are taken only once their transaction committed
                if max_age_days is not None:
                    cutoff = time.time() - float(max_age_days) * 86400.0
                    lineage = connection.execute(
                        "DELETE FROM lineage_records WHERE last_used_at < ?",
                        (cutoff,),
                    ).rowcount
                    sources = connection.execute(
                        "DELETE FROM source_records WHERE last_used_at < ?",
                        (cutoff,),
                    ).rowcount
                    connection.commit()
                    lineage_removed += lineage
                    removed += sources
                if max_entries is not None:
                    keep = int(max_entries)
                    total = connection.execute(
                        "SELECT COUNT(*) FROM lineage_records"
                    ).fetchone()[0]
                    if total > keep:
                        # over the cap: superseded definitions go first —
                        # their records describe no live statement, so
                        # evicting them can never cost a warm splice
                        superseded = connection.execute(
                            "DELETE FROM lineage_records WHERE content_hash "
                            "IN (SELECT content_hash FROM superseded_marks)"
                        ).rowcount
                        connection.execute("DELETE FROM superseded_marks")
                        # then the least recently used beyond the newest `keep`
                        oldest = connection.execute(
                            "DELETE FROM lineage_records WHERE cache_key NOT IN ("
                            "  SELECT cache_key FROM lineage_records"
                            "  ORDER BY last_used_at DESC LIMIT ?)",
                            (keep,),
                        ).rowcount
                        connection.commit()
                        lineage_removed += superseded + oldest
            except sqlite3.Error:
                self._rollback_quietly()
            if lineage_removed:
                removed += self._prune_orphan_sources(connection)
        self._lru.clear()
        return removed + lineage_removed

    def _prune_orphan_sources(self, connection):
        """Delete parse records whose lineage records are all gone.

        A ``source_records`` row caches the statement records of one
        source fragment; once every lineage-bearing statement hash it
        mentions has been evicted, re-using it would only feed extractions
        whose results are cold anyway — it is dead weight.  Fragments that
        never produced lineage (pure DDL/skip records, or legacy records
        without content hashes) are kept.  Returns the number deleted; if
        the survivor scan fails, nothing is pruned — guessing at liveness
        would delete parse records for hashes we simply could not see.
        Callers hold ``self._lock``.
        """
        try:
            survivors = {
                row[0]
                for row in connection.execute(
                    "SELECT DISTINCT content_hash FROM lineage_records"
                )
            }
            doomed = [
                (key,)
                for key, text in connection.execute(
                    "SELECT source_key, record FROM source_records"
                ).fetchall()
                if self._source_orphaned(text, survivors)
            ]
            if doomed:
                connection.executemany(
                    "DELETE FROM source_records WHERE source_key = ?", doomed
                )
                connection.commit()
        except sqlite3.Error:
            self._rollback_quietly()
            return 0
        return len(doomed)

    @staticmethod
    def _source_orphaned(text, survivors):
        """True when a parse record references lineage hashes, none alive."""
        try:
            records = json.loads(text)
        except (TypeError, ValueError):
            return False
        if not isinstance(records, list):
            return False
        hashes = [
            record["content_hash"]
            for record in records
            if isinstance(record, dict)
            and isinstance(record.get("content_hash"), str)
            and record.get("kind") not in ("ddl", "skip")
        ]
        return bool(hashes) and not any(value in survivors for value in hashes)

    def __repr__(self):
        return f"LineageStore({self.cache_dir!r})"


class _ParseCache:
    """Adapter binding a store + dialect to ``preprocess(parse_cache=...)``.

    ``preprocess`` announces fragment windows up front via
    :meth:`prefetch`, which resolves every key in one batched read; the
    subsequent per-fragment :meth:`get` calls are then pure dictionary
    lookups (a key absent after a prefetch is a definitive miss — no
    point query is issued for it).
    """

    def __init__(self, store, dialect):
        from ..core.preprocess import PARSE_RECORD_VERSION
        from .keys import source_key

        self._store = store
        self._dialect = dialect
        self._version = PARSE_RECORD_VERSION
        self._key = source_key
        self._prefetched = None

    def prefetch(self, sqls):
        """Bulk-resolve the parse records of every fragment in ``sqls``.

        Each call *replaces* the previous prefetch window — streaming
        preprocessing announces fragments chunk by chunk, consuming one
        window fully before announcing the next.
        """
        keys = {self._key(sql, self._dialect, self._version) for sql in sqls}
        self._prefetched = self._store.get_sources(keys)
        return len(self._prefetched)

    def get(self, sql):
        key = self._key(sql, self._dialect, self._version)
        if self._prefetched is not None:
            return self._prefetched.get(key)
        return self._store.get_source(key)

    def put(self, sql, records):
        return self._store.put_source(self._key(sql, self._dialect, self._version), records)
