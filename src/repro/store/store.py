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
  degradation is no longer *silent*: shard I/O failures are retried with
  jittered backoff, counted per shard (``error_misses`` /
  ``dropped_writes`` in :meth:`LineageStore.stats`), logged at WARNING on
  first occurrence, and a shard failing repeatedly trips a per-shard
  circuit breaker — further I/O on it short-circuits to the degraded
  path for a cooldown instead of paying timeouts, and
  :meth:`LineageStore.health` reports the store ``degraded`` with
  per-shard breaker state (the serving daemon's ``/health`` surfaces
  this);
* **LRU front** — hot records are served from memory as decoded record
  dicts; each hit still constructs a fresh ``TableLineage``, so callers
  can mutate what they are given without poisoning the cache;
* **deferred commits** — ``put()`` batches; the runner calls ``flush()``
  once per run (``close()`` flushes too), so a 400-view cold run does not
  pay 400 fsyncs;
* **sharding** — the backend may be split into N SQLite files routed by
  content-hash prefix (:func:`repro.store.keys.shard_index`).  Each shard
  has its own connection and lock, so the warm-start prefetch
  (``prime()`` / ``get_sources()``) fans its batched reads out across
  shards in parallel instead of serializing on one connection, and bulk
  writes (``put_many()``) commit one transaction per shard.  The
  *cache-key format is unchanged*: the same record lands under the same
  key whatever the shard count, only the file it lives in differs.

On-disk layout:

* single-file (the default, and the only layout that existed before
  sharding): ``<cache_dir>/lineage.sqlite``;
* sharded: ``<cache_dir>/shards.json`` (the manifest recording the shard
  count) plus ``<cache_dir>/lineage-<i>-of-<n>.sqlite`` per shard.

An existing store's layout always wins over the ``shards=`` argument —
opening a legacy single-file directory never silently abandons its
records; use :meth:`LineageStore.migrate` (CLI: ``cache migrate``) to
re-shard in place.
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
from .keys import shard_index

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

#: filename of the SQLite database inside a single-file cache directory.
STORE_FILENAME = "lineage.sqlite"

#: filename of the shard-count manifest inside a sharded cache directory.
SHARD_MANIFEST = "shards.json"

#: hard ceiling on the shard count (256 = one hex-byte prefix of fanout;
#: more shards than that only multiplies file handles, never parallelism).
MAX_SHARDS = 256

#: concurrent readers/writers on one shard file wait this long for a lock
#: before giving up (and degrading to a cold miss / dropped write) instead
#: of failing instantly with "database is locked".
BUSY_TIMEOUT_MS = 10_000

#: batch width of ``IN (...)`` reads (SQLite's default variable limit is
#: 999; 400 leaves comfortable headroom).
_CHUNK = 400

#: shard I/O retries after the first failure (transient lock contention /
#: injected faults get a second and third chance before degrading).
RETRY_ATTEMPTS = 2

#: jittered backoff window per retry, milliseconds (scaled by attempt).
RETRY_BACKOFF_MS = (5.0, 25.0)

#: consecutive shard failures (after retries) that trip its breaker.
BREAKER_THRESHOLD = 5

#: seconds a tripped breaker short-circuits I/O before allowing a probe.
BREAKER_COOLDOWN_S = 30.0

#: backoff jitter source — timing only, never outcome, so it is fine for
#: this to be nondeterministic even under a seeded fault plan.
_BACKOFF_RNG = random.Random()


def _shard_filename(index, count):
    return f"lineage-{index:03d}-of-{count:03d}.sqlite"


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


class _Shard:
    """One SQLite file of the store: connection, lock, dirty flag, and
    the fault-accounting state its circuit breaker runs on."""

    __slots__ = ("path", "lock", "connection", "broken", "dirty",
                 "failures", "open_until", "error_misses", "dropped_writes",
                 "trips", "warned")

    def __init__(self, path):
        self.path = path
        self.lock = threading.Lock()
        self.connection = None
        self.broken = False
        self.dirty = False
        self.failures = 0          # consecutive failed operations
        self.open_until = 0.0      # monotonic deadline while breaker is open
        self.error_misses = 0      # reads degraded to cold misses by errors
        self.dropped_writes = 0    # writes dropped by errors / open breaker
        self.trips = 0             # closed -> open breaker transitions
        self.warned = False        # first-failure WARNING emitted

    def connect(self):
        """The live connection, opened on first use (``None`` = broken).

        Callers must hold ``self.lock``.  Every connection gets WAL journal
        mode (readers never block the writer) and a busy timeout, so
        concurrent access from several processes — parallel sessions over
        one cache directory — waits for locks instead of erroring out.
        """
        if self.connection is not None or self.broken:
            return self.connection
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            connection = sqlite3.connect(self.path, check_same_thread=False)
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            connection.executescript(_SCHEMA)
            connection.commit()
            self.connection = connection
        except (sqlite3.Error, OSError):
            # an unusable backing file turns this shard into a pass-through
            self.broken = True
            self.connection = None
        return self.connection

    def close(self):
        with self.lock:
            if self.connection is not None:
                try:
                    self.connection.close()
                except sqlite3.Error:
                    pass
                self.connection = None
                self.dirty = False


class LineageStore:
    """Persistent ``cache_key -> TableLineage`` mapping (SQLite + LRU).

    Parameters
    ----------
    cache_dir:
        Directory holding the store (created if missing).
    lru_size:
        Capacity of the in-memory front (record count); ``0`` disables it.
    shards:
        Number of SQLite shard files for a *new* store (``None`` or ``1``
        = the classic single ``lineage.sqlite``).  An existing store's
        on-disk layout always takes precedence — re-shard with
        :meth:`migrate`.
    """

    def __init__(self, cache_dir, lru_size=2048, shards=None):
        self.cache_dir = os.fspath(cache_dir)
        self._lru = _LRU(lru_size)
        self.num_shards = self._resolve_layout(shards)
        if self.num_shards == 1:
            paths = [os.path.join(self.cache_dir, STORE_FILENAME)]
        else:
            paths = [
                os.path.join(
                    self.cache_dir, _shard_filename(index, self.num_shards)
                )
                for index in range(self.num_shards)
            ]
        self._shards = [_Shard(path) for path in paths]
        #: path of the first shard file — the whole store for the classic
        #: single-file layout (kept as an attribute for observability and
        #: backwards compatibility; see also ``stats()["shard_paths"]``).
        self.path = paths[0]
        self._manifest_written = self.num_shards == 1
        self._closed = False
        # usage tracking is batched: reads only mark key -> shard here and
        # flush() writes last_used_at/use_count in one executemany per shard
        self._meta_lock = threading.Lock()
        self._used_keys = {}
        self._used_source_keys = {}
        # session counters (not persisted)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.error_misses = 0     # cold misses caused by shard I/O errors
        self.dropped_writes = 0   # writes lost to shard I/O errors

    def _resolve_layout(self, requested):
        """The shard count this directory's store actually uses.

        Precedence: an existing manifest, then an existing legacy
        single-file database, then the ``shards`` argument, then 1.  A
        manifest that cannot be read is ignored (its shard files — if any
        — become unreachable cold data; the store is a cache, so that is a
        miss, not an error).
        """
        try:
            with open(
                os.path.join(self.cache_dir, SHARD_MANIFEST), "r",
                encoding="utf-8",
            ) as handle:
                manifest = json.load(handle)
            count = int(manifest["shards"])
            if 1 <= count <= MAX_SHARDS:
                return count
        except (OSError, ValueError, KeyError, TypeError):
            pass
        try:
            if os.path.exists(os.path.join(self.cache_dir, STORE_FILENAME)):
                return 1
        except OSError:
            pass
        if requested is None:
            return 1
        return max(1, min(int(requested), MAX_SHARDS))

    def _write_manifest(self):
        """Persist the shard count next to the shard files (best-effort)."""
        if self._manifest_written:
            return
        self._manifest_written = True
        try:
            with open(
                os.path.join(self.cache_dir, SHARD_MANIFEST), "w",
                encoding="utf-8",
            ) as handle:
                json.dump({"version": 1, "shards": self.num_shards}, handle)
                handle.write("\n")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def shard_of(self, content_hash):
        """The shard index a record with this content hash lives in."""
        if self.num_shards == 1:
            return 0
        return shard_index(content_hash, self.num_shards)

    def _shard(self, content_hash):
        return self._shards[self.shard_of(content_hash)]

    def _connect_shard(self, shard):
        if self._closed:
            return None
        connection = shard.connect()
        if connection is not None:
            self._write_manifest()
        return connection

    # Backwards-compatible single-connection handle (tests and tooling
    # grab it to trace queries or poke at rows; meaningful for the
    # single-file layout, shard 0 otherwise).
    def _connect(self):
        shard = self._shards[0]
        with shard.lock:
            return self._connect_shard(shard)

    # ------------------------------------------------------------------
    # Fault-hardened shard I/O
    # ------------------------------------------------------------------
    def _shard_io(self, shard, index, kind, operation):
        """Run ``operation()`` against ``shard`` (lock held by the caller)
        with fault injection, bounded jittered retry, and circuit-breaker
        accounting.

        ``kind`` is ``"read"`` or ``"write"`` — it picks which degraded
        counter a failure lands in.  Returns ``(ok, result)``; ``ok``
        False means the caller must degrade (cold miss / dropped write),
        and the failure has already been counted and, if it crossed the
        threshold, has tripped the shard's breaker.  While the breaker is
        open the operation is not attempted at all: a shard that is
        timing out repeatedly must not make every request pay its busy
        timeout.  After the cooldown one probe is allowed through; its
        success closes the breaker, its failure re-arms the cooldown.

        Every failed attempt rolls the connection back (a failed commit
        can leave the write transaction open, pinning the shard's write
        lock and staging half-applied statements for whatever commits
        next) and the backoff sleep happens with ``shard.lock``
        *released* — during a fault storm the other readers/writers of
        the shard must not queue behind a sleeping thread.  The lock is
        re-held when ``operation`` runs and when this method returns.
        """
        now = time.monotonic()
        if shard.open_until > now:
            self._count_degraded(shard, kind)
            return False, None
        error = None
        for attempt in range(1 + RETRY_ATTEMPTS):
            if attempt:
                low, high = RETRY_BACKOFF_MS
                delay = (
                    (low + _BACKOFF_RNG.random() * (high - low))
                    * attempt / 1000.0
                )
                shard.lock.release()
                try:
                    time.sleep(delay)
                finally:
                    shard.lock.acquire()
            try:
                faults.fire(f"store.{kind}", shard=index)
                result = operation()
            except (sqlite3.Error, OSError, faults.InjectedFault) as caught:
                error = caught
                self._rollback_quietly(shard)
                continue
            shard.failures = 0
            if shard.open_until:
                shard.open_until = 0.0
                _LOGGER.warning(
                    "lineage store shard %d (%s) recovered; circuit closed",
                    index, shard.path,
                )
            return True, result
        self._count_degraded(shard, kind)
        was_closed = shard.open_until == 0.0
        shard.failures += 1
        if not shard.warned:
            shard.warned = True
            _LOGGER.warning(
                "lineage store shard %d (%s) %s failed (degrading to %s): %s",
                index, shard.path, kind,
                "cold miss" if kind == "read" else "dropped write", error,
            )
        if shard.failures >= BREAKER_THRESHOLD:
            shard.open_until = time.monotonic() + BREAKER_COOLDOWN_S
            if was_closed:
                shard.trips += 1
                _LOGGER.warning(
                    "lineage store shard %d (%s) circuit breaker OPEN for %.0fs "
                    "after %d consecutive failures",
                    index, shard.path, BREAKER_COOLDOWN_S, shard.failures,
                )
        return False, None

    @staticmethod
    def _rollback_quietly(shard):
        """Abandon any transaction a failed operation left open (the
        connection may already be gone — every error is suppressed)."""
        connection = shard.connection
        if connection is None:
            return
        try:
            connection.rollback()
        except (sqlite3.Error, OSError):
            pass

    def _count_degraded(self, shard, kind):
        if kind == "write":
            shard.dropped_writes += 1
            self.dropped_writes += 1
        else:
            shard.error_misses += 1
            self.error_misses += 1

    def health(self):
        """Cheap (no I/O, no locks) per-shard breaker state for ``/health``.

        ``status`` is ``degraded`` while any breaker is open — extraction
        still works (cold path), but the cache is partially blind.
        """
        now = time.monotonic()
        shards = []
        degraded = 0
        for index, shard in enumerate(self._shards):
            open_ = shard.open_until > now or shard.broken
            if open_:
                degraded += 1
            shards.append(
                {
                    "shard": index,
                    "breaker": "open" if open_ else "closed",
                    "broken": shard.broken,
                    "consecutive_failures": shard.failures,
                    "error_misses": shard.error_misses,
                    "dropped_writes": shard.dropped_writes,
                    "trips": shard.trips,
                }
            )
        return {
            "status": "degraded" if degraded else "ok",
            "degraded_shards": degraded,
            "shards": shards,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Flush pending writes and release every database handle.

        Idempotent, and terminal: a closed store never reopens its shard
        connections — reads degrade to cold misses and writes are dropped
        (cache semantics).  This is what makes a store handle shared by
        many consumers (the serving daemon's batcher, concurrent reader
        threads) safe to tear down: a racing read that arrives after
        ``close()`` cannot resurrect a connection the shutdown path just
        released.
        """
        if self._closed:
            return
        self._closed = True
        self.flush()
        for shard in self._shards:
            shard.close()
        self._lru.clear()

    @property
    def closed(self):
        """True once :meth:`close` has run (the store serves only misses)."""
        return self._closed

    def flush(self):
        """Write batched usage updates and commit (once per run, per shard)."""
        with self._meta_lock:
            used = self._used_keys
            used_sources = self._used_source_keys
            self._used_keys = {}
            self._used_source_keys = {}
        by_shard = {}
        for key, index in used.items():
            by_shard.setdefault(index, ([], []))[0].append(key)
        for key, index in used_sources.items():
            by_shard.setdefault(index, ([], []))[1].append(key)
        now = time.time()
        for index, shard in enumerate(self._shards):
            keys, source_keys = by_shard.get(index, ((), ()))
            with shard.lock:
                connection = shard.connection
                if connection is None:
                    continue
                try:
                    if keys:
                        connection.executemany(
                            "UPDATE lineage_records SET last_used_at = ?, "
                            "use_count = use_count + 1 WHERE cache_key = ?",
                            [(now, key) for key in keys],
                        )
                        shard.dirty = True
                    if source_keys:
                        connection.executemany(
                            "UPDATE source_records SET last_used_at = ? "
                            "WHERE source_key = ?",
                            [(now, key) for key in source_keys],
                        )
                        shard.dirty = True
                    if shard.dirty:
                        connection.commit()
                        shard.dirty = False
                except sqlite3.Error:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # ------------------------------------------------------------------
    # The cache surface
    # ------------------------------------------------------------------
    def get(self, key, content_hash=None):
        """The stored :class:`TableLineage` for ``key``, or ``None``.

        ``content_hash`` (when known) routes the lookup straight to the
        record's shard; without it every shard is probed in order.  Every
        failure — no database, corrupted row, malformed JSON, record
        version mismatch — is a silent cold miss.
        """
        cached = self._lru.get(key)
        if cached is None:
            cached = self._fetch(key, content_hash)
            if cached is None:
                self.misses += 1
                return None
            self._lru.put(key, cached)
        shard_index_, record = cached
        try:
            lineage = TableLineage.from_record(record)
        except LineageRecordError:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        with self._meta_lock:
            self._used_keys[key] = shard_index_
        return lineage

    def prime(self, content_hashes):
        """Bulk-load every record matching ``content_hashes`` into the LRU.

        The warm-start pre-pass resolves keys sequentially (each key needs
        the upstream hits' schemas), but the *content hashes* of the whole
        corpus are known up front — one batched SELECT per chunk replaces
        hundreds of point lookups, and on a sharded store the per-shard
        batches run in parallel (each shard has its own connection and
        lock).  Purely an optimisation: keys not primed still resolve
        through :meth:`get`.
        """
        if self._lru.capacity <= 0:
            return 0
        by_shard = {}
        for value in content_hashes:
            text = str(value)
            by_shard.setdefault(self.shard_of(text), []).append(text)
        if not by_shard:
            return 0

        def _query(index, hashes):
            shard = self._shards[index]
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    return index, []

                def _read():
                    rows = []
                    for start in range(0, len(hashes), _CHUNK):
                        batch = hashes[start:start + _CHUNK]
                        placeholders = ",".join("?" for _ in batch)
                        rows.extend(
                            connection.execute(
                                "SELECT cache_key, record FROM lineage_records "
                                f"WHERE content_hash IN ({placeholders})",
                                batch,
                            ).fetchall()
                        )
                    return rows

                ok, rows = self._shard_io(shard, index, "read", _read)
            return index, (rows if ok else [])

        primed = 0
        for index, rows in self._fan_out(_query, by_shard.items()):
            for key, text in rows:
                try:
                    record = json.loads(text)
                except (TypeError, ValueError):
                    self.corrupt += 1
                    continue
                if isinstance(record, dict):
                    self._lru.put(key, (index, record))
                    primed += 1
        return primed

    def _fan_out(self, function, jobs):
        """Run ``function(*job)`` per shard job, in parallel when sharded.

        SQLite releases the GIL for the duration of a query, so a thread
        per shard genuinely overlaps the batched warm-start reads.  The
        single-shard layout (and a single job) skips the pool outright.
        """
        jobs = list(jobs)
        if len(jobs) <= 1:
            return [function(*job) for job in jobs]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(len(jobs), 8)) as pool:
            return list(pool.map(lambda job: function(*job), jobs))

    def _fetch(self, key, content_hash=None):
        """``(shard_index, record)`` for one cache key, or ``None``."""
        if content_hash is not None:
            indices = [self.shard_of(str(content_hash))]
        else:
            indices = range(self.num_shards)
        for index in indices:
            shard = self._shards[index]
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue
                ok, row = self._shard_io(
                    shard, index, "read",
                    lambda: connection.execute(
                        "SELECT record FROM lineage_records WHERE cache_key = ?",
                        (key,),
                    ).fetchone(),
                )
            if not ok or row is None:
                continue
            try:
                record = json.loads(row[0])
            except (TypeError, ValueError):
                self.corrupt += 1
                return None
            return (index, record) if isinstance(record, dict) else None
        return None

    def put(self, key, lineage, *, content_hash="", dialect="",
            extractor_version="", schema_fingerprint=""):
        """Store ``lineage`` under ``key`` (best-effort; committed per write).

        The individual key components are persisted alongside the record
        for observability (``cache stats``) and targeted invalidation;
        they do not participate in lookups — the combined ``key`` does.
        ``content_hash`` additionally routes the record to its shard.
        """
        try:
            record = lineage.to_record()
            # no sort_keys: JSON objects preserve insertion order in Python,
            # and the record's dict order (e.g. column -> sources) is part of
            # the loss-free round trip — reordering it would make warm-spliced
            # graphs render differently from cold ones
            text = json.dumps(record)
        except (TypeError, ValueError):
            return False
        now = time.time()
        index = self.shard_of(str(content_hash))
        shard = self._shards[index]
        with shard.lock:
            connection = self._connect_shard(shard)
            if connection is None:
                return False

            def _write():
                connection.execute(
                    "INSERT OR REPLACE INTO lineage_records "
                    "(cache_key, content_hash, dialect, extractor_version, "
                    " schema_fingerprint, record, created_at, last_used_at, use_count) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    (
                        key,
                        str(content_hash),
                        str(dialect),
                        str(extractor_version),
                        str(schema_fingerprint),
                        text,
                        now,
                        now,
                    ),
                )
                if content_hash:
                    # a re-put definition is live again: clear any pending
                    # superseded mark so compaction cannot evict it early
                    connection.execute(
                        "DELETE FROM superseded_marks WHERE content_hash = ?",
                        (str(content_hash),),
                    )
                # commit per write: under WAL + synchronous=NORMAL a commit
                # is lock release without an fsync, and holding an open
                # write transaction across puts deadlocks two handles
                # writing the same shards in opposite order (each stuck
                # behind the other's uncommitted transaction until the
                # busy timeout drops the write)
                connection.commit()

            ok, _ = self._shard_io(shard, index, "write", _write)
            if not ok:
                return False
        self._lru.put(key, (index, record))
        self.puts += 1
        return True

    def put_many(self, rows):
        """Store many records in one transaction per shard; returns #written.

        ``rows`` is an iterable of ``(key, lineage, meta)`` where ``meta``
        is the keyword mapping :meth:`put` takes (``content_hash``,
        ``dialect``, ``extractor_version``, ``schema_fingerprint``).  This
        is the bulk-write path of a large cold run: serialisation happens
        up front, then each shard gets a single ``executemany`` under one
        lock acquisition instead of a round trip per record.  Rows that
        fail to serialise are skipped (dropped-write semantics, like
        :meth:`put`).
        """
        now = time.time()
        by_shard = {}
        decoded = []
        for key, lineage, meta in rows:
            try:
                record = lineage.to_record()
                text = json.dumps(record)
            except (TypeError, ValueError):
                continue
            content_hash = str(meta.get("content_hash", ""))
            index = self.shard_of(content_hash)
            by_shard.setdefault(index, []).append(
                (
                    key,
                    content_hash,
                    str(meta.get("dialect", "")),
                    str(meta.get("extractor_version", "")),
                    str(meta.get("schema_fingerprint", "")),
                    text,
                    now,
                    now,
                )
            )
            decoded.append((key, index, record))
        written = 0
        ok_shards = set()
        for index, batch in by_shard.items():
            shard = self._shards[index]
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue

                def _write(connection=connection, batch=batch):
                    connection.executemany(
                        "INSERT OR REPLACE INTO lineage_records "
                        "(cache_key, content_hash, dialect, extractor_version, "
                        " schema_fingerprint, record, created_at, last_used_at, use_count) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                        batch,
                    )
                    # re-put definitions are live again — drop their marks
                    connection.executemany(
                        "DELETE FROM superseded_marks WHERE content_hash = ?",
                        [(row[1],) for row in batch if row[1]],
                    )
                    # one transaction per shard batch, released here — see
                    # the per-write commit rationale in put()
                    connection.commit()

                ok, _ = self._shard_io(shard, index, "write", _write)
                if not ok:
                    continue
            written += len(batch)
            ok_shards.add(index)
        for key, index, record in decoded:
            if index in ok_shards:
                self._lru.put(key, (index, record))
        self.puts += written
        return written

    # ------------------------------------------------------------------
    # The parse cache (per-source preprocessing records)
    # ------------------------------------------------------------------
    def get_source(self, key):
        """The statement records of one source fragment, or ``None``."""
        index = self.shard_of(key)
        shard = self._shards[index]
        with shard.lock:
            connection = self._connect_shard(shard)
            if connection is None:
                return None
            ok, row = self._shard_io(
                shard, index, "read",
                lambda: connection.execute(
                    "SELECT record FROM source_records WHERE source_key = ?",
                    (key,),
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
            self._used_source_keys[key] = index
        return records

    def get_sources(self, keys):
        """Batch-fetch parse-cache records: ``{key: records}`` for hits.

        One chunked ``IN (...)`` SELECT per 400 keys per shard replaces
        per-fragment point lookups, and on a sharded store the per-shard
        batches run in parallel.  Missing keys are simply absent from the
        result; decode failures count as corrupt and are dropped (cold
        miss semantics).
        """
        by_shard = {}
        for key in keys:
            text = str(key)
            by_shard.setdefault(self.shard_of(text), []).append(text)
        found = {}
        if not by_shard:
            return found

        def _query(index, shard_keys):
            shard = self._shards[index]
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    return index, []

                def _read():
                    rows = []
                    for start in range(0, len(shard_keys), _CHUNK):
                        batch = shard_keys[start:start + _CHUNK]
                        placeholders = ",".join("?" for _ in batch)
                        rows.extend(
                            connection.execute(
                                "SELECT source_key, record FROM source_records "
                                f"WHERE source_key IN ({placeholders})",
                                batch,
                            ).fetchall()
                        )
                    return rows

                ok, rows = self._shard_io(shard, index, "read", _read)
            return index, (rows if ok else [])

        for index, rows in self._fan_out(_query, by_shard.items()):
            for key, text in rows:
                try:
                    records = json.loads(text)
                except (TypeError, ValueError):
                    self.corrupt += 1
                    continue
                found[key] = records
                with self._meta_lock:
                    self._used_source_keys[key] = index
        return found

    def put_source(self, key, records):
        """Store one source fragment's statement records (best-effort)."""
        try:
            text = json.dumps(records, sort_keys=True)
        except (TypeError, ValueError):
            return False
        now = time.time()
        index = self.shard_of(key)
        shard = self._shards[index]
        with shard.lock:
            connection = self._connect_shard(shard)
            if connection is None:
                return False

            def _write():
                connection.execute(
                    "INSERT OR REPLACE INTO source_records "
                    "(source_key, record, created_at, last_used_at) VALUES (?, ?, ?, ?)",
                    (key, text, now, now),
                )
                connection.commit()  # see the per-write commit rationale in put()

            ok, _ = self._shard_io(shard, index, "write", _write)
        return bool(ok)

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
        by_shard = {}
        for value in content_hashes:
            text = str(value)
            if text:
                by_shard.setdefault(self.shard_of(text), set()).add(text)
        marked = 0
        for index, hashes in by_shard.items():
            shard = self._shards[index]
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue

                def _write(connection=connection, hashes=hashes):
                    connection.executemany(
                        "INSERT OR REPLACE INTO superseded_marks "
                        "(content_hash, marked_at) VALUES (?, ?)",
                        [(value, now) for value in sorted(hashes)],
                    )
                    connection.commit()

                ok, _ = self._shard_io(shard, index, "write", _write)
                if ok:
                    marked += len(hashes)
        return marked

    def superseded_count(self):
        """How many content hashes are currently marked superseded."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue
                try:
                    total += connection.execute(
                        "SELECT COUNT(*) FROM superseded_marks"
                    ).fetchone()[0]
                except sqlite3.Error:
                    pass
        return total

    # ------------------------------------------------------------------
    # Maintenance (the CLI ``cache`` subcommand)
    # ------------------------------------------------------------------
    def stats(self):
        """Counters for ``cache stats``, ``/stats`` and the benchmark reports.

        Besides the aggregate totals, ``per_shard`` breaks the on-disk
        state down file by file (row counts, bytes, cumulative recorded
        hit counts) so operators can spot shard skew — a hot shard taking
        a disproportionate share of records or reads — from the CLI and
        the serving daemon alike.
        """
        entries = 0
        source_entries = 0
        superseded_entries = 0
        size_bytes = 0
        extractor_versions = {}
        per_shard = []
        self.flush()
        for index, shard in enumerate(self._shards):
            shard_entries = 0
            shard_sources = 0
            shard_superseded = 0
            shard_hits = 0
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is not None:
                    try:
                        shard_entries = connection.execute(
                            "SELECT COUNT(*) FROM lineage_records"
                        ).fetchone()[0]
                        shard_sources = connection.execute(
                            "SELECT COUNT(*) FROM source_records"
                        ).fetchone()[0]
                        shard_superseded = connection.execute(
                            "SELECT COUNT(*) FROM superseded_marks"
                        ).fetchone()[0]
                        shard_hits = connection.execute(
                            "SELECT COALESCE(SUM(use_count), 0) FROM lineage_records"
                        ).fetchone()[0]
                        for version, count in connection.execute(
                            "SELECT extractor_version, COUNT(*) FROM lineage_records "
                            "GROUP BY extractor_version"
                        ):
                            extractor_versions[version] = (
                                extractor_versions.get(version, 0) + count
                            )
                    except sqlite3.Error:
                        pass
            shard_bytes = 0
            try:
                shard_bytes = os.path.getsize(shard.path)
            except OSError:
                pass
            entries += shard_entries
            source_entries += shard_sources
            superseded_entries += shard_superseded
            size_bytes += shard_bytes
            per_shard.append(
                {
                    "shard": index,
                    "path": shard.path,
                    "entries": shard_entries,
                    "source_entries": shard_sources,
                    "superseded": shard_superseded,
                    "size_bytes": shard_bytes,
                    "hit_count": shard_hits,
                    "error_misses": shard.error_misses,
                    "dropped_writes": shard.dropped_writes,
                    "breaker": (
                        "open"
                        if shard.open_until > time.monotonic() or shard.broken
                        else "closed"
                    ),
                    "breaker_trips": shard.trips,
                }
            )
        return {
            "path": self.path,
            "shards": self.num_shards,
            "entries": entries,
            "source_entries": source_entries,
            "superseded_entries": superseded_entries,
            "size_bytes": size_bytes,
            "extractor_versions": extractor_versions,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_puts": self.puts,
            "session_corrupt": self.corrupt,
            "session_error_misses": self.error_misses,
            "session_dropped_writes": self.dropped_writes,
            "degraded_shards": self.health()["degraded_shards"],
            "lru_entries": len(self._lru),
            "per_shard": per_shard,
        }

    def clear(self):
        """Delete every record (lineage and parse); returns the number removed."""
        removed = 0
        for shard in self._shards:
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue
                try:
                    removed += connection.execute(
                        "SELECT (SELECT COUNT(*) FROM lineage_records) + "
                        "       (SELECT COUNT(*) FROM source_records)"
                    ).fetchone()[0]
                    connection.execute("DELETE FROM lineage_records")
                    connection.execute("DELETE FROM source_records")
                    connection.execute("DELETE FROM superseded_marks")
                    connection.commit()
                    shard.dirty = False
                except sqlite3.Error:
                    pass
        self._lru.clear()
        return removed

    def gc(self, max_age_days=None, max_entries=None):
        """Evict stale records; returns the number removed.

        ``max_age_days`` drops records (lineage and parse) not used within
        the window; ``max_entries`` then keeps only the most recently used
        N lineage records *globally* (the recency cutoff is computed
        across all shards, then applied shard-locally).  When the store is
        over the entry cap, **superseded-definition** records (see
        :meth:`mark_superseded`) are evicted first, ahead of the LRU
        cutoff — a redefinition-heavy streaming workload compacts to its
        live set before any live record is touched.  Parse records whose
        every lineage-bearing statement was evicted are deleted in the
        same pass (and counted), so ``max_entries`` no longer strands
        orphaned ``source_records`` in the shards forever.
        """
        removed = 0
        lineage_evicted = False
        if max_age_days is not None:
            cutoff = time.time() - float(max_age_days) * 86400.0
            for shard in self._shards:
                with shard.lock:
                    connection = self._connect_shard(shard)
                    if connection is None:
                        continue
                    try:
                        for table in ("lineage_records", "source_records"):
                            cursor = connection.execute(
                                f"DELETE FROM {table} WHERE last_used_at < ?",
                                (cutoff,),
                            )
                            removed += cursor.rowcount
                            if table == "lineage_records" and cursor.rowcount:
                                lineage_evicted = True
                        connection.commit()
                        shard.dirty = False
                    except sqlite3.Error:
                        pass
        if max_entries is not None:
            keep = int(max_entries)
            stamps = self._lineage_stamps()
            if len(stamps) > keep:
                # over the cap: superseded definitions go first — their
                # records describe no live statement, so evicting them
                # can never cost a warm splice
                for shard in self._shards:
                    with shard.lock:
                        connection = self._connect_shard(shard)
                        if connection is None:
                            continue
                        try:
                            cursor = connection.execute(
                                "DELETE FROM lineage_records WHERE content_hash "
                                "IN (SELECT content_hash FROM superseded_marks)"
                            )
                            removed += cursor.rowcount
                            if cursor.rowcount:
                                lineage_evicted = True
                            connection.execute("DELETE FROM superseded_marks")
                            connection.commit()
                            shard.dirty = False
                        except sqlite3.Error:
                            pass
                if lineage_evicted:
                    stamps = self._lineage_stamps()
            if len(stamps) > keep:
                # the newest `keep` stamps survive; everything strictly
                # older than the keep-th newest goes, and ties at the
                # boundary are broken per shard by recency order
                stamps.sort(reverse=True)
                boundary = stamps[keep - 1] if keep > 0 else float("inf")
                over = len(stamps) - keep
                for shard in self._shards:
                    with shard.lock:
                        connection = self._connect_shard(shard)
                        if connection is None:
                            continue
                        try:
                            if keep > 0:
                                cursor = connection.execute(
                                    "DELETE FROM lineage_records WHERE last_used_at < ?",
                                    (boundary,),
                                )
                            else:
                                cursor = connection.execute(
                                    "DELETE FROM lineage_records"
                                )
                            removed += cursor.rowcount
                            over -= cursor.rowcount
                            if cursor.rowcount:
                                lineage_evicted = True
                            connection.commit()
                            shard.dirty = False
                        except sqlite3.Error:
                            pass
                # records sharing the boundary stamp: evict the surplus
                if over > 0:
                    for shard in self._shards:
                        if over <= 0:
                            break
                        with shard.lock:
                            connection = self._connect_shard(shard)
                            if connection is None:
                                continue
                            try:
                                cursor = connection.execute(
                                    "DELETE FROM lineage_records WHERE cache_key IN ("
                                    "  SELECT cache_key FROM lineage_records"
                                    "  WHERE last_used_at = ? LIMIT ?)",
                                    (boundary, over),
                                )
                                removed += cursor.rowcount
                                over -= cursor.rowcount
                                if cursor.rowcount:
                                    lineage_evicted = True
                                connection.commit()
                                shard.dirty = False
                            except sqlite3.Error:
                                pass
        if lineage_evicted:
            removed += self._prune_orphan_sources()
        self._lru.clear()
        return removed

    def _lineage_stamps(self):
        """Every lineage record's ``last_used_at``, across all shards."""
        stamps = []
        for shard in self._shards:
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue
                try:
                    stamps.extend(
                        row[0]
                        for row in connection.execute(
                            "SELECT last_used_at FROM lineage_records"
                        )
                    )
                except sqlite3.Error:
                    pass
        return stamps

    def _prune_orphan_sources(self):
        """Delete parse records whose lineage records are all gone.

        A ``source_records`` row caches the statement records of one
        source fragment; once every lineage-bearing statement hash it
        mentions has been evicted, re-using it would only feed extractions
        whose results are cold anyway — it is dead weight.  Fragments that
        never produced lineage (pure DDL/skip records, or legacy records
        without content hashes) are kept.  Returns the number deleted.
        If any shard's survivor scan fails, pruning is skipped entirely —
        guessing at liveness would delete parse records for hashes we
        simply could not see.
        """
        survivors = set()
        for shard in self._shards:
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    if shard.broken:
                        continue  # permanently empty, nothing survives there
                    return 0
                try:
                    survivors.update(
                        row[0]
                        for row in connection.execute(
                            "SELECT DISTINCT content_hash FROM lineage_records"
                        )
                    )
                except sqlite3.Error:
                    return 0
        removed = 0
        for shard in self._shards:
            with shard.lock:
                connection = self._connect_shard(shard)
                if connection is None:
                    continue
                try:
                    rows = connection.execute(
                        "SELECT source_key, record FROM source_records"
                    ).fetchall()
                except sqlite3.Error:
                    continue
                doomed = [
                    key for key, text in rows
                    if self._source_orphaned(text, survivors)
                ]
                if not doomed:
                    continue
                try:
                    connection.executemany(
                        "DELETE FROM source_records WHERE source_key = ?",
                        [(key,) for key in doomed],
                    )
                    connection.commit()
                    shard.dirty = False
                    removed += len(doomed)
                except sqlite3.Error:
                    pass
        return removed

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

    # ------------------------------------------------------------------
    # Re-sharding
    # ------------------------------------------------------------------
    @classmethod
    def migrate(cls, cache_dir, shards):
        """Re-shard the store at ``cache_dir`` in place; returns #records.

        Streams every lineage and parse record from the existing layout
        (whatever it is) into a freshly built layout of ``shards`` files,
        then swaps the new files in and removes the old ones.  Keys and
        record payloads are copied verbatim — the cache-key format does
        not change, only which file each record lives in — so warm starts
        hit exactly as before.  A no-op when the store already has the
        requested shard count.
        """
        cache_dir = os.fspath(cache_dir)
        target = max(1, min(int(shards), MAX_SHARDS))
        source = cls(cache_dir, lru_size=0)
        if source.num_shards == target:
            source.close()
            return 0

        import shutil
        import tempfile

        staging = tempfile.mkdtemp(prefix=".migrate-", dir=cache_dir)
        moved = 0
        try:
            fresh = cls(staging, lru_size=0, shards=target)
            for shard in source._shards:
                with shard.lock:
                    connection = shard.connect()
                    if connection is None:
                        continue
                    for table, columns in (
                        (
                            "lineage_records",
                            "cache_key, content_hash, dialect, extractor_version,"
                            " schema_fingerprint, record, created_at, last_used_at,"
                            " use_count",
                        ),
                        (
                            "source_records",
                            "source_key, record, created_at, last_used_at",
                        ),
                        (
                            "superseded_marks",
                            "content_hash, marked_at",
                        ),
                    ):
                        try:
                            rows = connection.execute(
                                f"SELECT {columns} FROM {table}"
                            )
                        except sqlite3.Error:
                            continue
                        route = 1 if table == "lineage_records" else 0
                        for row in rows:
                            dest = fresh._shards[fresh.shard_of(row[route])]
                            with dest.lock:
                                dest_connection = dest.connect()
                                if dest_connection is None:
                                    continue
                                placeholders = ",".join("?" for _ in row)
                                dest_connection.execute(
                                    f"INSERT OR REPLACE INTO {table} ({columns}) "
                                    f"VALUES ({placeholders})",
                                    row,
                                )
                                dest.dirty = True
                            moved += 1
            for dest in fresh._shards:
                with dest.lock:
                    if dest.connection is not None and dest.dirty:
                        dest.connection.commit()
                        dest.dirty = False
            fresh.close()
            source.close()
            # swap: drop the old layout's files, move the new ones in
            for shard in source._shards:
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.remove(shard.path + suffix)
                    except OSError:
                        pass
            for name in os.listdir(staging):
                os.replace(
                    os.path.join(staging, name), os.path.join(cache_dir, name)
                )
            manifest = os.path.join(cache_dir, SHARD_MANIFEST)
            if target == 1:
                try:
                    os.remove(manifest)
                except OSError:
                    pass
            else:
                with open(manifest, "w", encoding="utf-8") as handle:
                    json.dump({"version": 1, "shards": target}, handle)
                    handle.write("\n")
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return moved

    def __repr__(self):
        return (
            f"LineageStore({self.cache_dir!r}, shards={self.num_shards})"
        )


class _ParseCache:
    """Adapter binding a store + dialect to ``preprocess(parse_cache=...)``.

    ``preprocess`` announces fragment windows up front via
    :meth:`prefetch`, which resolves every key in one batched (per-shard
    parallel) read; the subsequent per-fragment :meth:`get` calls are then
    pure dictionary lookups (a key absent after a prefetch is a definitive
    miss — no point query is issued for it).
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
