"""The LineageStore backend: persistence, LRU front, corruption handling,
and concurrent access through WAL + busy timeouts."""

import json
import sqlite3
import threading

import pytest

from repro.core.column_refs import ColumnName
from repro.core.lineage import LINEAGE_RECORD_VERSION, TableLineage
from repro.core.runner import LineageXRunner
from repro.store import LineageStore, make_key, schema_fingerprint
from repro.store.store import BUSY_TIMEOUT_MS, STORE_FILENAME
from repro.testing import faults

WAREHOUSE_SQL = """
CREATE TABLE web (cid int, page text, date date);
CREATE VIEW staging AS SELECT cid, page FROM web WHERE date > '2024-01-01';
CREATE VIEW report AS SELECT s.page, count(*) AS hits FROM staging s GROUP BY s.page;
"""


def _entry(name="v"):
    entry = TableLineage(name=name, sql=f"CREATE VIEW {name} AS SELECT a FROM t")
    entry.add_contribution("a", ColumnName.of("t", "a"))
    entry.add_reference(ColumnName.of("t", "b"))
    return entry


def _key(tag="x"):
    return make_key(tag, "postgres", 1, schema_fingerprint([("t", ["a", "b"])]))


def _populate(store, count, prefix="v"):
    """Put ``count`` records tagged ``<prefix><i>``; returns the tags."""
    tags = [f"{prefix}{index}" for index in range(count)]
    for tag in tags:
        assert store.put(_key(tag), _entry(tag), content_hash=f"hash-{tag}")
    return tags


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = LineageStore(tmp_path)
        entry = _entry()
        assert store.put(_key(), entry)
        assert store.get(_key()) == entry
        store.close()

    def test_miss_returns_none(self, tmp_path):
        store = LineageStore(tmp_path)
        assert store.get(_key("absent")) is None
        assert store.misses == 1
        store.close()

    def test_survives_process_boundary(self, tmp_path):
        first = LineageStore(tmp_path)
        first.put(_key(), _entry())
        first.close()  # flushes
        second = LineageStore(tmp_path)
        assert second.get(_key()) == _entry()
        second.close()

    def test_get_without_content_hash(self, tmp_path):
        # records are put with their content hash; a fresh handle finds
        # them by cache key alone
        with LineageStore(tmp_path) as store:
            tags = _populate(store, 8)
        with LineageStore(tmp_path) as store:
            for tag in tags:
                assert store.get(_key(tag)).name == tag

    def test_returned_objects_are_independent(self, tmp_path):
        # mutating what get() returned must not poison later hits
        store = LineageStore(tmp_path)
        store.put(_key(), _entry())
        first = store.get(_key())
        first.add_output_column("sneaky")
        assert store.get(_key()) == _entry()
        store.close()

    def test_distinct_keys_are_distinct_records(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key("a"), _entry("a"))
        store.put(_key("b"), _entry("b"))
        assert store.get(_key("a")).name == "a"
        assert store.get(_key("b")).name == "b"
        store.close()


class TestLRUFront:
    def test_hits_served_from_memory(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key(), _entry())
        store.flush()
        # break the database; the LRU front still serves the record
        store.get(_key())
        with open(store.path, "wb") as handle:
            handle.write(b"garbage")
        assert store.get(_key()) == _entry()
        store.close()

    def test_capacity_zero_disables_front(self, tmp_path):
        store = LineageStore(tmp_path, lru_size=0)
        store.put(_key(), _entry())
        assert store.get(_key()) == _entry()  # still served, via sqlite
        assert store.stats()["lru_entries"] == 0
        store.close()

    def test_prime_bulk_loads(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key("a"), _entry("a"), content_hash="hash-a")
        store.put(_key("b"), _entry("b"), content_hash="hash-b")
        store.close()
        warm = LineageStore(tmp_path)
        assert warm.prime(["hash-a", "hash-b", "hash-missing"]) == {"hash-a", "hash-b"}
        assert len(warm._lru) == 2
        warm.close()

    def test_primed_records_survive_a_garbage_file(self, tmp_path):
        with LineageStore(tmp_path) as store:
            tags = _populate(store, 16)
        store = LineageStore(tmp_path)
        hashes = [f"hash-{tag}" for tag in tags]
        assert store.prime(hashes) == set(hashes)
        # the file is broken: primed records are served from memory
        with open(tmp_path / STORE_FILENAME, "wb") as handle:
            handle.write(b"garbage")
        for tag in tags:
            assert store.get(_key(tag)).name == tag
        store.close()

    def test_prime_without_the_front_reads_nothing(self, tmp_path):
        # no hash is known to be absent, so a warm run looks every entry up
        with LineageStore(tmp_path, lru_size=0) as store:
            LineageXRunner(store=store).run(WAREHOUSE_SQL)
        with LineageStore(tmp_path, lru_size=0) as store:
            assert store.prime(["hash-a"]) is None
            warm = LineageXRunner(store=store).run(WAREHOUSE_SQL)
            assert warm.stats()["num_reused_store"] == 2
            assert store.hits == 2

    def test_prime_whose_read_fails_reads_nothing(self, tmp_path):
        # a failed read must not look like "no records": the warm run
        # still looks every entry up, and splices it
        with LineageStore(tmp_path) as store:
            LineageXRunner(store=store).run(WAREHOUSE_SQL)
        with LineageStore(tmp_path) as store:
            prime = store.prime
            returned = []

            def failing_prime(content_hashes):
                faults.install(faults.FaultPlan(seed=0, rates={"store.read": 1.0}))
                try:
                    returned.append(prime(content_hashes))
                finally:
                    faults.reset()
                return returned[-1]

            store.prime = failing_prime
            warm = LineageXRunner(store=store).run(WAREHOUSE_SQL)
            assert returned == [None]
            assert store.error_misses == 1
            assert warm.stats()["num_reused_store"] == 2


class TestCorruption:
    def test_corrupted_database_file_is_a_cold_miss(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key(), _entry())
        store.close()
        with open(tmp_path / STORE_FILENAME, "wb") as handle:
            handle.write(b"not a database at all")
        reopened = LineageStore(tmp_path)
        assert reopened.get(_key()) is None
        reopened.close()

    def test_malformed_json_row_is_a_cold_miss(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key(), _entry())
        store.close()
        connection = sqlite3.connect(tmp_path / STORE_FILENAME)
        connection.execute(
            "UPDATE lineage_records SET record = ?", ("{not json",)
        )
        connection.commit()
        connection.close()
        reopened = LineageStore(tmp_path)
        assert reopened.get(_key()) is None
        assert reopened.corrupt >= 1
        reopened.close()

    def test_version_mismatch_is_a_cold_miss(self, tmp_path):
        store = LineageStore(tmp_path)
        record = _entry().to_record()
        record["record_version"] = LINEAGE_RECORD_VERSION + 10
        store.put(_key(), _entry())
        connection_text = json.dumps(record)
        store.close()
        connection = sqlite3.connect(tmp_path / STORE_FILENAME)
        connection.execute(
            "UPDATE lineage_records SET record = ?", (connection_text,)
        )
        connection.commit()
        connection.close()
        reopened = LineageStore(tmp_path)
        assert reopened.get(_key()) is None
        assert reopened.corrupt == 1
        reopened.close()

    def test_unwritable_directory_degrades_to_pass_through(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store wants a directory")
        store = LineageStore(blocker / "cache")
        assert store.get(_key()) is None
        assert store.put(_key(), _entry()) is False
        store.close()


class TestMaintenance:
    def test_stats_counts(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key("a"), _entry("a"))
        store.put(_key("b"), _entry("b"))
        store.get(_key("a"))
        store.get(_key("missing"))
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["session_puts"] == 2
        assert stats["session_hits"] == 1
        assert stats["session_misses"] == 1
        assert stats["size_bytes"] > 0
        store.close()

    def test_clear(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key("a"), _entry("a"))
        store.put_source("source-key", [{"kind": "skip", "warning": "w"}])
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.get(_key("a")) is None
        store.close()

    def test_gc_max_entries(self, tmp_path):
        store = LineageStore(tmp_path)
        for index in range(5):
            store.put(_key(f"k{index}"), _entry(f"v{index}"))
        removed = store.gc(max_entries=2)
        assert removed == 3
        assert store.stats()["entries"] == 2
        store.close()

    def test_gc_max_age(self, tmp_path):
        store = LineageStore(tmp_path)
        store.put(_key("old"), _entry())
        store.flush()
        connection = sqlite3.connect(tmp_path / STORE_FILENAME)
        connection.execute("UPDATE lineage_records SET last_used_at = 0")
        connection.commit()
        connection.close()
        store._lru.clear()
        assert store.gc(max_age_days=1) == 1
        assert store.stats()["entries"] == 0
        store.close()


class TestKeys:
    def test_schema_fingerprint_order_independent(self):
        pairs = [("a", ["x"]), ("b", None)]
        assert schema_fingerprint(pairs) == schema_fingerprint(list(reversed(pairs)))

    def test_schema_fingerprint_distinguishes_unknown_from_empty(self):
        assert schema_fingerprint([("t", None)]) != schema_fingerprint([("t", [])])

    def test_schema_fingerprint_strict_flag(self):
        assert schema_fingerprint([], strict=True) != schema_fingerprint([], strict=False)

    def test_key_components_all_matter(self):
        base = make_key("c", "postgres", 1, "f")
        assert make_key("c2", "postgres", 1, "f") != base
        assert make_key("c", "mysql", 1, "f") != base
        assert make_key("c", "postgres", 2, "f") != base
        assert make_key("c", "postgres", 1, "f2") != base


class TestClosedLifecycle:
    """close() is idempotent and terminal: the shared handle degrades to
    a silent cold cache instead of erroring under late readers/writers."""

    def test_close_is_idempotent(self, tmp_path):
        store = LineageStore(str(tmp_path))
        store.put(_key(), _entry())
        assert not store.closed
        store.close()
        assert store.closed
        store.close()  # second close: no error
        assert store.closed

    def test_reads_after_close_are_cold_misses(self, tmp_path):
        store = LineageStore(str(tmp_path))
        store.put(_key(), _entry())
        assert store.get(_key()) is not None
        store.close()
        store._lru.clear()  # defeat the in-memory front too
        assert store.get(_key()) is None  # miss, not an exception

    def test_writes_after_close_are_dropped(self, tmp_path):
        store = LineageStore(str(tmp_path))
        store.close()
        store.put(_key("late"), _entry())  # dropped silently
        # a fresh handle proves nothing was persisted
        reopened = LineageStore(str(tmp_path))
        try:
            assert reopened.get(_key("late")) is None
        finally:
            reopened.close()

    def test_flush_after_close_is_safe(self, tmp_path):
        store = LineageStore(str(tmp_path))
        store.put(_key(), _entry())
        store.close()
        store.flush()  # no reopened connections, no error


class TestStoreStats:
    def test_stats_report_the_file(self, tmp_path):
        store = LineageStore(str(tmp_path))
        store.put(_key("a"), _entry("a"))
        try:
            stats = store.stats()
            assert stats["entries"] == 1
            assert stats["path"].endswith(STORE_FILENAME)
            assert stats["size_bytes"] > 0
            assert stats["breaker"] == "closed"
            assert stats["breaker_trips"] == 0
        finally:
            store.close()

    def test_hit_counts_accumulate(self, tmp_path):
        store = LineageStore(str(tmp_path))
        store.put(_key("hot"), _entry("hot"))
        store.flush()
        store._lru.clear()
        for _ in range(3):
            assert store.get(_key("hot")) is not None
            store.flush()
            store._lru.clear()
        try:
            stats = store.stats()
            assert stats["hit_count"] >= 3
        finally:
            store.close()


class TestOldShardedDirectory:
    """A directory written by the retired multi-file layout is a cold
    cache: it opens, misses, gains ``lineage.sqlite``, and its old files
    are left as they were."""

    def test_opens_as_a_cold_cache(self, tmp_path):
        manifest = tmp_path / "shards.json"
        manifest.write_text('{"version": 1, "shards": 4}\n')
        old_file = tmp_path / "lineage-000-of-004.sqlite"
        with sqlite3.connect(old_file) as connection:
            connection.execute(
                "CREATE TABLE lineage_records (cache_key TEXT PRIMARY KEY, "
                "record TEXT)"
            )
            connection.execute(
                "INSERT INTO lineage_records VALUES (?, ?)",
                (_key("old"), json.dumps(_entry("old").to_record())),
            )
        connection.close()
        before = {path.name: path.read_bytes() for path in (manifest, old_file)}

        store = LineageStore(tmp_path)
        try:
            assert store.get(_key("old")) is None
            assert store.misses == 1
            assert store.put(_key("new"), _entry("new"))
            assert store.stats()["entries"] == 1
        finally:
            store.close()
        assert (tmp_path / STORE_FILENAME).exists()
        after = {path.name: path.read_bytes() for path in (manifest, old_file)}
        assert after == before


class TestConcurrentAccess:
    def test_connection_uses_wal_and_busy_timeout(self, tmp_path):
        store = LineageStore(tmp_path)
        try:
            with store._lock:
                connection = store._connect()
            assert connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            timeout = connection.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout == BUSY_TIMEOUT_MS
        finally:
            store.close()

    def test_two_handles_write_concurrently(self, tmp_path):
        """Two store handles on one directory, four writer threads: WAL plus
        the busy timeout must absorb the contention without dropping writes,
        as two real processes sharing a cache directory would."""
        with LineageStore(tmp_path) as store:
            _populate(store, 1, prefix="seed")
        first = LineageStore(tmp_path)
        second = LineageStore(tmp_path)
        handles = [first, second]
        failures = []

        def writer(worker):
            store = handles[worker % 2]
            for index in range(25):
                tag = f"w{worker}-{index}"
                if not store.put(_key(tag), _entry(tag), content_hash=f"hash-{tag}"):
                    failures.append(tag)
                if index % 5 == 0:
                    store.flush()

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        first.close()
        second.close()
        assert not failures, f"dropped writes under contention: {failures[:5]}"

        with LineageStore(tmp_path) as store:
            assert store.stats()["entries"] == 101  # 1 seed + 100 concurrent
            for worker in range(4):
                for index in range(25):
                    tag = f"w{worker}-{index}"
                    assert store.get(_key(tag)).name == tag

    def test_readers_run_against_an_active_writer(self, tmp_path):
        with LineageStore(tmp_path) as store:
            tags = _populate(store, 10, prefix="r")
        writer_store = LineageStore(tmp_path)
        reader_store = LineageStore(tmp_path)
        errors = []
        stop = threading.Event()

        def writer():
            index = 0
            while not stop.is_set():
                tag = f"extra{index}"
                writer_store.put(_key(tag), _entry(tag), content_hash=f"hash-{tag}")
                writer_store.flush()
                index += 1

        def reader():
            try:
                for _ in range(20):
                    for tag in tags:
                        got = reader_store.get(_key(tag))
                        assert got is not None and got.name == tag
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join()
        stop.set()
        writer_thread.join()
        writer_store.close()
        reader_store.close()
        assert not errors, errors[0]
