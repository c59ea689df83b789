"""The write-ahead journal: durability, torn tails, checkpoints, compaction."""

import json
import os

import pytest

from repro.server.journal import (
    IngestJournal,
    JournalWriteError,
    _entry_crc,
    _segment_name,
)

E1 = ("v1", "CREATE VIEW v1 AS SELECT a FROM t1", "hash-v1")
E2 = ("v2", "CREATE VIEW v2 AS SELECT a FROM v1", "hash-v2")
E3 = ("v3", "CREATE VIEW v3 AS SELECT a FROM v2", "hash-v3")


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            offsets = journal.append_batch([E1, E2])
            assert offsets == [0, 1]
            assert journal.next_offset == 2
        # a fresh instance (the restarted daemon) sees the same entries
        with IngestJournal(tmp_path) as journal:
            assert journal.replay_entries() == [
                (0, *E1),
                (1, *E2),
            ]
            assert journal.next_offset == 2

    def test_offsets_are_monotonic_across_batches_and_restarts(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            assert journal.append_batch([E1]) == [0]
            assert journal.append_batch([E2]) == [1]
        with IngestJournal(tmp_path) as journal:
            assert journal.append_batch([E3]) == [2]
            assert [offset for offset, *_ in journal.replay_entries()] == [0, 1, 2]

    def test_empty_batch_is_a_noop(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            assert journal.append_batch([]) == []
            assert journal.appended == 0
            assert journal.replay_entries() == []

    def test_segment_rotation(self, tmp_path):
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            journal.append_batch([E1, E2])
            journal.append_batch([E3])
            segments = [
                name for name in os.listdir(tmp_path) if name.startswith("segment-")
            ]
            assert sorted(segments) == [_segment_name(0), _segment_name(2)]
            assert len(journal.replay_entries()) == 3

    def test_unicode_sql_survives(self, tmp_path):
        entry = ("vü", "CREATE VIEW vü AS SELECT 'é\n' FROM t1", "hash-ü")
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([entry])
        with IngestJournal(tmp_path) as journal:
            assert journal.replay_entries() == [(0, *entry)]


class TestTornTail:
    def test_torn_final_line_is_discarded(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1, E2])
        path = tmp_path / _segment_name(0)
        text = path.read_text()
        # simulate a crash mid-append: cut the last line in half
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        with IngestJournal(tmp_path) as journal:
            assert journal.replay_entries() == [(0, *E1)]
            # the torn entry was never acknowledged (the fsync did not
            # complete), so its offset is free to be reused
            assert journal.append_batch([E3]) == [1]

    def test_corrupted_crc_ends_the_segment(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1, E2, E3])
        path = tmp_path / _segment_name(0)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["s"] = "CREATE VIEW v2 AS SELECT tampered FROM v1"  # CRC now wrong
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with IngestJournal(tmp_path) as journal:
            # nothing after a failed check is trustworthy: only E1 survives
            assert journal.replay_entries() == [(0, *E1)]

    def test_crc_is_content_addressed(self):
        assert _entry_crc(0, "v1", "h", "SELECT 1") != _entry_crc(
            0, "v1", "h", "SELECT 2"
        )
        assert _entry_crc(0, "v1", "h", "SELECT 1") != _entry_crc(
            1, "v1", "h", "SELECT 1"
        )


class _TornHandle:
    """Wraps a segment handle: the first write persists only half its
    bytes and then fails, like ENOSPC mid-flush."""

    def __init__(self, handle):
        self.inner = handle
        self.armed = True
        self.fail_truncate = False

    def write(self, data):
        if self.armed:
            self.armed = False
            self.inner.write(data[: len(data) // 2])
            raise OSError("no space left on device")
        return self.inner.write(data)

    def truncate(self, size=None):
        if self.fail_truncate:
            raise OSError("truncate failed")
        return self.inner.truncate(size)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestTornTailRepair:
    def test_partial_append_failure_keeps_later_entries_replayable(
        self, tmp_path
    ):
        # torn bytes from a failed append must not sit in front of later
        # fsync'd (acknowledged!) entries — replay stops a segment at the
        # first invalid line, so the tail must be cut back first
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1])
            journal._handle = _TornHandle(journal._handle)
            with pytest.raises(JournalWriteError):
                journal.append_batch([E2])
            assert journal.append_batch([E3]) == [1]
        with IngestJournal(tmp_path) as journal:
            assert journal.replay_entries() == [(0, *E1), (1, *E3)]

    def test_unrepairable_segment_is_abandoned_not_reused(self, tmp_path):
        # when even the truncate fails, the segment is abandoned and the
        # offsets the torn batch could have claimed are skipped, so a
        # half-written line can never collide with an acknowledged entry
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1])
            torn = _TornHandle(journal._handle)
            torn.fail_truncate = True
            journal._handle = torn
            with pytest.raises(JournalWriteError):
                journal.append_batch([E2])
            assert journal.append_batch([E3]) == [2]  # fresh segment
        with IngestJournal(tmp_path) as journal:
            entries = journal.replay_entries()
            assert (0, *E1) in entries
            assert (2, *E3) in entries
            assert journal.next_offset == 3


class TestQuarantineMarks:
    GOOD = ("v1", "CREATE VIEW v1 AS SELECT a FROM t1", "hash-good")
    POISON = ("v1", "CREATE VIEW v1 AS SELEKT", "hash-poison")

    def test_marked_offsets_are_excluded_from_replay(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([self.GOOD])
            journal.append_batch([self.POISON])
            assert journal.mark_quarantined([1]) == [1]
            assert journal.replay_entries() == [(0, *self.GOOD)]
        # the tombstone is durable: a restarted daemon skips it too
        with IngestJournal(tmp_path) as journal:
            assert journal.replay_entries() == [(0, *self.GOOD)]
            assert journal.quarantined_offsets() == {1}

    def test_marking_is_idempotent(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([self.GOOD, self.POISON])
            assert journal.mark_quarantined([1]) == [1]
            assert journal.mark_quarantined([1]) == []
            assert journal.stats()["quarantined_offsets"] == 1

    def test_compaction_keeps_the_last_published_definition(self, tmp_path):
        # the poison redefinition postdates the good one; tombstoned, it
        # must lose latest-per-name to the good entry instead of
        # permanently discarding it (the crash-recovery data-loss bug)
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            journal.append_batch([self.GOOD, ("v2", "SELECT 2", "h2")])
            journal.append_batch([self.POISON, ("v3", "SELECT 5", "h5")])
            journal.append_batch([("v4", "SELECT 6", "h6")])
            journal.mark_quarantined([2])
            journal.checkpoint(3)
            assert journal.compactions == 1
            assert journal.replay_entries() == [
                (0, *self.GOOD),
                (1, "v2", "SELECT 2", "h2"),
                (3, "v3", "SELECT 5", "h5"),
                (4, "v4", "SELECT 6", "h6"),
            ]
            # the compacted-away tombstone was garbage-collected with it
            assert journal.quarantined_offsets() == set()

    def test_stale_mark_never_blocks_a_reused_offset(self, tmp_path):
        # a mark can outlive its entry (GC is best-effort); next_offset
        # must clear the marks so a fresh entry never lands on a marked
        # offset and silently vanishes from replay
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([self.GOOD])
            journal.mark_quarantined([5])
        with IngestJournal(tmp_path) as journal:
            assert journal.next_offset == 6
            assert journal.append_batch([("v9", "SELECT 9", "h9")]) == [6]
            assert (6, "v9", "SELECT 9", "h9") in journal.replay_entries()

    def test_torn_mark_line_is_skipped_not_fatal(self, tmp_path):
        # mark lines are independent records: a torn line is dropped
        # without discarding the marks after it
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([self.GOOD])
            journal.append_batch([self.POISON])
            journal.mark_quarantined([1])
        marks = tmp_path / "quarantined.jsonl"
        marks.write_text('{"q": 0' + "\n" + marks.read_text())
        with IngestJournal(tmp_path) as journal:
            assert journal.quarantined_offsets() == {1}
            assert journal.replay_entries() == [(0, *self.GOOD)]


class TestCheckpoint:
    def test_checkpoint_round_trips(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1, E2])
            assert journal.applied_offset == -1
            journal.checkpoint(1)
            assert journal.applied_offset == 1
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == 1

    def test_checkpoint_never_regresses(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1, E2])
            journal.checkpoint(1)
            journal.checkpoint(0)  # stale publish completion: ignored
            assert journal.applied_offset == 1

    def test_corrupt_checkpoint_degrades_to_unapplied(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([E1])
            journal.checkpoint(0)
        (tmp_path / "checkpoint.json").write_text("{not json")
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == -1  # replay everything: safe


class TestCompaction:
    def _fill(self, journal):
        # v1 redefined three times across segments; only the last matters
        journal.append_batch([("v1", "SELECT 1", "h1"), ("v2", "SELECT 2", "h2")])
        journal.append_batch([("v1", "SELECT 3", "h3"), ("v1", "SELECT 4", "h4")])
        journal.append_batch([("v3", "SELECT 5", "h5")])

    def test_applied_segments_fold_to_latest_per_name(self, tmp_path):
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            self._fill(journal)
            assert journal.stats()["segments"] == 3
            journal.checkpoint(3)  # segments [0,1] and [2,3] fully applied
            assert journal.compactions == 1
            entries = journal.replay_entries()
            # v1's dead redefinitions are gone; offsets are preserved
            assert entries == [
                (1, "v2", "SELECT 2", "h2"),
                (3, "v1", "SELECT 4", "h4"),
                (4, "v3", "SELECT 5", "h5"),
            ]
            # the active segment was untouched
            assert journal.next_offset == 5
            assert journal.append_batch([("v4", "SELECT 6", "h6")]) == [5]

    def test_active_segment_is_never_compacted(self, tmp_path):
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            journal.append_batch([("v1", "SELECT 1", "h1"), ("v1", "SELECT 2", "h2")])
            journal.checkpoint(5)  # beyond everything, but only one closed segment
            assert journal.compactions == 0
            assert len(journal.replay_entries()) == 2

    def test_crash_between_rename_and_unlink_replays_each_offset_once(
        self, tmp_path, monkeypatch
    ):
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            self._fill(journal)
            # crash injection: the compacted segment lands, the superseded
            # segments are never unlinked
            monkeypatch.setattr(IngestJournal, "_unlink", staticmethod(lambda path: None))
            journal.checkpoint(3)
        with IngestJournal(tmp_path) as journal:
            # the compacted segment AND its superseded sources coexist
            assert journal.stats()["segments"] == 4
            entries = journal.replay_entries()
            assert [offset for offset, *_ in entries] == sorted(
                {offset for offset, *_ in entries}
            )
            # the original (pre-compaction) entries win on overlap, which
            # is byte-identical after replay anyway; every offset is here
            assert {offset for offset, *_ in entries} == {0, 1, 2, 3, 4}

    def test_checkpoints_with_nothing_to_fold_read_no_segment(
        self, tmp_path, monkeypatch
    ):
        reads = []
        read_segment = IngestJournal._read_segment

        def counted(journal, path):
            reads.append(os.path.basename(path))
            return read_segment(journal, path)

        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            self._fill(journal)
            journal.checkpoint(3)
            assert journal.compactions == 1
            monkeypatch.setattr(IngestJournal, "_read_segment", counted)
            # one closed segment (the compacted one) and the active one
            journal.checkpoint(4)
            journal.append_batch([("v5", "SELECT 7", "h7")])
            journal.checkpoint(5)
            assert reads == []
            # a rotation closes a second applied segment: now it folds
            journal.append_batch([("v6", "SELECT 8", "h8")])
            journal.checkpoint(6)
            assert journal.compactions == 2
        # after a restart the boot scan supplies the segment tops: the old
        # active segment is closed now, so the first checkpoint folds it
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            journal.append_batch([("v7", "SELECT 9", "h9")])
            journal.checkpoint(7)
            assert journal.compactions == 1
            del reads[:]
            journal.append_batch([("v8", "SELECT 10", "h10")])
            journal.checkpoint(8)
            assert reads == []
            assert journal.replay_entries()[-2:] == [
                (7, "v7", "SELECT 9", "h9"),
                (8, "v8", "SELECT 10", "h10"),
            ]

    def test_restart_mid_history_appends_after_compaction(self, tmp_path):
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            self._fill(journal)
            journal.checkpoint(3)
        with IngestJournal(tmp_path, segment_max_entries=2) as journal:
            assert journal.next_offset == 5
            journal.append_batch([("v4", "SELECT 6", "h6")])
            assert journal.replay_entries()[-1] == (5, "v4", "SELECT 6", "h6")


class TestFailureSurface:
    def test_fsync_failure_raises_journal_error(self, tmp_path, monkeypatch):
        def broken_fsync(fd):
            raise OSError("disk gone")

        with IngestJournal(tmp_path) as journal:
            monkeypatch.setattr("repro.server.journal.os.fsync", broken_fsync)
            with pytest.raises(JournalWriteError):
                journal.append_batch([E1])

    def test_stats_shape(self, tmp_path):
        with IngestJournal(tmp_path, fsync=False) as journal:
            journal.append_batch([E1])
            stats = journal.stats()
            assert stats["next_offset"] == 1
            assert stats["applied_offset"] == -1
            assert stats["entries_on_disk"] == 1
            assert stats["appended"] == 1
            assert stats["segments"] == 1
            assert stats["compactions"] == 0
            assert stats["fsync"] is False
