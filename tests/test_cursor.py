"""Durable cursors and their two users: the journal checkpoint and the
stream resume offset."""

import asyncio
import errno
import json
import os

import pytest

from repro import LineageSession, cursor
from repro.server import LineageApp
from repro.server.journal import IngestJournal, JournalWriteError
from repro.streaming import default_offset_path, load_offset
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.reset()
    yield
    faults.reset()


def _lines(path):
    with open(path, "rb") as handle:
        return handle.read().split(b"\n")


def _tear_last_record(path):
    """Cut the final record in half, as a crash mid-append would."""
    with open(path, "rb") as handle:
        data = handle.read()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    with open(path, "wb") as handle:
        handle.write(data[: start + (len(data) - start) // 2])


class TestCursor:
    def test_first_save_creates_the_file_and_last_record_wins(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        assert cursor.load(path) is None
        for step in range(3):
            cursor.save(path, {"step": step})
        assert cursor.load(path) == {"step": 2}
        assert len([line for line in _lines(path) if line]) == 3

    def test_torn_final_record_falls_back_to_the_previous_one(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cursor.save(path, {"step": 1})
        cursor.save(path, {"step": 2})
        _tear_last_record(path)
        assert cursor.load(path) == {"step": 1}
        # the torn bytes are not glued onto the next record
        cursor.save(path, {"step": 3})
        assert cursor.load(path) == {"step": 3}

    def test_corrupt_middle_record_is_skipped(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        for step in (1, 2, 3):
            cursor.save(path, {"step": step})
        lines = _lines(path)
        record = json.loads(lines[1])
        record["r"]["step"] = 20  # the CRC no longer matches
        lines[1] = json.dumps(record).encode()
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        assert cursor.load(path) == {"step": 3}
        _tear_last_record(path)
        assert cursor.load(path) == {"step": 1}

    def test_bare_object_loads_only_as_the_first_record(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"applied": 7}, handle)
            handle.write("\n")
        assert cursor.load(path) == {"applied": 7}
        cursor.save(path, {"applied": 8})
        assert cursor.load(path) == {"applied": 8}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"applied": 99}) + "\n")
        assert cursor.load(path) == {"applied": 8}

    def test_file_size_stays_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cursor, "MAX_BYTES", 256)
        path = str(tmp_path / "c.jsonl")
        sizes = []
        for step in range(50):
            cursor.save(path, {"step": step})
            sizes.append(os.path.getsize(path))
        assert max(sizes) <= 256
        # rewritten to its last record, again and again
        assert sum(after < before for before, after in zip(sizes, sizes[1:])) > 1
        assert cursor.load(path) == {"step": 49}
        assert not os.path.exists(path + ".tmp")

    def test_failed_fsync_leaves_the_previous_record(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cursor.save(path, {"step": 1})
        size = os.path.getsize(path)
        faults.install(faults.FaultPlan(seed=0, rates={"cursor.fsync": 1.0}))
        with pytest.raises(faults.InjectedFault):
            cursor.save(path, {"step": 2})
        faults.reset()
        assert os.path.getsize(path) == size
        assert cursor.load(path) == {"step": 1}
        cursor.save(path, {"step": 3})
        assert cursor.load(path) == {"step": 3}

    @pytest.mark.parametrize("truncate_fails", [False, True])
    def test_torn_write_is_never_glued_onto_the_next_record(
        self, tmp_path, monkeypatch, truncate_fails
    ):
        path = str(tmp_path / "c.jsonl")
        cursor.save(path, {"step": 1})
        real_write = os.write

        def torn_write(fd, data):
            # half the record reaches the file, then the disk fills up
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "no space left on device")

        def failing_truncate(fd, length):
            raise OSError(errno.EIO, "truncate failed")

        monkeypatch.setattr(cursor.os, "write", torn_write)
        if truncate_fails:
            monkeypatch.setattr(cursor.os, "ftruncate", failing_truncate)
        with pytest.raises(OSError):
            cursor.save(path, {"step": 2})
        monkeypatch.undo()
        assert cursor.load(path) == {"step": 1}
        cursor.save(path, {"step": 3})
        assert cursor.load(path) == {"step": 3}

    @pytest.mark.parametrize("use_fsync", [True, False])
    def test_every_save_fsyncs_unless_disabled(
        self, tmp_path, monkeypatch, use_fsync
    ):
        monkeypatch.setattr(cursor, "MAX_BYTES", 256)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            cursor.os, "fsync", lambda fd: synced.append(real_fsync(fd))
        )
        path = str(tmp_path / "c.jsonl")
        for step in range(20):  # appends and rewrites alike
            cursor.save(path, {"step": step}, fsync=use_fsync)
        assert len(synced) == (20 if use_fsync else 0)


class TestJournalCheckpoint:
    E1 = ("v1", "CREATE VIEW v1 AS SELECT a FROM t1", "hash-v1")

    def test_old_format_checkpoint_loads_and_advances(self, tmp_path):
        # a checkpoint.json written by temp file + rename before cursors
        (tmp_path / "checkpoint.json").write_text(
            '{"version": 1, "applied": 3}\n'
        )
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == 3
            journal.checkpoint(5)
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == 5

    def test_torn_checkpoint_falls_back_to_the_previous_one(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            journal.append_batch([self.E1] * 3)
            journal.checkpoint(1)
            journal.checkpoint(2)
        _tear_last_record(tmp_path / "checkpoint.json")
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == 1

    def test_checkpoint_file_stays_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cursor, "MAX_BYTES", 512)
        with IngestJournal(tmp_path, fsync=False) as journal:
            for offset in range(50):
                journal.checkpoint(offset)
                assert os.path.getsize(tmp_path / "checkpoint.json") <= 512
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == 49

    def test_failed_checkpoint_raises_and_keeps_the_applied_offset(
        self, tmp_path
    ):
        with IngestJournal(tmp_path) as journal:
            journal.checkpoint(0)
            faults.install(
                faults.FaultPlan(seed=0, rates={"cursor.fsync": 1.0})
            )
            with pytest.raises(JournalWriteError):
                journal.checkpoint(1)
            assert journal.applied_offset == 0
            faults.reset()
            journal.checkpoint(2)
        with IngestJournal(tmp_path) as journal:
            assert journal.applied_offset == 2

    def test_failed_checkpoint_counts_while_the_batch_is_answered(self, tmp_path):
        async def go():
            app = LineageApp(
                journal_dir=str(tmp_path / "journal")
            )
            app.batcher.start()
            try:
                faults.install(
                    faults.FaultPlan(seed=0, rates={"cursor.fsync": 1.0})
                )
                payload = await app.batcher.submit(
                    {"q0": "CREATE VIEW q0 AS SELECT c FROM t"}
                )
                return payload, dict(app.batcher.counters), app.journal.applied_offset
            finally:
                faults.reset()
                await app.stop()

        payload, counters, applied = asyncio.run(go())
        assert payload["statements"][0]["status"] == "extracted"
        assert counters["journal_failures"] == 1
        assert counters["journal_entries"] == 1
        assert applied == -1


class TestStreamOffset:
    BASE = {"name": "base", "sql": "CREATE TABLE base (id INT, v INT)",
            "timestamp": 1}
    V1 = {"name": "v1", "sql": "CREATE VIEW v1 AS SELECT id FROM base",
          "timestamp": 2}
    V2 = {"name": "v2", "sql": "CREATE VIEW v2 AS SELECT id FROM v1",
          "timestamp": 3}

    def _log(self, tmp_path, *lines, mode="w"):
        log = tmp_path / "q.jsonl"
        with open(log, mode, encoding="utf-8") as handle:
            handle.writelines(json.dumps(line) + "\n" for line in lines)
        return log

    def _stream(self, log, **options):
        with LineageSession() as session:
            stats = session.stream_log(str(log), **options).run()
            return stats, session.result.render("csv")

    def test_old_format_offset_resumes_and_saves(self, tmp_path):
        log = self._log(tmp_path, self.BASE, self.V1)
        _, expected_prefix = self._stream(log)
        offset = load_offset(default_offset_path(log))
        # rewrite it as one bare JSON object, the format before cursors
        with open(default_offset_path(log), "w", encoding="utf-8") as handle:
            json.dump(offset, handle)
            handle.write("\n")
        self._log(tmp_path, self.V2, mode="a")
        stats, resumed = self._stream(log)
        assert stats["resumed_lines"] == 2
        assert stats["statements"] == 1
        assert load_offset(default_offset_path(log))["line_count"] == 3
        _, one_shot = self._stream(log, resume=False)
        assert resumed == one_shot != expected_prefix

    def test_torn_offset_resumes_from_the_previous_record(self, tmp_path):
        log = self._log(tmp_path, self.BASE)
        self._stream(log)
        self._log(tmp_path, self.V1, mode="a")
        self._stream(log)
        assert load_offset(default_offset_path(log))["line_count"] == 2
        _tear_last_record(default_offset_path(log))
        assert load_offset(default_offset_path(log))["line_count"] == 1
        self._log(tmp_path, self.V2, mode="a")
        stats, resumed = self._stream(log)
        assert stats["resumed_lines"] == 1
        assert stats["statements"] == 2
        assert load_offset(default_offset_path(log))["line_count"] == 3
        assert resumed == self._stream(log, resume=False)[1]

    def test_offset_file_stays_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cursor, "MAX_BYTES", 2048)
        redefinitions = [dict(self.V1, timestamp=2 + i) for i in range(60)]
        log = self._log(tmp_path, self.BASE, *redefinitions)
        stats, _ = self._stream(log, batch_statements=1)
        assert stats["batches"] == 61
        assert os.path.getsize(default_offset_path(log)) <= 2048
        assert load_offset(default_offset_path(log))["line_count"] == 61
