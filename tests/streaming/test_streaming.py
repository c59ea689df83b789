"""Tests for the query-log streaming mode (QueryLogStreamer)."""

import json
import os

import pytest

from repro import LineageSession, QueryLogStreamer
from repro.streaming import default_offset_path, load_offset


def write_log(path, *lines, mode="w"):
    with open(path, mode, encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(line) + "\n")


def entry(name, sql, ts=None):
    payload = {"name": name, "sql": sql}
    if ts is not None:
        payload["timestamp"] = ts
    return payload


def one_shot_csv(log_path):
    """The graph a one-shot batch load of the log produces, as CSV bytes."""
    with LineageSession(str(log_path)) as session:
        return session.extract().render("csv")


def stream_csv(log_path, **options):
    with LineageSession() as session:
        session.stream_log(str(log_path), **options).run()
        return session.result.render("csv")


BASE = entry("base", "CREATE TABLE base (id INT, v INT)", 1)


class TestStreamedEndState:
    def test_matches_one_shot_batch_load(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(
            log,
            BASE,
            entry("v1", "CREATE VIEW v1 AS SELECT id, v FROM base", 2),
            entry("v2", "CREATE VIEW v2 AS SELECT id FROM v1", 3),
        )
        assert stream_csv(log, batch_statements=1) == one_shot_csv(log)

    def test_redefinitions_collapse_to_latest(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(
            log,
            BASE,
            entry("v1", "CREATE VIEW v1 AS SELECT id, v FROM base", 2),
            entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 3),
        )
        assert stream_csv(log, batch_statements=1) == one_shot_csv(log)

    def test_mixed_timestamp_styles_match_one_shot(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(
            log,
            entry("base", "CREATE TABLE base (id INT, v INT)",
                  "2026-01-01T00:00:00Z"),
            # chronologically LAST despite being the middle line
            entry("v1", "CREATE VIEW v1 AS SELECT id FROM base",
                  "2026-01-01T00:00:30+00:00"),
            entry("v1", "CREATE VIEW v1 AS SELECT id, v FROM base", 1767225610),
        )
        assert stream_csv(log, batch_statements=1) == one_shot_csv(log)

    def test_timestamp_mode_flip_mid_stream_matches_one_shot(self, tmp_path):
        # the ts-winner and the file-order winner for v1 DISAGREE, and the
        # unparseable timestamp only arrives after v1 was already applied:
        # the streamer must retroactively flip to file order
        log = tmp_path / "q.jsonl"
        write_log(
            log,
            BASE,
            entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 9),
            entry("v1", "CREATE VIEW v1 AS SELECT id, v FROM base", 5),
            entry("w", "CREATEish nonsense -- no", "not-a-time"),
        )
        # make w valid SQL so both paths extract the same graph
        write_log(
            log,
            BASE,
            entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 9),
            entry("v1", "CREATE VIEW v1 AS SELECT id, v FROM base", 5),
            entry("w", "CREATE VIEW w AS SELECT id FROM base", "not-a-time"),
        )
        assert stream_csv(log, batch_statements=1) == one_shot_csv(log)

    def test_repeated_statements_absorbed_without_refresh(self, tmp_path):
        log = tmp_path / "q.jsonl"
        lines = [BASE, entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2)]
        # replay the same two statements many times
        for i in range(20):
            lines.append(entry("v1", "CREATE VIEW v1 AS SELECT id FROM base",
                               3 + i))
        write_log(log, *lines)
        with LineageSession() as session:
            streamer = session.stream_log(str(log), batch_statements=5)
            stats = streamer.run()
        assert stats["statements"] == 22
        # only the two genuinely new definitions hit the engine
        assert stats["applied"] == 2
        assert stats["warm_hit_ratio"] > 0.9

    def test_unterminated_final_line_consumed_at_eof(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2)))
        assert stream_csv(log) == one_shot_csv(log)


class TestResume:
    def test_offset_persisted_and_resumed(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE,
                  entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2))
        with LineageSession() as session:
            session.stream_log(str(log)).run()
        offset = load_offset(default_offset_path(log))
        assert offset["line_count"] == 2

        write_log(log, entry("v2", "CREATE VIEW v2 AS SELECT id FROM v1", 3),
                  mode="a")
        with LineageSession() as session:
            streamer = session.stream_log(str(log))
            stats = streamer.run()
            csv = session.result.render("csv")
        assert stats["resumed_lines"] == 2
        # only the appended line was consumed as new traffic
        assert stats["statements"] == 1
        assert csv == one_shot_csv(log)

    def test_resume_digest_mismatch_restarts_clean(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE,
                  entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2))
        with LineageSession() as session:
            session.stream_log(str(log)).run()
        # rewrite the log in place: same shape, different content
        write_log(log, BASE,
                  entry("v9", "CREATE VIEW v9 AS SELECT v FROM base", 2))
        with LineageSession() as session:
            streamer = session.stream_log(str(log))
            stats = streamer.run()
            csv = session.result.render("csv")
        assert stats["resumed_lines"] == 0
        assert csv == one_shot_csv(log)

    def test_resume_disabled_reingests(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE)
        with LineageSession() as session:
            session.stream_log(str(log)).run()
        with LineageSession() as session:
            streamer = session.stream_log(str(log), resume=False)
            stats = streamer.run()
        assert stats["resumed_lines"] == 0
        assert stats["statements"] == 1

    def test_custom_offset_path(self, tmp_path):
        log = tmp_path / "q.jsonl"
        offset = tmp_path / "elsewhere.json"
        write_log(log, BASE)
        with LineageSession() as session:
            session.stream_log(str(log), offset_path=str(offset)).run()
        assert offset.exists()
        assert not os.path.exists(default_offset_path(log))

    def test_interrupted_batch_replays_idempotently(self, tmp_path):
        # simulate a crash AFTER refresh but BEFORE the offset write: the
        # second streamer replays the batch and converges to the same state
        log = tmp_path / "q.jsonl"
        write_log(log, BASE,
                  entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2))
        with LineageSession() as session:
            streamer = session.stream_log(str(log))
            streamer._save_offset = lambda: None  # crash before persist
            streamer.run()
        assert not os.path.exists(default_offset_path(log))
        assert stream_csv(log) == one_shot_csv(log)


class TestRotation:
    def test_rotated_log_restarts_clean(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE,
                  entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2))
        with LineageSession() as session:
            streamer = session.stream_log(str(log))
            streamer.run()
            # rotate: a brand-new log with different content
            write_log(log, entry("other", "CREATE TABLE other (x INT)", 1),
                      entry("w", "CREATE VIEW w AS SELECT x FROM other", 2))
            stats = streamer.run()
            csv = session.result.render("csv")
        assert stats["resets"] == 1
        assert csv == one_shot_csv(log)

    def test_stale_names_removed_after_rotation(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE,
                  entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2))
        with LineageSession() as session:
            streamer = session.stream_log(str(log))
            streamer.run()
            assert "v1" in session.result.source_hashes
            write_log(log, entry("w", "CREATE TABLE w (x INT)", 1),
                      entry("w2", "CREATE VIEW w2 AS SELECT x FROM w", 2))
            streamer.run()
            assert "v1" not in session.result.source_hashes
            assert "w2" in session.result.source_hashes


class TestCompactionIntegration:
    def test_superseded_hashes_marked(self, tmp_path):
        log = tmp_path / "q.jsonl"
        cache = tmp_path / "cache"
        write_log(log, BASE,
                  entry("v1", "CREATE VIEW v1 AS SELECT id FROM base", 2))
        with LineageSession(cache_dir=str(cache)) as session:
            streamer = session.stream_log(str(log))
            streamer.run()
            write_log(log,
                      entry("v1", "CREATE VIEW v1 AS SELECT id, v FROM base", 3),
                      mode="a")
            streamer.run()
            assert streamer.superseded_marked >= 1
            assert session.store.superseded_count() >= 1

    def test_periodic_compaction_runs(self, tmp_path):
        log = tmp_path / "q.jsonl"
        cache = tmp_path / "cache"
        write_log(log, BASE)
        with LineageSession(cache_dir=str(cache)) as session:
            streamer = session.stream_log(
                str(log), compact_max_entries=10, compact_every=1)
            streamer.run()
            assert streamer.compactions >= 1

    def test_live_definitions_survive_compaction(self, tmp_path):
        log = tmp_path / "q.jsonl"
        cache = tmp_path / "cache"
        lines = [BASE]
        for i in range(6):
            lines.append(entry(
                "v1", f"CREATE VIEW v1 AS SELECT id FROM base WHERE v > {i}",
                2 + i))
        write_log(log, *lines)
        with LineageSession(cache_dir=str(cache)) as session:
            streamer = session.stream_log(
                str(log), batch_statements=1,
                compact_max_entries=3, compact_every=1)
            streamer.run()
            final = session.result.render("csv")
        # a cold session over the same log warm-splices the live records
        with LineageSession(str(log), cache_dir=str(cache)) as session:
            assert session.extract().render("csv") == final


class TestSessionWiring:
    def test_stream_log_uses_session_source_path(self, tmp_path):
        log = tmp_path / "q.jsonl"
        write_log(log, BASE)
        with LineageSession(str(log)) as session:
            streamer = session.stream_log()
            assert streamer.log_path == str(log)

    def test_stream_log_requires_file_backed_log(self):
        with LineageSession("CREATE VIEW v AS SELECT t.a FROM t") as session:
            with pytest.raises(ValueError, match="file-backed JSONL query log"):
                session.stream_log()

    def test_inline_text_rejected(self, tmp_path):
        with LineageSession() as session:
            with pytest.raises(ValueError, match="file path"):
                session.stream_log("{\"sql\": \"SELECT 1\"}\n")


X_GOOD = "CREATE VIEW x AS SELECT id, v FROM base"
X_POISON = "CREATE VIEW x AS SELEKT id FROM base"
POISON_LOG = [
    BASE,
    entry("x", X_GOOD, 2),
    entry("y", "CREATE VIEW y AS SELECT id FROM x", 3),
    entry("x", X_POISON, 4),
    entry("z", "CREATE VIEW z AS SELECT v FROM x", 5),
    entry("w", "CREATE VIEW w AS SELECT id FROM base", 6),
]


def daemon_csv(lines):
    """The graph a daemon fed ``lines`` one ``/extract`` batch each renders."""
    import asyncio

    from repro.output.registry import render
    from repro.server import LineageApp

    async def go():
        app = LineageApp()
        app.batcher.start()
        try:
            for line in lines:
                await app.batcher.submit({line["name"]: line["sql"]})
            return render(app.snapshots.current().graph, "csv")
        finally:
            await app.stop()

    return asyncio.run(go())


class TestPoisonLines:
    @pytest.mark.parametrize("batch", [1, 2, 1000])
    def test_resume_keeps_the_last_good_definition(self, tmp_path, batch):
        log = tmp_path / "q.jsonl"
        write_log(log, *POISON_LOG)
        with LineageSession() as session:
            stats = session.stream_log(str(log), batch_statements=batch).run()
            uninterrupted = session.result.render("csv")
            assert session.statements["x"] == X_GOOD
        # the poison was quarantined once, the rest landed, the offset moved
        assert stats["quarantined"] == 1
        assert load_offset(default_offset_path(log))["line_count"] == 6
        # a fresh streamer replays the saved prefix as one batch: x's
        # poison quarantines again and x falls back to its good definition
        with LineageSession() as session:
            streamer = session.stream_log(str(log))
            stats = streamer.run()
            assert stats["resumed_lines"] == 6
            assert session.statements["x"] == X_GOOD
            assert [row["name"] for row in streamer.quarantine.rows()] == ["x"]
            resumed = session.result.render("csv")
        assert resumed == uninterrupted
        assert daemon_csv(POISON_LOG) == uninterrupted
