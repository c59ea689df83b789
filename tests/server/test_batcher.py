"""The ingest batcher: hash dedupe, coalescing, failure atomicity."""

import asyncio

import pytest

from repro.core.lineage import LineageGraph
from repro.output.registry import render
from repro.server.batcher import ExtractionFailed, IngestBatcher, OverloadedError
from repro.server.journal import IngestJournal, JournalWriteError
from repro.server.snapshot import SnapshotManager
from repro.session import LineageSession
from repro.sources import content_hash
from repro.testing import faults

V1 = "CREATE VIEW v1 AS SELECT a, b FROM t1"
V2 = "CREATE VIEW v2 AS SELECT a FROM v1"
V1_ALT = "CREATE VIEW v1 AS SELECT b FROM t1"
# a dbt-style passthrough model: the mapping key names a bare SELECT, so
# the same text can legitimately define two different views
PASSTHROUGH = "SELECT a, b FROM t1"


def _run(coro):
    return asyncio.run(coro)


async def _make():
    session = LineageSession()
    snapshots = SnapshotManager(LineageGraph())
    batcher = IngestBatcher(session, snapshots)
    batcher.start()
    return session, snapshots, batcher


@pytest.fixture
def slow_refresh():
    """Hold every batch in its refresh for 0.2 s."""
    faults.install(faults.FaultPlan(seed=0, delays={"batcher.refresh": 0.2}))
    yield
    faults.reset()


def _view(index):
    return f"CREATE VIEW q{index} AS SELECT c{index} FROM t{index}"


class TestStatementHash:
    def test_is_content_addressed(self):
        assert content_hash(V1) == content_hash(V1)
        assert content_hash(V1) != content_hash(V1 + " ")


class TestDedupe:
    def test_repeat_submission_is_a_duplicate(self):
        async def go():
            _, snapshots, batcher = await _make()
            first = await batcher.submit({"v1": V1})
            assert [row["status"] for row in first["statements"]] == ["extracted"]
            assert first["snapshot_version"] == 1

            second = await batcher.submit({"v1": V1})
            assert [row["status"] for row in second["statements"]] == ["duplicate"]
            # the duplicate never reached the parser: no new batch, no
            # new snapshot generation
            assert batcher.counters["batches"] == 1
            assert snapshots.version == 1
            await batcher.stop()

        _run(go())

    def test_duplicate_only_request_skips_extraction_entirely(self):
        async def go():
            session, _, batcher = await _make()
            await batcher.submit({"v1": V1})
            before = session.result
            await batcher.submit({"v1": V1})
            assert session.result is before  # refresh() was never called
            await batcher.stop()

        _run(go())

    def test_mixed_request_extracts_only_the_novel_part(self):
        async def go():
            _, _, batcher = await _make()
            await batcher.submit({"v1": V1})
            result = await batcher.submit({"v1": V1, "v2": V2})
            statuses = {row["name"]: row["status"] for row in result["statements"]}
            assert statuses == {"v1": "duplicate", "v2": "extracted"}
            assert batcher.counters["batches"] == 2
            await batcher.stop()

        _run(go())

    def test_concurrent_identical_requests_coalesce(self):
        async def go():
            _, snapshots, batcher = await _make()
            results = await asyncio.gather(
                *(batcher.submit({"v1": V1}) for _ in range(4))
            )
            statuses = sorted(
                row["status"] for result in results for row in result["statements"]
            )
            assert statuses == ["coalesced", "coalesced", "coalesced", "extracted"]
            # one extraction served all four callers
            assert batcher.counters["extracted"] == 1
            assert batcher.counters["coalesced"] == 3
            assert batcher.counters["batches"] == 1
            assert snapshots.version == 1
            await batcher.stop()

        _run(go())

    def test_identical_text_under_two_names_extracts_both(self):
        # dedupe keys on (name, text), not text alone: two passthrough
        # models sharing the same SELECT are two distinct views and both
        # must land in the graph
        async def go():
            _, snapshots, batcher = await _make()
            result = await batcher.submit(
                {"m1": PASSTHROUGH, "m2": PASSTHROUGH}
            )
            statuses = {row["name"]: row["status"] for row in result["statements"]}
            assert statuses == {"m1": "extracted", "m2": "extracted"}
            assert snapshots.current().stats["num_views"] == 2
            # an exact (name, text) repeat is still the cheap path
            again = await batcher.submit({"m2": PASSTHROUGH})
            assert again["statements"][0]["status"] == "duplicate"
            await batcher.stop()

        _run(go())

    def test_known_text_under_a_new_name_still_extracts(self):
        async def go():
            _, snapshots, batcher = await _make()
            await batcher.submit({"m1": PASSTHROUGH})
            second = await batcher.submit({"m2": PASSTHROUGH})
            assert second["statements"][0]["status"] == "extracted"
            assert snapshots.current().stats["num_views"] == 2
            await batcher.stop()

        _run(go())

    def test_redefinition_retires_the_old_hash(self):
        async def go():
            _, _, batcher = await _make()
            await batcher.submit({"v1": V1})
            redefined = await batcher.submit({"v1": V1_ALT})
            assert redefined["statements"][0]["status"] == "extracted"
            # the original text is no longer "known": resubmitting it must
            # extract again, not be answered from stale bookkeeping
            back = await batcher.submit({"v1": V1})
            assert back["statements"][0]["status"] == "extracted"
            await batcher.stop()

        _run(go())


class TestGroupCommit:
    """A batch starts as soon as the ingest task is idle; what queues while
    it runs is the next batch, which waits (at most one batch) for as many
    requests as the last one answered."""

    async def _during_a_batch(self, batcher):
        first = asyncio.ensure_future(batcher.submit({"q0": _view(0)}))
        await asyncio.sleep(0.05)  # the loop took q0 and sits in its refresh
        queued = await asyncio.gather(
            *(batcher.submit({f"q{i}": _view(i)}) for i in (1, 2, 3))
        )
        return await first, queued

    def test_requests_queued_during_a_batch_form_the_next(self, slow_refresh):
        async def go():
            _, snapshots, batcher = await _make()
            first, queued = await self._during_a_batch(batcher)
            assert first["snapshot_version"] == 1
            assert batcher.counters["batches"] == 2
            assert [result["snapshot_version"] for result in queued] == [2, 2, 2]
            assert all(
                result["statements"][0]["status"] == "extracted" for result in queued
            )
            assert snapshots.current().stats["num_views"] == 4
            await batcher.stop()

        _run(go())

    def test_queued_requests_share_one_journal_append(self, slow_refresh, tmp_path):
        async def go():
            journal = IngestJournal(tmp_path)
            appended = []
            append_batch = journal.append_batch

            def counted(entries):
                appended.append([name for name, _sql, _digest in entries])
                return append_batch(entries)

            journal.append_batch = counted
            session = LineageSession()
            batcher = IngestBatcher(
                session, SnapshotManager(LineageGraph()), journal=journal
            )
            batcher.start()
            _, queued = await self._during_a_batch(batcher)
            assert appended == [["q0"], ["q1", "q2", "q3"]]
            assert {result["snapshot_version"] for result in queued} == {2}
            await batcher.stop()
            journal.close()

        _run(go())

    def test_writers_answered_together_stay_in_one_batch(self, slow_refresh):
        # three closed-loop writers come back a moment apart after each
        # reply: the batch waits for all three instead of starting with
        # the first and leaving the others to a batch of their own
        async def go():
            _, snapshots, batcher = await _make()

            async def writer(k):
                for round_ in range(3):
                    index = 10 * k + round_
                    await batcher.submit({f"q{index}": _view(index)})
                    await asyncio.sleep(0.01 * k)

            await asyncio.gather(*(writer(k) for k in range(3)))
            assert batcher.counters["batches"] == 3
            assert snapshots.current().stats["num_views"] == 9
            await batcher.stop()

        _run(go())

    def test_retry_after_is_about_one_client_batch(self):
        # the whole queue joins the next batch, so the hint is one batch,
        # not one per queued request; and a long boot batch (preload) is
        # not the pace of client batches
        async def go():
            batcher = IngestBatcher(
                LineageSession(), SnapshotManager(LineageGraph()), max_pending=4
            )
            batcher.start()
            faults.install(faults.FaultPlan(seed=0, delays={"batcher.refresh": 1.2}))
            try:
                await batcher.submit({"q0": _view(0)}, journal=False)
                faults.install(
                    faults.FaultPlan(seed=0, delays={"batcher.refresh": 0.2})
                )
                running = asyncio.ensure_future(batcher.submit({"q1": _view(1)}))
                await asyncio.sleep(0.05)
                backlog = [
                    asyncio.ensure_future(batcher.submit({f"q{i}": _view(i)}))
                    for i in range(2, 6)
                ]
                await asyncio.sleep(0)  # all four are queued
                with pytest.raises(OverloadedError) as shed:
                    await batcher.submit({"q6": _view(6)})
                assert shed.value.retry_after == 1.0
                await asyncio.gather(running, *backlog)
            finally:
                faults.reset()
            await batcher.stop()

        _run(go())


class TestSnapshots:
    def test_each_batch_publishes_a_new_generation(self):
        async def go():
            _, snapshots, batcher = await _make()
            await batcher.submit({"v1": V1})
            await batcher.submit({"v2": V2})
            assert snapshots.version == 2
            snapshot = snapshots.current()
            assert snapshot.statement_names == ("v1", "v2")
            assert snapshot.stats["num_views"] == 2
            await batcher.stop()

        _run(go())

    def test_old_snapshot_survives_later_batches(self):
        async def go():
            _, snapshots, batcher = await _make()
            await batcher.submit({"v1": V1})
            pinned = snapshots.current()
            edges_before = render(pinned.graph, "csv")
            await batcher.submit({"v2": V2})
            assert render(pinned.graph, "csv") == edges_before
            assert snapshots.current() is not pinned
            await batcher.stop()

        _run(go())


class TestFailureDomain:
    def test_bad_statement_quarantines_and_leaves_state_intact(self):
        async def go():
            _, snapshots, batcher = await _make()
            await batcher.submit({"v1": V1})
            result = await batcher.submit(
                {"broken": "CREATE VIEW broken AS SELEKT"}
            )
            # poison is not an exception: the request resolves with a
            # per-statement quarantined row carrying a structured error
            row = result["statements"][0]
            assert row["status"] == "quarantined"
            assert row["error"]["type"]
            assert row["retry_after_seconds"] > 0
            assert snapshots.version == 1  # snapshot unchanged
            assert batcher.counters["quarantined"] == 1
            # the failed hash was not adopted: the pair is quarantined,
            # and a resubmission inside the backoff window is rejected
            # up front without burning another parse
            again = await batcher.submit(
                {"broken": "CREATE VIEW broken AS SELEKT"}
            )
            assert again["statements"][0]["status"] == "quarantined"
            assert batcher.counters["quarantine_blocked"] == 1
            assert batcher.counters["quarantined"] == 1  # no second parse
            # and the daemon still ingests fine afterwards
            ok = await batcher.submit({"v2": V2})
            assert ok["statements"][0]["status"] == "extracted"
            assert snapshots.version == 2
            await batcher.stop()

        _run(go())

    def test_poison_in_a_mixed_batch_publishes_the_rest(self):
        async def go():
            _, snapshots, batcher = await _make()
            result = await asyncio.wait_for(
                batcher.submit(
                    {
                        "v1": V1,
                        "broken_a": "CREATE VIEW broken_a AS SELEKT",
                        "v2": V2,
                        "broken_b": "CREATE VIEW broken_b AS ,,,",
                    }
                ),
                timeout=10,
            )
            statuses = {row["name"]: row["status"] for row in result["statements"]}
            assert statuses == {
                "v1": "extracted",
                "broken_a": "quarantined",
                "v2": "extracted",
                "broken_b": "quarantined",
            }
            assert result["quarantined"] == 2
            assert len(batcher.quarantine) == 2
            # the survivors published
            snapshot = snapshots.current()
            assert "v1" in snapshot.statement_names
            assert "v2" in snapshot.statement_names
            assert snapshot.stats["num_views"] == 2
            await batcher.stop()

        _run(go())

    def test_publish_failure_fails_the_batch_but_not_the_loop(self):
        # an exception past the refresh guard (snapshot install,
        # bookkeeping) must fail the waiting futures instead of killing
        # the ingest task and hanging every later submit()
        async def go():
            _, snapshots, batcher = await _make()
            original = snapshots.install

            def boom(snapshot):
                raise RuntimeError("publish exploded")

            snapshots.install = boom
            with pytest.raises(ExtractionFailed, match="publish exploded"):
                await batcher.submit({"v1": V1})
            assert snapshots.version == 0  # nothing published
            snapshots.install = original
            # the failed pair was not adopted and the loop is still alive
            ok = await asyncio.wait_for(batcher.submit({"v1": V1}), timeout=5)
            assert ok["statements"][0]["status"] == "extracted"
            assert snapshots.version == 1
            await batcher.stop()

        _run(go())

    def test_poison_redefinition_survives_crash_and_replay(self, tmp_path):
        # the journal append precedes extraction, so a poison
        # redefinition of a healthy name lands in the journal; recovery
        # must serve the name's last *published* definition, not collapse
        # last-wins onto the poison text and lose the name entirely
        async def first_life():
            journal = IngestJournal(tmp_path)
            session = LineageSession()
            snapshots = SnapshotManager(LineageGraph())
            batcher = IngestBatcher(session, snapshots, journal=journal)
            batcher.start()
            good = await batcher.submit({"v1": V1})
            assert good["statements"][0]["status"] == "extracted"
            poison = await batcher.submit({"v1": "CREATE VIEW v1 AS SELEKT"})
            assert poison["statements"][0]["status"] == "quarantined"
            edges = render(snapshots.current().graph, "csv")
            await batcher.stop()
            journal.close()
            return edges

        async def second_life():
            journal = IngestJournal(tmp_path)
            # the poison offset was durably tombstoned before the "crash"
            assert journal.quarantined_offsets() == {1}
            session = LineageSession()
            snapshots = SnapshotManager(LineageGraph())
            batcher = IngestBatcher(session, snapshots, journal=journal)
            batcher.start()
            assert await batcher.replay(journal.replay_entries()) == 1
            edges = render(snapshots.current().graph, "csv")
            await batcher.stop()
            journal.close()
            return edges

        edges_before_crash = _run(first_life())
        assert _run(second_life()) == edges_before_crash

    def test_replay_falls_back_when_the_poison_was_never_marked(
        self, tmp_path
    ):
        # a tombstone can be lost (crash between quarantine and mark):
        # replay then attempts the poison, re-quarantines it, and retries
        # the name with its next-most-recent journaled definition
        poison = "CREATE VIEW v1 AS SELEKT"
        with IngestJournal(tmp_path) as journal:
            journal.append_batch(
                [
                    ("v1", V1, content_hash(V1)),
                    ("v2", V2, content_hash(V2)),
                    ("v1", poison, content_hash(poison)),
                ]
            )

        async def recover():
            journal = IngestJournal(tmp_path)
            session = LineageSession()
            snapshots = SnapshotManager(LineageGraph())
            batcher = IngestBatcher(session, snapshots, journal=journal)
            batcher.start()
            # pass 1: {v1: poison, v2} — poison quarantines, v2 publishes;
            # pass 2: {v1: good} falls back and publishes
            assert await batcher.replay(journal.replay_entries()) == 3
            assert batcher.counters["quarantined"] == 1
            edges = render(snapshots.current().graph, "csv")
            await batcher.stop()
            journal.close()
            return edges

        async def reference():
            session = LineageSession()
            snapshots = SnapshotManager(LineageGraph())
            batcher = IngestBatcher(session, snapshots)
            batcher.start()
            await batcher.submit({"v1": V1, "v2": V2})
            edges = render(snapshots.current().graph, "csv")
            await batcher.stop()
            return edges

        assert _run(recover()) == _run(reference())

    def test_unmarkable_quarantine_holds_the_checkpoint(self, tmp_path):
        # when the tombstone write fails, the checkpoint must stay below
        # the poison offset — across batches — or compaction could fold
        # away the fallback definition the mark was protecting
        async def go():
            journal = IngestJournal(tmp_path)
            session = LineageSession()
            snapshots = SnapshotManager(LineageGraph())
            batcher = IngestBatcher(session, snapshots, journal=journal)
            batcher.start()
            await batcher.submit({"v1": V1})  # offset 0, checkpointed
            assert journal.applied_offset == 0

            def refuse(offsets):
                raise JournalWriteError("marks not durable")

            journal.mark_quarantined = refuse
            result = await batcher.submit(
                {"v1": "CREATE VIEW v1 AS SELEKT", "v2": V2}  # offsets 1, 2
            )
            statuses = {
                row["name"]: row["status"] for row in result["statements"]
            }
            assert statuses == {"v1": "quarantined", "v2": "extracted"}
            assert journal.applied_offset == 0  # clamped below the poison
            # a later healthy batch must NOT drag the checkpoint past the
            # still-unmarked offset...
            await batcher.submit({"v3": "CREATE VIEW v3 AS SELECT a FROM v2"})
            assert journal.applied_offset == 0
            # ...until marking recovers, after which it advances normally
            del journal.mark_quarantined  # restore the real method
            await batcher.submit({"v4": "CREATE VIEW v4 AS SELECT a FROM v2"})
            assert journal.quarantined_offsets() == {1}
            assert journal.applied_offset == 4
            await batcher.stop()
            journal.close()

        _run(go())

    def test_submit_closing_a_cycle_quarantines(self):
        # a view that closes a dependency cycle is rejected like in a full
        # run, not published with its cycle
        async def go():
            _, snapshots, batcher = await _make()
            for name, sql in (
                ("t", "CREATE TABLE t (x int)"),
                ("a", "CREATE VIEW a AS SELECT x FROM b"),
            ):
                result = await batcher.submit({name: sql})
                assert result["statements"][0]["status"] == "extracted"
            result = await batcher.submit({"b": "CREATE VIEW b AS SELECT x FROM a"})
            row = result["statements"][0]
            assert row["status"] == "quarantined"
            assert row["error"]["type"] == "CyclicDependencyError"
            assert result["snapshot_version"] == snapshots.version == 2
            assert "b" not in snapshots.current().statement_names
            await batcher.stop()

        _run(go())

    def test_submit_after_stop_is_rejected(self):
        async def go():
            _, _, batcher = await _make()
            await batcher.submit({"v1": V1})
            await batcher.stop()
            with pytest.raises(RuntimeError):
                await batcher.submit({"v2": V2})

        _run(go())
