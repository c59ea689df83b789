"""The shared ingest core: dedupe, bisecting quarantine, last-good fallback."""

import asyncio
import json
import math
import random

import pytest

from repro import ingest
from repro.datasets import workload
from repro.output.registry import render
from repro.quarantine import Quarantine
from repro.server import LineageApp
from repro.session import LineageSession
from repro.sources import content_hash

V1 = "CREATE VIEW v1 AS SELECT a.id FROM a"
V1_ALT = "CREATE VIEW v1 AS SELECT a.id, a.v FROM a"
V2 = "CREATE VIEW v2 AS SELECT v1.id FROM v1"
POISON = "CREATE VIEW bad AS SELEC 1"


def _counting(session):
    """Count ``session.refresh`` calls (the ingest core's unit of work)."""
    calls = []
    original = session.refresh

    def refresh(changes=None):
        calls.append(len(changes or ()))
        return original(changes)

    session.refresh = refresh
    return calls


class TestPending:
    def test_drops_applied_pairs_only(self):
        session = LineageSession()
        session.refresh({"v1": V1})
        changes = ingest.pending(session, {"v1": V1, "v2": V2})
        assert changes == {"v2": V2}
        assert ingest.pending(session, {"v1": V1_ALT}) == {"v1": V1_ALT}

    def test_removal_is_pending_only_for_applied_names(self):
        session = LineageSession()
        session.refresh({"v1": V1})
        assert ingest.pending(session, {"v1": None, "gone": None}) == {"v1": None}

    def test_session_statements_is_the_applied_record(self):
        session = LineageSession()
        assert dict(session.statements) == {}
        session.refresh({"v1": V1, "v2": V2})
        session.refresh({"v1": V1_ALT})
        assert dict(session.statements) == {"v1": V1_ALT, "v2": V2}
        with pytest.raises(TypeError):
            session.statements["v3"] = V2  # read-only view


class TestApply:
    def test_clean_batch_refreshes_once(self):
        session = LineageSession()
        calls = _counting(session)
        failed, _ = ingest.apply(session, {"v1": [V1], "v2": [V2]}, Quarantine())
        assert failed == {}
        assert calls == [2]

    def test_poison_is_bisected_out_and_the_rest_lands(self):
        names = [f"w{index}" for index in range(16)]
        versions = {name: [f"CREATE VIEW {name} AS SELECT a.id FROM a"] for name in names}
        versions["bad"] = [POISON]
        session = LineageSession()
        calls = _counting(session)
        quarantine = Quarantine()
        failed, _ = ingest.apply(session, versions, quarantine)
        assert list(failed) == [("bad", content_hash(POISON))]
        record = failed[("bad", content_hash(POISON))]
        assert record["error"]["type"] == "ParseError"
        assert record["retry_after_seconds"] > 0
        assert quarantine.get("bad", content_hash(POISON)) is not None
        assert set(session.statements) == set(names)
        assert len(calls) <= 2 * math.ceil(math.log2(17)) + 1

    def test_quarantined_version_falls_back_to_the_previous_one(self):
        session = LineageSession()
        poison = "CREATE VIEW v1 AS SELEKT"
        failed, _ = ingest.apply(
            session, {"v1": [V1, poison], "v2": [V2]}, Quarantine()
        )
        assert list(failed) == [("v1", content_hash(poison))]
        assert dict(session.statements) == {"v1": V1, "v2": V2}

    def test_all_versions_quarantined_keeps_the_applied_text(self):
        session = LineageSession()
        session.refresh({"v1": V1})
        before = session.result
        failed, _ = ingest.apply(
            session,
            {"v1": ["CREATE VIEW v1 AS SELEKT", "CREATE VIEW v1 AS ,,,"]},
            Quarantine(),
        )
        assert len(failed) == 2
        assert session.result is before
        assert dict(session.statements) == {"v1": V1}

    def test_success_clears_a_quarantined_pair(self):
        quarantine = Quarantine()
        quarantine.record("v1", content_hash(V1), {"type": "Transient", "message": ""})
        session = LineageSession()
        ingest.apply(session, {"v1": [V1]}, quarantine)
        assert len(quarantine) == 0

    def test_redefinition_marks_the_superseded_record(self, tmp_path):
        with LineageSession(cache_dir=str(tmp_path / "cache")) as session:
            ingest.apply(session, {"v1": [V1]}, Quarantine())
            _, superseded = ingest.apply(session, {"v1": [V1_ALT]}, Quarantine())
            assert superseded == 1
            assert session.store.superseded_count() == 1

    def test_bad_input_still_raises_from_refresh_itself(self):
        session = LineageSession()
        with pytest.raises(Exception):
            session.refresh({"bad": POISON})
        assert session.result is None


# ----------------------------------------------------------------------
# isolation cost at preload scale: bisection, not one refresh per statement
# ----------------------------------------------------------------------
#: 2 * ceil(log2(2001)) + 1: one poison statement among 2,000 views
MAX_REFRESHES = 23


@pytest.fixture(scope="module")
def warehouse():
    return workload.generate_warehouse(num_base_tables=40, num_views=2000, seed=5)


@pytest.fixture(scope="module")
def clean_csv(warehouse):
    session = LineageSession(catalog=warehouse.catalog())
    session.refresh(dict(warehouse.views))
    return session.result.render("csv")


@pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
def test_daemon_preload_isolates_poison_in_few_refreshes(shuffled, warehouse, clean_csv):
    items = list(warehouse.views.items()) + [("bad", POISON)]
    if shuffled:
        random.Random(5).shuffle(items)

    async def go():
        app = LineageApp(catalog=warehouse.catalog())
        calls = _counting(app.session)
        app.batcher.start()
        try:
            await app.preload(dict(items))
            rows = app.batcher.quarantine.rows()
            return len(calls), rows, app.snapshots.current().graph
        finally:
            await app.stop()

    refreshes, rows, graph = asyncio.run(go())
    assert refreshes <= MAX_REFRESHES
    assert [row["name"] for row in rows] == ["bad"]
    assert render(graph, "csv") == clean_csv


def test_streamer_bootstrap_isolates_poison_in_few_refreshes(
    tmp_path, warehouse, clean_csv
):
    items = list(warehouse.views.items())
    # inside the first 1000-line batch, so the bootstrap has to bisect
    items.insert(random.Random(5).randrange(1000), ("bad", POISON))
    log = tmp_path / "q.jsonl"
    log.write_text(
        "".join(json.dumps({"name": name, "sql": sql}) + "\n" for name, sql in items)
    )
    with LineageSession(catalog=warehouse.catalog()) as session:
        calls = _counting(session)
        streamer = session.stream_log(str(log))
        stats = streamer.run()
        assert len(calls) <= MAX_REFRESHES
        assert [row["name"] for row in streamer.quarantine.rows()] == ["bad"]
        assert stats["quarantined"] == 1
        assert session.result.render("csv") == clean_csv
