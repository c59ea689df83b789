"""Tests for the unified Session API (config, engines, refresh, shims)."""

import dataclasses
import json

import pytest

from repro import (
    LineageResult,
    LineageSession,
    SessionConfig,
    lineagex,
    lineagex_dbt,
    lineagex_with_connection,
)
from repro.analysis.diff import diff_graphs
from repro.core.errors import SessionClosedError
from repro.datasets import example1
from repro.sources import DbtSource, TextSource


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.engine == "static"
        assert config.mode == "dag"
        assert config.use_stack is True
        assert config.collect_traces is False
        assert config.dialect == "postgres"

    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.engine = "plan"

    def test_replace_revalidates(self):
        config = SessionConfig().replace(engine="plan")
        assert config.engine == "plan"
        with pytest.raises(ValueError):
            config.replace(engine="quantum")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SessionConfig(engine="llm")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling mode"):
            SessionConfig(mode="random")

    def test_postgresql_dialect_alias(self):
        assert SessionConfig(dialect="postgresql").dialect == "postgres"

    def test_unsupported_dialect_rejected(self):
        with pytest.raises(ValueError, match="unsupported dialect"):
            SessionConfig(dialect="tsql")

    def test_kwarg_overrides_on_session(self):
        session = LineageSession(example1.QUERY_LOG, strict=True, mode="stack")
        assert session.config.strict is True
        assert session.config.mode == "stack"

    def test_config_plus_overrides(self):
        config = SessionConfig(strict=True)
        session = LineageSession(example1.QUERY_LOG, config=config, mode="stack")
        assert session.config.strict is True and session.config.mode == "stack"


class TestExtractOverAdapters:
    """extract() works over every source adapter with identical lineage."""

    EXPECTED = {"webinfo", "webact", "info"}

    def _views(self, result):
        return {entry.name for entry in result.graph.views}

    def test_text(self):
        result = LineageSession(example1.QUERY_LOG).extract()
        assert self._views(result) == self.EXPECTED

    def test_file(self, tmp_path):
        path = tmp_path / "log.sql"
        path.write_text(example1.QUERY_LOG)
        session = LineageSession(str(path))
        assert session.source.kind == "file"
        assert self._views(session.extract()) == self.EXPECTED

    def test_directory(self, tmp_path):
        for name, sql in (("q1", example1.Q1), ("q2", example1.Q2), ("q3", example1.Q3)):
            (tmp_path / f"{name}.sql").write_text(sql)
        session = LineageSession(str(tmp_path))
        assert session.source.kind == "directory"
        assert self._views(session.extract()) == self.EXPECTED

    def test_dbt(self):
        models = {
            "stg": "SELECT w.page, w.cid FROM {{ source('raw', 'web') }} w",
            "rpt": "SELECT s.page FROM {{ ref('stg') }} s",
        }
        session = LineageSession(models)
        assert session.source.kind == "dbt"
        result = session.extract()
        assert {entry.name for entry in result.graph.views} == {"stg", "rpt"}
        assert "raw.web" in result.graph

    def test_query_log(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        lines = [
            {"name": f"q{i}", "sql": sql, "timestamp": f"2026-07-0{i}T00:00:00Z"}
            for i, sql in enumerate((example1.Q1, example1.Q2, example1.Q3), start=1)
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines))
        session = LineageSession(str(path))
        assert session.source.kind == "query_log"
        result = session.extract()
        assert self._views(result) == self.EXPECTED
        baseline = lineagex(example1.QUERY_LOG)
        assert diff_graphs(result.graph, baseline.graph).is_identical

    def test_extract_without_source_raises(self):
        with pytest.raises(ValueError, match="no source"):
            LineageSession().extract()

    def test_extract_argument_replaces_source(self):
        session = LineageSession("SELECT t.a FROM t")
        result = session.extract(example1.QUERY_LOG)
        assert self._views(result) == self.EXPECTED


class TestEngineSelection:
    def test_static_and_plan_agree_on_example1(self):
        catalog = example1.base_table_catalog()
        static = LineageSession(example1.QUERY_LOG, catalog=catalog).extract()
        plan = LineageSession(
            example1.QUERY_LOG, catalog=catalog, engine="plan"
        ).extract()
        diff = diff_graphs(plan.graph, static.graph)
        assert diff.is_identical, diff.summary()
        assert static.report.mode == "dag"
        assert plan.report.mode == "plan"

    def test_both_engines_satisfy_the_result_protocol(self):
        catalog = example1.base_table_catalog()
        for engine in ("static", "plan"):
            result = LineageSession(
                example1.QUERY_LOG, catalog=catalog, engine=engine
            ).extract()
            assert isinstance(result, LineageResult)
            assert "relations" in result.to_dict()
            assert result.render("stats")

    def test_plan_report_parity_fields(self):
        result = LineageSession(
            example1.QUERY_LOG,
            catalog=example1.base_table_catalog(),
            engine="plan",
        ).extract()
        assert result.report.reused == []
        payload = result.report.to_dict()
        assert payload["mode"] == "plan"
        assert payload["order"] == ["webinfo", "webact", "info"]
        assert payload["deferral_count"] == 2

    def test_plan_engine_renders_through_registry(self):
        result = LineageSession(
            example1.QUERY_LOG,
            catalog=example1.base_table_catalog(),
            engine="plan",
        ).extract()
        assert "source,target,kind" in result.render("csv")
        assert result.render("markdown").startswith("# Lineage")


class TestShimEquivalence:
    def test_lineagex_equals_session_extract(self):
        legacy = lineagex(example1.QUERY_LOG)
        session = LineageSession(example1.QUERY_LOG).extract()
        assert diff_graphs(legacy.graph, session.graph).is_identical
        assert legacy.stats() == session.stats()

    def test_lineagex_with_connection_equals_plan_session(self):
        catalog = example1.base_table_catalog()
        legacy = lineagex_with_connection(example1.QUERY_LOG, catalog=catalog)
        session = LineageSession(
            example1.QUERY_LOG, catalog=catalog, engine="plan"
        ).extract()
        assert diff_graphs(legacy.graph, session.graph).is_identical

    def test_lineagex_dbt_equals_dbt_session(self):
        models = {
            "stg": "SELECT w.page FROM {{ source('raw', 'web') }} w",
            "rpt": "SELECT s.page FROM {{ ref('stg') }} s",
        }
        legacy = lineagex_dbt(dict(models))
        session = LineageSession(DbtSource(dict(models))).extract()
        assert diff_graphs(legacy.graph, session.graph).is_identical

    def test_lineagex_dbt_forwards_mode(self):
        models = {
            "rpt": "SELECT s.page FROM {{ ref('stg') }} s",
            "stg": "SELECT w.page FROM {{ source('raw', 'web') }} w",
        }
        result = lineagex_dbt(models, mode="stack")
        assert result.report.mode == "stack"
        assert lineagex_dbt(models).report.mode == "dag"

    def test_lineagex_dbt_forwards_collect_traces(self):
        models = {"stg": "SELECT w.page FROM {{ source('raw', 'web') }} w"}
        traced = lineagex_dbt(models, collect_traces=True)
        assert traced.report.traces
        assert not lineagex_dbt(models).report.traces

    def test_lineagex_pins_legacy_input_handling(self, tmp_path):
        # a directory with BOTH top-level .sql files and dbt markers:
        # the legacy shim must keep reading the top-level files (no source
        # auto-detection), while the session auto-detects a dbt project
        (tmp_path / "top.sql").write_text("CREATE VIEW top AS SELECT t.a FROM t")
        models = tmp_path / "models"
        models.mkdir()
        (models / "inner.sql").write_text("SELECT u.b FROM u")
        legacy = lineagex(str(tmp_path))
        assert {entry.name for entry in legacy.graph.views} == {"top"}
        session = LineageSession(str(tmp_path))
        assert session.source.kind == "dbt"
        assert {entry.name for entry in session.extract().graph.views} == {"inner"}

    def test_lineagex_dbt_stack_mode_equals_dag(self):
        models = {
            "stg": "SELECT w.page FROM {{ source('raw', 'web') }} w",
            "rpt": "SELECT s.page FROM {{ ref('stg') }} s",
        }
        stacked = lineagex_dbt(dict(models), mode="stack")
        planned = lineagex_dbt(dict(models))
        assert diff_graphs(stacked.graph, planned.graph).is_identical


class TestRefresh:
    def _directory_session(self, tmp_path):
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT t.a FROM t")
        (tmp_path / "w.sql").write_text("CREATE VIEW w AS SELECT v.a FROM v")
        (tmp_path / "x.sql").write_text("CREATE VIEW x AS SELECT u.b FROM u")
        return LineageSession(str(tmp_path))

    def test_rescan_refresh_matches_full_rerun(self, tmp_path):
        session = self._directory_session(tmp_path)
        session.extract()
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT t.c FROM t")
        refreshed = session.refresh()
        full = lineagex(str(tmp_path))
        diff = diff_graphs(refreshed.graph, full.graph)
        assert diff.is_identical, diff.summary()
        # x is independent of v and must have been spliced, not re-extracted
        assert "x" in refreshed.report.reused
        assert set(refreshed.report.order) == {"v", "w"}

    def test_rescan_refresh_picks_up_new_and_deleted_files(self, tmp_path):
        session = self._directory_session(tmp_path)
        session.extract()
        (tmp_path / "y.sql").write_text("CREATE VIEW y AS SELECT w.a FROM w")
        (tmp_path / "x.sql").unlink()
        refreshed = session.refresh()
        assert "y" in refreshed.graph
        assert "x" not in refreshed.graph

    def test_refresh_without_changes_returns_last_result(self, tmp_path):
        session = self._directory_session(tmp_path)
        result = session.extract()
        assert session.refresh() is result

    def test_whitespace_only_edit_splices_everything(self, tmp_path):
        session = self._directory_session(tmp_path)
        session.extract()
        # raw-text hash changes, but the canonical statement hash does not
        (tmp_path / "v.sql").write_text("CREATE   VIEW v AS\nSELECT t.a FROM t")
        refreshed = session.refresh()
        assert set(refreshed.report.reused) == {"v", "w", "x"}

    def test_explicit_changes_on_text_source(self):
        new_webinfo = (
            "CREATE VIEW webinfo AS "
            "SELECT c.cid AS wcid, w.date AS wdate, w.page AS wpage, w.reg AS wreg "
            "FROM customers c JOIN web w ON c.cid = w.cid"
        )
        session = LineageSession(example1.QUERY_LOG)
        session.extract()
        refreshed = session.refresh({"webinfo": new_webinfo})
        # equivalent full run: changed sources apply after the carried ones
        full = lineagex(example1.Q1 + example1.Q2 + new_webinfo)
        assert diff_graphs(refreshed.graph, full.graph).is_identical

    def test_rescan_requires_rescannable_source(self):
        session = LineageSession(example1.QUERY_LOG)
        session.extract()
        with pytest.raises(ValueError, match="cannot be re-scanned"):
            session.refresh()

    def test_refresh_before_extract_extracts(self):
        session = LineageSession(example1.QUERY_LOG)
        result = session.refresh()
        assert "info" in result.graph
        assert session.result is result

    def test_plan_engine_refresh_reruns_fully(self, tmp_path):
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT web.page FROM web")
        session = LineageSession(
            str(tmp_path), catalog=example1.base_table_catalog(), engine="plan"
        )
        session.extract()
        (tmp_path / "w.sql").write_text("CREATE VIEW w AS SELECT v.page FROM v")
        refreshed = session.refresh()
        assert set(refreshed.report.order) == {"v", "w"}
        assert refreshed.report.reused == []

    def test_successive_refreshes(self, tmp_path):
        session = self._directory_session(tmp_path)
        session.extract()
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT t.c FROM t")
        session.refresh()
        (tmp_path / "x.sql").write_text("CREATE VIEW x AS SELECT u.d FROM u")
        refreshed = session.refresh()
        assert set(refreshed.report.order) == {"x"}
        assert set(refreshed.report.reused) == {"v", "w"}
        assert diff_graphs(refreshed.graph, lineagex(str(tmp_path)).graph).is_identical


class TestSessionConveniences:
    def test_render_requires_extract(self):
        with pytest.raises(ValueError, match="extract"):
            LineageSession(example1.QUERY_LOG).render("text")

    def test_render_and_impact(self):
        session = LineageSession(example1.QUERY_LOG)
        session.extract()
        assert "webinfo (view)" in session.render("text")
        impact = session.impact("web.page")
        assert {str(c) for c in impact.all_columns} == example1.IMPACT_OF_WEB_PAGE

    def test_save(self, tmp_path):
        session = LineageSession(example1.QUERY_LOG)
        session.extract()
        json_path, html_path = session.save(str(tmp_path))
        assert json_path.endswith("lineagex.json") and html_path.endswith("lineagex.html")

    def test_repr(self):
        session = LineageSession(example1.QUERY_LOG, engine="static")
        assert "engine='static'" in repr(session)
        assert "extracted=False" in repr(session)

    def test_top_level_importability(self):
        import repro

        assert repro.LineageSession is LineageSession
        assert repro.SessionConfig is SessionConfig


class TestCacheAndExecutorConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.cache_dir is None

    def test_cache_dir_accepts_pathlike(self, tmp_path):
        config = SessionConfig(cache_dir=tmp_path)
        assert config.cache_dir == str(tmp_path)

    def test_session_without_cache_dir_has_no_store(self):
        session = LineageSession("SELECT 1 AS one")
        assert session.store is None

    def test_session_store_is_lazy_and_shared(self, tmp_path):
        session = LineageSession(
            "CREATE VIEW v AS SELECT a FROM t", cache_dir=str(tmp_path / "c")
        )
        assert session._store is None
        store = session.store
        assert store is session.store
        session.close()
        assert session._store is None

    def test_refresh_reuses_the_store(self, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / "a.sql").write_text("CREATE VIEW a AS SELECT x FROM base")
        (models / "b.sql").write_text("CREATE VIEW b AS SELECT x FROM a")
        cache_dir = str(tmp_path / "cache")
        with LineageSession(str(models), cache_dir=cache_dir) as session:
            session.extract()
            (models / "b.sql").write_text("CREATE VIEW b AS SELECT x, x AS x2 FROM a")
            refreshed = session.refresh()
            assert refreshed.report.reused_from.get("a") == "memory"
        # a fresh session over the edited corpus is fully store-warm
        with LineageSession(str(models), cache_dir=cache_dir) as session:
            warm = session.extract()
            assert warm.stats()["num_reused_store"] == 2


class TestClose:
    def test_close_is_idempotent(self, tmp_path):
        session = LineageSession(
            "CREATE VIEW v AS SELECT a FROM t", cache_dir=str(tmp_path / "c")
        )
        store = session.store
        session.close()
        assert session._store is None
        assert store.closed
        session.close()  # double-close: a no-op, not an error
        session.close()

    def test_close_without_ever_opening_the_store(self):
        session = LineageSession("SELECT 1 AS one")
        session.close()  # no cache_dir: nothing to release
        session.close()

    def test_close_when_the_lazy_open_failed(self, tmp_path, monkeypatch):
        # if the lazy LineageStore open raises, self._store is never
        # assigned — close() must still be safe
        import repro.store

        def exploding_store(*args, **kwargs):
            raise OSError("cache volume unavailable")

        monkeypatch.setattr(repro.store, "LineageStore", exploding_store)
        session = LineageSession(
            "CREATE VIEW v AS SELECT a FROM t", cache_dir=str(tmp_path / "c")
        )
        with pytest.raises(OSError):
            session.store  # the lazy open raises
        session.close()  # and close survives it
        assert session._store is None

    def test_close_swallows_store_close_errors(self, tmp_path):
        class ExplodingStore:
            def close(self):
                raise RuntimeError("disk on fire")

        session = LineageSession(
            "CREATE VIEW v AS SELECT a FROM t", cache_dir=str(tmp_path / "c")
        )
        session._store = ExplodingStore()
        session.close()  # the error is swallowed, the handle detached
        assert session._store is None


class TestCloseLifecycle:
    """close() is terminal for writes and safe against in-flight ones."""

    def test_extract_after_close_raises(self):
        session = LineageSession("CREATE VIEW v AS SELECT a FROM t")
        session.extract()
        session.close()
        with pytest.raises(SessionClosedError) as error:
            session.extract()
        assert error.value.operation == "extract"

    def test_refresh_after_close_raises(self):
        session = LineageSession("CREATE VIEW v AS SELECT a FROM t")
        session.extract()
        session.close()
        with pytest.raises(SessionClosedError):
            session.refresh(changes={"v": "CREATE VIEW v AS SELECT b FROM t"})

    def test_reads_survive_close(self):
        session = LineageSession("CREATE VIEW v AS SELECT a FROM t")
        result = session.extract()
        session.close()
        assert session.result is result  # the last result stays readable
        assert "v" in session.result.graph

    def test_close_during_in_flight_refresh_raises_and_adopts_nothing(self):
        import threading

        session = LineageSession("CREATE VIEW v AS SELECT a FROM t")
        before = session.extract()
        entered = threading.Event()
        release = threading.Event()
        real_update = before.update

        def slow_update(changes):
            entered.set()
            release.wait(timeout=10)
            return real_update(changes)

        session._result.update = slow_update
        raised = []

        def refresher():
            try:
                session.refresh(
                    changes={"v": "CREATE VIEW v AS SELECT b FROM t"}
                )
            except BaseException as error:  # noqa: BLE001 - recorded for assert
                raised.append(error)

        worker = threading.Thread(target=refresher)
        worker.start()
        assert entered.wait(timeout=10)
        session.close()  # lands while the refresh is mid-update
        release.set()
        worker.join(timeout=10)
        assert len(raised) == 1
        assert isinstance(raised[0], SessionClosedError)
        assert raised[0].operation == "refresh"
        # the torn refresh was not adopted: readers still see the
        # pre-close result, not one whose store flush was interrupted
        assert session.result is before


class TestSourcelessBootstrap:
    """refresh(changes=...) on a session built with no source (daemon shape)."""

    def test_first_delta_is_the_corpus(self):
        session = LineageSession()
        result = session.refresh(
            changes={"v": "CREATE VIEW v AS SELECT a FROM t"}
        )
        assert result is session.result
        assert "v" in result.graph

    def test_subsequent_deltas_are_incremental(self):
        session = LineageSession()
        session.refresh(changes={"v": "CREATE VIEW v AS SELECT a FROM t"})
        second = session.refresh(
            changes={"w": "CREATE VIEW w AS SELECT a FROM v"}
        )
        assert "v" in second.graph and "w" in second.graph
        assert "v" in getattr(second.report, "reused", ())

    def test_failed_bootstrap_leaves_a_clean_slate(self):
        session = LineageSession()
        with pytest.raises(Exception):
            session.refresh(changes={"bad": "CREATE VIEW bad AS SELEKT"})
        assert session.result is None
        assert session.source is None
        # and a good delta afterwards bootstraps normally
        result = session.refresh(
            changes={"v": "CREATE VIEW v AS SELECT a FROM t"}
        )
        assert "v" in result.graph

    def test_snapshot_before_extract_is_none(self):
        assert LineageSession().snapshot() is None

    def test_snapshot_is_frozen_and_pinned(self):
        from repro.core.lineage import FrozenLineageGraph

        session = LineageSession()
        session.refresh(changes={"v": "CREATE VIEW v AS SELECT a FROM t"})
        snapshot = session.snapshot()
        assert isinstance(snapshot, FrozenLineageGraph)
        session.refresh(changes={"w": "CREATE VIEW w AS SELECT a FROM v"})
        assert "w" not in snapshot
        assert "w" in session.snapshot()
