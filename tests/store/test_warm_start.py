"""Warm-start behaviour: store splicing through runner, session and CLI."""

import pytest

from repro.analysis.diff import diff_graphs
from repro.core.dag import DependencyDAG
from repro.core.errors import CyclicDependencyError
from repro.core.runner import LineageXRunner
from repro.datasets import workload
from repro.session import LineageSession
from repro.store import LineageStore

SQL = """
CREATE TABLE web (cid int, page text, date date);
CREATE VIEW staging AS SELECT cid, page FROM web WHERE date > '2024-01-01';
CREATE VIEW report AS SELECT s.page, count(*) AS hits FROM staging s GROUP BY s.page;
"""


def _run(tmp_path, sources=SQL, **kwargs):
    store = LineageStore(tmp_path / "cache")
    runner = LineageXRunner(store=store, **kwargs)
    result = runner.run(sources)
    store.close()
    return result


class TestRunnerWarmStart:
    def test_cold_run_stores_then_warm_run_splices(self, tmp_path):
        cold = _run(tmp_path)
        warm = _run(tmp_path)
        assert cold.stats()["num_reused_store"] == 0
        assert warm.stats()["num_reused_store"] == 2
        assert set(warm.report.reused) == {"staging", "report"}
        assert warm.report.reused_from == {"staging": "store", "report": "store"}
        assert diff_graphs(warm.graph, cold.graph).is_identical

    def test_warm_run_never_parses_lineage_entries(self, tmp_path):
        _run(tmp_path)
        store = LineageStore(tmp_path / "cache")
        result = LineageXRunner(store=store).run(SQL)
        for _, entry in result.query_dictionary.items():
            assert not entry.is_parsed, entry.identifier
        store.close()

    def test_content_change_reextracts_the_entry_alone(self, tmp_path):
        _run(tmp_path)
        changed = SQL.replace("date > '2024-01-01'", "date > '2025-01-01'")
        warm = _run(tmp_path, sources=changed)
        # staging changed -> it re-extracts; its columns did not, so
        # report's record, keyed on the columns it reads, still stands
        assert warm.report.order == ["staging"]
        assert warm.report.reused_from == {"report": "store"}
        # the second warm run over the changed corpus splices everything
        second = _run(tmp_path, sources=changed)
        assert set(second.report.reused) == {"staging", "report"}

    @pytest.mark.parametrize("mode", ["dag", "stack"])
    def test_column_preserving_edit_reextracts_one_entry(self, tmp_path, mode):
        warehouse = workload.generate_warehouse(
            num_base_tables=4, num_views=80, seed=3, deep_chain_probability=0.6
        )
        # out of dependency order, so the stack defers
        sources = dict(reversed(list(warehouse.views.items())))
        cold = _run(tmp_path, sources=sources, catalog=warehouse.catalog(), mode=mode)
        dag = DependencyDAG.from_query_dictionary(cold.query_dictionary)
        assert len(dag.transitive_dependents({"view_0"})) >= 10
        head, body = sources["view_0"].split(" AS ", 1)
        edited = {**sources, "view_0": f"{head} AS SELECT v.* FROM ({body}) v"}
        warm = _run(tmp_path, sources=edited, catalog=warehouse.catalog(), mode=mode)
        assert warm.report.order == ["view_0"]
        assert warm.stats()["num_reused_store"] == len(sources) - 1
        plain = LineageXRunner(catalog=warehouse.catalog(), mode=mode).run(edited)
        assert diff_graphs(warm.graph, plain.graph).is_identical

    def test_upstream_schema_change_invalidates_dependents(self, tmp_path):
        _run(tmp_path)
        changed = SQL.replace(
            "SELECT cid, page FROM web", "SELECT cid, page, date FROM web"
        )
        warm = _run(tmp_path, sources=changed)
        # staging's output columns changed -> report's schema fingerprint
        # misses even though report's SQL is untouched
        assert "report" not in warm.report.reused
        assert "staging" not in warm.report.reused

    def test_ddl_schema_change_invalidates_readers(self, tmp_path):
        _run(tmp_path)
        changed = SQL.replace(
            "CREATE TABLE web (cid int, page text, date date);",
            "CREATE TABLE web (cid int, page text, date date, country text);",
        )
        warm = _run(tmp_path, sources=changed)
        assert "staging" not in warm.report.reused

    def test_strict_mode_does_not_reuse_lenient_records(self, tmp_path):
        _run(tmp_path)
        warm = _run(tmp_path, strict=True)
        assert warm.report.reused == []

    def test_ablation_mode_bypasses_the_store(self, tmp_path):
        _run(tmp_path)
        warm = _run(tmp_path, use_stack=False)
        assert warm.report.reused == []

    def test_cycles_still_raise_on_warm_runs(self, tmp_path):
        cyclic = {
            "a": "CREATE VIEW a AS SELECT x FROM b",
            "b": "CREATE VIEW b AS SELECT x FROM a",
        }
        store = LineageStore(tmp_path / "cache")
        runner = LineageXRunner(store=store)
        with pytest.raises(CyclicDependencyError):
            runner.run(cyclic)
        with pytest.raises(CyclicDependencyError):
            runner.run(cyclic)
        store.close()

    def test_a_cycle_closed_over_a_stored_entry_still_raises(self, tmp_path):
        # b's record is keyed on a as an unknown relation, which is what a
        # pending a looks like: looked up before a settled, b would splice
        # and let the cycle through
        _run(tmp_path, sources={"b": "CREATE VIEW b AS SELECT x FROM a"})
        cyclic = {
            "b": "CREATE VIEW b AS SELECT x FROM a",
            "a": "CREATE VIEW a AS SELECT x FROM b",
        }
        for mode in ("dag", "stack"):
            store = LineageStore(tmp_path / "cache")
            try:
                with pytest.raises(CyclicDependencyError):
                    LineageXRunner(store=store, mode=mode).run(cyclic)
            finally:
                store.close()

    def test_an_input_defined_later_settles_before_the_lookup(self, tmp_path):
        # r's record is keyed on v as an unknown relation; in stack mode r
        # comes first, and must not be looked up while v is pending
        reader = "CREATE VIEW r AS SELECT * FROM v"
        _run(tmp_path, sources={"r": reader})
        sources = {"r": reader, "v": "CREATE VIEW v AS SELECT t.a, t.b FROM t"}
        warm = _run(tmp_path, sources=sources, mode="stack")
        assert warm.report.order == ["v", "r"]
        plain = LineageXRunner(mode="stack").run(sources)
        assert diff_graphs(warm.graph, plain.graph).is_identical

    def test_streaming_stack_mode_warm_run_holds_no_ast(self, tmp_path):
        # out of dependency order, stack mode parses an entry it attempts
        # before its input is spliced; streaming must drop that AST too
        warehouse = workload.generate_warehouse(num_base_tables=4, num_views=60, seed=13)
        sources = dict(reversed(list(warehouse.views.items())))
        options = {"catalog": warehouse.catalog(), "mode": "stack", "stream": True}
        _run(tmp_path, sources=sources, **options)
        warm = _run(tmp_path, sources=sources, **options)
        assert warm.report.order == []
        assert warm.report.deferral_count > 0
        assert not any(entry.is_parsed for _, entry in warm.query_dictionary.items())

    def test_warm_start_at_scale_splices_everything(self, tmp_path):
        warehouse = workload.generate_warehouse(
            num_base_tables=5, num_views=60, seed=13
        )
        sources = dict(warehouse.views)
        cold = _run(tmp_path, sources=sources, catalog=warehouse.catalog())
        warm = _run(tmp_path, sources=sources, catalog=warehouse.catalog())
        assert warm.stats()["num_reused_store"] == 60
        assert diff_graphs(warm.graph, cold.graph).is_identical

    def test_memory_and_store_splices_are_distinguished(self, tmp_path):
        store = LineageStore(tmp_path / "cache")
        runner = LineageXRunner(store=store)
        baseline = runner.run(SQL)
        updated = baseline.update(
            {"extra": "CREATE VIEW extra AS SELECT page FROM staging"}
        )
        origins = updated.report.reused_from
        assert origins["staging"] == "memory"
        assert origins["report"] == "memory"
        stats = updated.stats()
        assert stats["num_reused_memory"] == 2
        assert stats["num_reused_store"] == 0
        store.close()

    def test_refresh_after_revert_hits_the_store(self, tmp_path):
        store = LineageStore(tmp_path / "cache")
        runner = LineageXRunner(store=store)
        baseline = runner.run(SQL)
        edited = baseline.update(
            {"report": "CREATE VIEW report AS SELECT page FROM staging"}
        )
        assert "report" not in edited.report.reused
        reverted = edited.update(
            {
                "report": "CREATE VIEW report AS SELECT s.page, count(*) AS hits "
                "FROM staging s GROUP BY s.page"
            }
        )
        # the original definition's record is still in the store
        assert reverted.report.reused_from.get("report") == "store"
        assert diff_graphs(reverted.graph, baseline.graph).is_identical
        store.close()

    def test_revert_of_a_read_view_hits_the_store_for_its_readers(self, tmp_path):
        # the edit widens staging, so report is re-extracted against the
        # wider columns; the revert narrows it back, and report's record
        # keyed on the original columns is still in the store
        store = LineageStore(tmp_path / "cache")
        runner = LineageXRunner(store=store)
        baseline = runner.run(SQL)
        edited = baseline.update(
            {"staging": "CREATE VIEW staging AS SELECT cid, page, date FROM web"}
        )
        assert edited.report.order == ["staging", "report"]
        reverted = edited.update(
            {
                "staging": "CREATE VIEW staging AS SELECT cid, page FROM web "
                "WHERE date > '2024-01-01'"
            }
        )
        assert reverted.report.order == []
        assert reverted.report.reused_from["staging"] == "store"
        assert reverted.report.reused_from["report"] == "store"
        assert reverted.stats()["num_reused_store"] == 2
        assert diff_graphs(reverted.graph, baseline.graph).is_identical
        store.close()


class TestSessionWarmStart:
    def test_sessions_share_the_store_across_processes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with LineageSession(SQL, cache_dir=str(cache_dir)) as first:
            cold = first.extract()
        with LineageSession(SQL, cache_dir=str(cache_dir)) as second:
            warm = second.extract()
        assert warm.stats()["num_reused_store"] == 2
        assert diff_graphs(warm.graph, cold.graph).is_identical

    def test_cache_stats_surface(self, tmp_path):
        with LineageSession(SQL, cache_dir=str(tmp_path / "cache")) as session:
            session.extract()
            stats = session.cache_stats()
        assert stats["entries"] == 2
        assert stats["session_puts"] == 2

    def test_cache_stats_without_cache_dir_raises(self):
        session = LineageSession(SQL)
        with pytest.raises(ValueError):
            session.cache_stats()

    def test_plan_engine_ignores_the_store(self, tmp_path):
        from repro.catalog.introspect import catalog_from_sql

        catalog = catalog_from_sql(
            "CREATE TABLE web (cid int, page text, date date)"
        )
        cache_dir = str(tmp_path / "cache")
        with LineageSession(
            SQL, catalog=catalog, engine="plan", cache_dir=cache_dir
        ) as session:
            result = session.extract()
        assert result.report.reused == []

    def test_directory_source_warm_start(self, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / "staging.sql").write_text(
            "CREATE VIEW staging AS SELECT cid, page FROM web"
        )
        (models / "report.sql").write_text(
            "CREATE VIEW report AS SELECT page FROM staging"
        )
        cache_dir = str(tmp_path / "cache")
        with LineageSession(str(models), cache_dir=cache_dir) as first:
            first.extract()
        with LineageSession(str(models), cache_dir=cache_dir) as second:
            warm = second.extract()
        assert warm.stats()["num_reused_store"] == 2


class TestSelfReferenceSoundness:
    """Queries reading the relation they write (INSERT INTO t ... FROM t)."""

    SELF_SQL = (
        "CREATE TABLE t (x int, y int);\n"
        "INSERT INTO t SELECT * FROM t;\n"
    )

    def test_self_read_schema_change_invalidates_warm_hit(self, tmp_path):
        cold = _run(tmp_path, sources=self.SELF_SQL)
        assert "t.y" in cold.render("csv")
        changed = self.SELF_SQL.replace("(x int, y int)", "(x int, y int, z int)")
        warm = _run(tmp_path, sources=changed)
        # the INSERT's SQL is unchanged, but the self-read table's schema is
        # part of its fingerprint -> no stale hit, and t.z lineage appears
        assert "t" not in warm.report.reused
        assert "t.z" in warm.render("csv")
        plain = LineageXRunner().run(changed)
        assert diff_graphs(warm.graph, plain.graph).is_identical

    def test_unchanged_self_read_still_splices(self, tmp_path):
        _run(tmp_path, sources=self.SELF_SQL)
        warm = _run(tmp_path, sources=self.SELF_SQL)
        assert warm.report.reused == ["t"]


class TestVersionSkew:
    """Records written by an older extractor must miss cleanly and heal."""

    def test_old_extractor_version_records_cold_miss_then_heal(
        self, tmp_path, monkeypatch
    ):
        import repro.core.runner as runner_module

        # simulate a store populated by the pre-PR extractor: every lineage
        # record is keyed under the previous EXTRACTOR_VERSION
        monkeypatch.setattr(
            runner_module, "EXTRACTOR_VERSION", runner_module.EXTRACTOR_VERSION - 1
        )
        old = _run(tmp_path)
        assert old.stats()["num_reused_store"] == 0
        monkeypatch.undo()

        # under the current version every old record is a silent cold miss:
        # the run re-extracts everything and re-persists under the new key
        warm = _run(tmp_path)
        assert warm.report.reused == []
        assert diff_graphs(warm.graph, old.graph).is_identical

        # ... so the store heals: the next run splices everything again
        healed = _run(tmp_path)
        assert set(healed.report.reused) == {"staging", "report"}
        assert diff_graphs(healed.graph, old.graph).is_identical

    def test_old_parse_record_version_is_a_cold_miss(self, tmp_path, monkeypatch):
        import importlib

        # repro.core re-exports the preprocess *function*, which shadows the
        # module attribute "import ... as" resolves through
        preprocess_module = importlib.import_module("repro.core.preprocess")

        monkeypatch.setattr(
            preprocess_module,
            "PARSE_RECORD_VERSION",
            preprocess_module.PARSE_RECORD_VERSION - 1,
        )
        _run(tmp_path)
        monkeypatch.undo()

        # parse records are keyed on PARSE_RECORD_VERSION: a version bump
        # means the fragments re-parse (entries are eagerly parsed again)
        store = LineageStore(tmp_path / "cache")
        result = LineageXRunner(store=store).run(SQL)
        store.close()
        assert all(entry.is_parsed for _, entry in result.query_dictionary.items())

    def test_merge_statements_warm_start(self, tmp_path):
        """The new statement kinds round-trip through the store."""
        sql = (
            "CREATE TABLE tgt (id int, amount int);\n"
            "CREATE TABLE src (id int, amount int, flag bool);\n"
            "CREATE VIEW picks AS SELECT s.id, s.amount, s.flag FROM src s;\n"
            "MERGE INTO tgt AS t USING picks AS p ON t.id = p.id "
            "WHEN MATCHED AND p.flag THEN UPDATE SET amount = p.amount "
            "WHEN NOT MATCHED THEN INSERT (id, amount) VALUES (p.id, p.amount);\n"
            "CREATE VIEW report AS SELECT t.amount FROM tgt t;\n"
        )
        cold = _run(tmp_path, sources=sql)
        warm = _run(tmp_path, sources=sql)
        assert set(warm.report.reused) == {"picks", "tgt", "report"}
        assert diff_graphs(warm.graph, cold.graph).is_identical

    def test_merge_target_ddl_change_invalidates_the_merge_record(self, tmp_path):
        sql = (
            "CREATE TABLE tgt (id int, amount int);\n"
            "CREATE TABLE src (id int, amount int);\n"
            "MERGE INTO tgt USING src AS s ON tgt.id = s.id "
            "WHEN MATCHED THEN UPDATE SET amount = s.amount;\n"
        )
        _run(tmp_path, sources=sql)
        changed = sql.replace(
            "CREATE TABLE tgt (id int, amount int);",
            "CREATE TABLE tgt (id int, amount int, extra int);",
        )
        warm = _run(tmp_path, sources=changed)
        # the MERGE's SQL is unchanged but its written target's schema is
        # part of the fingerprint -> no stale warm hit
        assert "tgt" not in warm.report.reused


class TestParseCacheCorruption:
    def test_poisoned_statement_record_degrades_to_cold_retry(self, tmp_path):
        import sqlite3

        from repro.store.store import STORE_FILENAME

        cold = _run(tmp_path)
        # tamper every cached statement_sql into non-SQL that still passes
        # the structural validation, and drop the lineage records so the
        # poisoned entries would actually need their ASTs
        db_path = tmp_path / "cache" / STORE_FILENAME
        connection = sqlite3.connect(db_path)
        rows = connection.execute("SELECT source_key, record FROM source_records").fetchall()
        import json as json_module

        for key, text in rows:
            records = json_module.loads(text)
            for record in records:
                if record.get("statement_sql"):
                    record["statement_sql"] = "CREATE VIEW broken AS SELEC"
            connection.execute(
                "UPDATE source_records SET record = ? WHERE source_key = ?",
                (json_module.dumps(records), key),
            )
        connection.execute("DELETE FROM lineage_records")
        connection.commit()
        connection.close()

        recovered = _run(tmp_path)
        assert diff_graphs(recovered.graph, cold.graph).is_identical
        # the retry overwrote the poisoned records: the next run is warm again
        healed = _run(tmp_path)
        assert set(healed.report.reused) == {"staging", "report"}
