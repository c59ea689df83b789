"""Tests for incremental re-extraction (content hashing + early cutoff).

``LineageXRunner.run_incremental`` / ``LineageXResult.update`` take a
*delta* — ``{identifier: new_sql}`` with ``None`` meaning removal — and must
produce a graph identical to a full re-run over the merged sources while
re-extracting only the changed entries plus the transitive DAG dependents
for which a relation they read changed its column list.
"""

import pytest

from repro.analysis.diff import diff_graphs
from repro.core.runner import LineageXRunner, lineagex
from repro.datasets import example1, workload


SOURCES = {
    "info": example1.Q1,
    "webact": example1.Q2,
    "webinfo": example1.Q3,
}


def apply_changes(sources, changes):
    merged = dict(sources)
    for key, sql in changes.items():
        if sql is None:
            merged.pop(key, None)
        else:
            merged[key] = sql
    return merged


def full_and_incremental(prev_result, changes, runner=None, sources=SOURCES):
    runner = runner or LineageXRunner()
    incremental = runner.run_incremental(prev_result, changes)
    full = runner.run(apply_changes(sources, changes))
    return incremental, full


def _read_columns(result, reader, name):
    """The column list ``reader``'s extraction reads for ``name`` in
    ``result``: a view's output, else (and for a self-read) the catalog's."""
    entry = result.graph.relations.get(name)
    if name != reader and entry is not None and not entry.is_base_table:
        return entry.output_columns
    table = result.catalog.get(name)
    return table.column_names() if table is not None else None


def expected_reextracted(baseline, full):
    """The entries an incremental run from ``baseline`` must re-extract.

    An oracle taken from two full runs: the entries whose content changed,
    plus every entry reading a relation whose column list differs between
    ``baseline`` and ``full``.
    """
    changed = {
        identifier
        for identifier, value in full.source_hashes.items()
        if baseline.source_hashes.get(identifier) != value
    }
    return changed | {
        identifier
        for identifier, entry in full.query_dictionary.items()
        if any(
            _read_columns(baseline, identifier, name)
            != _read_columns(full, identifier, name)
            for name in entry.table_refs()
        )
    }


class TestContentHashing:
    def test_hashes_recorded_per_entry(self):
        result = lineagex(dict(SOURCES))
        assert set(result.source_hashes) == {"webinfo", "webact", "info"}

    def test_whitespace_change_is_not_a_change(self):
        result = lineagex(dict(SOURCES))
        reformatted = "  " + SOURCES["webact"].replace("SELECT", "SELECT\n  ", 1)
        updated = LineageXRunner().run_incremental(result, {"webact": reformatted})
        # canonical-form hashing: nothing is dirty, everything is spliced
        assert sorted(updated.report.reused) == ["info", "webact", "webinfo"]
        assert updated.report.order == []
        assert diff_graphs(updated.graph, result.graph).is_identical


class TestIncrementalCorrectness:
    def test_update_one_query_equals_full_rerun(self):
        prev = lineagex(dict(SOURCES))
        # narrow webinfo to three columns; webact and info must follow
        changes = {
            "webinfo": (
                "CREATE VIEW webinfo AS SELECT web.cid, web.date, web.page "
                "FROM web WHERE web.date > 5"
            )
        }
        incremental, full = full_and_incremental(prev, changes)
        diff = diff_graphs(incremental.graph, full.graph)
        assert diff.is_identical, diff.summary()

    def test_only_dirty_entries_re_extracted(self):
        prev = lineagex(dict(SOURCES))
        changes = {
            "webact": (
                "CREATE VIEW webact AS SELECT webinfo.wcid, webinfo.wpage "
                "FROM webinfo"
            )
        }
        incremental = LineageXRunner().run_incremental(prev, changes)
        # webinfo is upstream of the change: spliced, not re-extracted
        assert incremental.report.reused == ["webinfo"]
        assert set(incremental.report.order) == {"webact", "info"}

    def test_changing_a_leaf_reuses_everything_else(self):
        prev = lineagex(dict(SOURCES))
        changes = {
            "info": (
                "CREATE VIEW info AS SELECT c.name FROM customers c, webact w "
                "WHERE c.cid = w.wcid"
            )
        }
        incremental, full = full_and_incremental(prev, changes)
        assert sorted(incremental.report.reused) == ["webact", "webinfo"]
        assert incremental.report.order == ["info"]
        assert diff_graphs(incremental.graph, full.graph).is_identical

    def test_adding_a_new_query(self):
        prev = lineagex(dict(SOURCES))
        changes = {
            "report_view": (
                "CREATE VIEW report_view AS SELECT info.name, info.wpage FROM info"
            )
        }
        incremental, full = full_and_incremental(prev, changes)
        assert incremental.report.order == ["report_view"]
        assert sorted(incremental.report.reused) == ["info", "webact", "webinfo"]
        assert diff_graphs(incremental.graph, full.graph).is_identical

    def test_removing_a_query_invalidates_its_dependents(self):
        prev = lineagex(dict(SOURCES))
        incremental, full = full_and_incremental(prev, {"webinfo": None})
        # webact read webinfo, which becomes an external table of unknown
        # schema, so webact is re-extracted; its column list comes out the
        # same, so info (which reads webact) is spliced
        assert incremental.report.order == ["webact"]
        assert incremental.report.reused == ["info"]
        assert (
            incremental.graph["webact"].output_columns
            == prev.graph["webact"].output_columns
        )
        assert "webinfo" not in {v.name for v in incremental.graph.views}
        assert diff_graphs(incremental.graph, full.graph).is_identical

    def test_unchanged_entries_are_not_reparsed(self):
        prev = lineagex(dict(SOURCES))
        updated = prev.update(
            {"info": "CREATE VIEW info AS SELECT webact.wcid FROM webact"}
        )
        # the untouched entries reuse the very same parsed statements
        for name in ("webinfo", "webact"):
            assert updated.query_dictionary.get(name) is prev.query_dictionary.get(name)
        assert updated.query_dictionary.get("info") is not prev.query_dictionary.get("info")

    def test_ddl_change_dirties_readers(self):
        # widening a CREATE TABLE must re-extract the views reading it even
        # though no Query Dictionary entry changed
        prev = lineagex(
            {
                "ddl": "CREATE TABLE t (a integer, b integer)",
                "v": "CREATE VIEW v AS SELECT * FROM t",
            }
        )
        assert prev.graph["v"].output_columns == ["a", "b"]
        updated = prev.update(
            {"ddl": "CREATE TABLE t (a integer, b integer, c integer)"}
        )
        assert updated.graph["v"].output_columns == ["a", "b", "c"]
        assert updated.catalog.columns_of("t") == ["a", "b", "c"]
        full = lineagex(
            {
                "ddl": "CREATE TABLE t (a integer, b integer, c integer)",
                "v": "CREATE VIEW v AS SELECT * FROM t",
            }
        )
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_warnings_survive_an_unrelated_update(self):
        prev = lineagex(
            {
                "a": "CREATE VIEW a AS SELECT t.x FROM t; UPDATE a SET x = 1",
                "b": "CREATE VIEW b AS SELECT t.y FROM t",
            }
        )
        assert any("UPDATE" in warning for warning in prev.warnings)
        updated = prev.update({"b": "CREATE VIEW b AS SELECT t.z FROM t"})
        assert any("UPDATE" in warning for warning in updated.warnings)

    def test_ddl_dropped_from_replaced_source(self):
        # a replaced source that no longer declares its CREATE TABLE must
        # drop the schema from the catalog and dirty the readers
        prev = lineagex(
            {"v": "CREATE TABLE t (x integer, y integer); "
                  "CREATE VIEW v AS SELECT * FROM t"}
        )
        assert prev.graph["v"].output_columns == ["x", "y"]
        updated = prev.update({"v": "CREATE VIEW v AS SELECT * FROM t"})
        full = lineagex({"v": "CREATE VIEW v AS SELECT * FROM t"})
        assert updated.catalog.get("t") is None
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_replaced_source_purges_orphaned_entries(self):
        # shrinking a multi-statement source must not leave stale entries
        prev = lineagex(
            {"s": "CREATE VIEW a AS SELECT t.x FROM t; "
                  "CREATE VIEW b AS SELECT t.y FROM t"}
        )
        assert {"a", "b"} <= set(prev.graph.relations)
        updated = prev.update({"s": "CREATE VIEW a AS SELECT t.x FROM t"})
        full = lineagex({"s": "CREATE VIEW a AS SELECT t.x FROM t"})
        assert "b" not in updated.graph
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_removing_a_ddl_bearing_source(self):
        prev = lineagex(
            {
                "schema": "CREATE TABLE t (a integer, b integer)",
                "v": "CREATE VIEW v AS SELECT * FROM t",
            }
        )
        updated = prev.update({"schema": None})
        full = lineagex({"v": "CREATE VIEW v AS SELECT * FROM t"})
        assert updated.catalog.get("t") is None
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_shadowed_cte_does_not_hide_a_dependency(self):
        # a subquery-local CTE named like the changed view must not stop
        # the incremental layer from dirtying the real dependent
        prev = lineagex(
            {
                "sales": "CREATE VIEW sales AS SELECT t.a AS amount FROM t",
                "rpt": "CREATE VIEW rpt AS SELECT s.* FROM sales s JOIN "
                       "(WITH sales AS (SELECT 1 AS one) SELECT one FROM sales) z "
                       "ON 1 = 1",
            }
        )
        updated = prev.update(
            {"sales": "CREATE VIEW sales AS SELECT t.b AS amount2 FROM t"}
        )
        assert "rpt" in updated.report.order
        assert updated.graph["rpt"].output_columns[0] == "amount2"

    def test_removed_source_does_not_erase_unchanged_duplicate_ddl(self):
        # two sources declare the same table; removing one must keep the
        # schema the unchanged source still declares
        prev = lineagex(
            {
                "a": "CREATE TABLE t (x integer, y integer)",
                "b": "CREATE TABLE t (x integer, y integer)",
                "v": "CREATE VIEW v AS SELECT * FROM t",
            }
        )
        updated = prev.update({"a": None})
        full = lineagex(
            {
                "b": "CREATE TABLE t (x integer, y integer)",
                "v": "CREATE VIEW v AS SELECT * FROM t",
            }
        )
        assert updated.catalog.columns_of("t") == ["x", "y"]
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_cross_source_update_statement_still_deduped(self):
        # an UPDATE arriving via a *different* source must not overwrite the
        # CREATE that defines the relation (mirrors the full-run dedup)
        prev = lineagex(
            {
                "a": "CREATE TABLE t (x integer); CREATE VIEW v AS SELECT x FROM t",
                "b": "UPDATE v SET x = 1",
            }
        )
        updated = prev.update({"b": "UPDATE v SET x = 2"})
        full = lineagex(
            {
                "a": "CREATE TABLE t (x integer); CREATE VIEW v AS SELECT x FROM t",
                "b": "UPDATE v SET x = 2",
            }
        )
        assert updated.query_dictionary.get("v").kind == "view"
        assert any("UPDATE" in warning for warning in updated.warnings)
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_removed_relation_redefined_by_another_source(self):
        # removing source 'a' while source 'c' redefines the same relation
        # must keep the new definition
        prev = lineagex(
            {
                "a": "CREATE VIEW a AS SELECT 1 AS x",
                "b": "CREATE VIEW b AS SELECT a.x FROM a",
            }
        )
        updated = prev.update({"a": None, "c": "CREATE VIEW a AS SELECT 2 AS x"})
        full = lineagex(
            {
                "b": "CREATE VIEW b AS SELECT a.x FROM a",
                "c": "CREATE VIEW a AS SELECT 2 AS x",
            }
        )
        assert "a" in updated.graph
        assert not updated.graph["a"].is_base_table
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_window_clause_dependency_dirties_reader(self):
        # a relation referenced only inside a named WINDOW clause (a
        # tuple-valued AST field) must still count as a DAG dependency
        prev = lineagex(
            {
                "dim": "CREATE VIEW dim AS SELECT 1 AS m",
                "v": "CREATE VIEW v AS SELECT sum(a) OVER w AS s FROM t "
                     "WINDOW w AS (PARTITION BY (SELECT m FROM dim))",
            }
        )
        updated = prev.update({"dim": "CREATE VIEW dim AS SELECT 2 AS m, 3 AS n"})
        assert "v" in updated.report.order
        assert "v" not in updated.report.reused

    def test_drop_in_changed_fragment_does_not_supersede_unchanged_create(self):
        # a DROP TABLE in a changed fragment must not erase the CREATE TABLE
        # an unchanged source still declares from the merged dictionary; the
        # delta's DDL applies *after* the carried-over DDL (migration-style),
        # so the equivalent full run orders the changed source last
        prev = lineagex(
            {
                "a": "CREATE VIEW v AS SELECT t.x FROM t",
                "b": "CREATE TABLE t (x integer, y integer)",
            }
        )
        updated = prev.update(
            {"a": "DROP TABLE t; CREATE VIEW v AS SELECT t.x FROM t"}
        )
        # the unchanged CREATE TABLE is still in the merged dictionary ...
        from repro.sqlparser import ast

        assert any(
            isinstance(s, ast.CreateTable)
            for s in updated.query_dictionary.ddl_statements
        )
        # ... and the result equals a full run with the delta's DDL last
        full = lineagex(
            {
                "b": "CREATE TABLE t (x integer, y integer)",
                "a": "DROP TABLE t; CREATE VIEW v AS SELECT t.x FROM t",
            }
        )
        assert updated.catalog.get("t") == full.catalog.get("t")
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_create_in_changed_fragment_supersedes_only_same_relation(self):
        # a CREATE TABLE in a delta replaces the prior schema of that
        # relation but leaves other relations' DDL untouched
        prev = lineagex(
            {
                "ddl": "CREATE TABLE t (x integer); CREATE TABLE u (k integer)",
                "v": "CREATE VIEW v AS SELECT * FROM t",
                "w": "CREATE VIEW w AS SELECT * FROM u",
            }
        )
        updated = prev.update(
            {"patch": "CREATE TABLE t (x integer, z integer)"}
        )
        assert updated.catalog.columns_of("t") == ["x", "z"]
        assert updated.catalog.columns_of("u") == ["k"]
        assert updated.graph["v"].output_columns == ["x", "z"]
        assert updated.graph["w"].output_columns == ["k"]

    def test_cross_source_update_never_overwrites_another_sources_entry(self):
        # the full-run dedup ignores a later UPDATE whenever the identifier
        # is already defined — even when the earlier entry is itself an
        # UPDATE from a different source
        prev = lineagex(
            {
                "a": "UPDATE r SET x = s.a FROM s",
                "b": "CREATE VIEW w AS SELECT t.k FROM t",
            }
        )
        updated = prev.update(
            {"b": "CREATE VIEW w AS SELECT t.k FROM t; UPDATE r SET x = z.q FROM z"}
        )
        full = lineagex(
            {
                "a": "UPDATE r SET x = s.a FROM s",
                "b": "CREATE VIEW w AS SELECT t.k FROM t; UPDATE r SET x = z.q FROM z",
            }
        )
        assert diff_graphs(updated.graph, full.graph).is_identical
        assert any("UPDATE" in warning for warning in updated.warnings)

    def test_ddl_carried_over(self):
        prev = lineagex(
            "CREATE TABLE t (a integer, b integer);"
            "CREATE VIEW v AS SELECT * FROM t;"
            "CREATE VIEW w AS SELECT v.a FROM v"
        )
        updated = prev.update({"w": "CREATE VIEW w AS SELECT v.b FROM v"})
        # the CREATE TABLE DDL still seeds the catalog of the new run
        assert updated.catalog.columns_of("t") == ["a", "b"]
        assert updated.graph["v"].output_columns == ["a", "b"]
        assert updated.report.reused == ["v"]

    def test_incremental_on_generated_warehouse(self):
        warehouse = workload.generate_warehouse(
            num_base_tables=4, num_views=30, seed=13
        )
        sources = dict(warehouse.views)
        runner = LineageXRunner(catalog=warehouse.catalog())
        prev = runner.run(sources)
        # replace one mid-pipeline view with a projection of a base table
        target = "view_5"
        changes = {target: f"CREATE VIEW {target} AS SELECT b.id FROM base_0 b"}
        incremental, full = full_and_incremental(
            prev, changes, runner=runner, sources=sources
        )
        diff = diff_graphs(incremental.graph, full.graph)
        assert diff.is_identical, diff.summary()
        # the re-extracted set is exactly the change plus the readers of a
        # relation whose column list changed
        expected = expected_reextracted(prev, full)
        assert target in expected
        assert set(incremental.report.order) == expected
        assert set(incremental.report.reused) == set(sources) - expected


#: t -> a -> (b1, b2) -> c -> d, dependents listed first so that the stack
#: mode defers on every edge
FAN = {
    "d": "CREATE VIEW d AS SELECT * FROM c",
    "c": "CREATE VIEW c AS SELECT b1.x, b2.y FROM b1 JOIN b2 ON b1.x = b2.x",
    "b2": "CREATE VIEW b2 AS SELECT * FROM a",
    "b1": "CREATE VIEW b1 AS SELECT * FROM a",
    "a": "CREATE VIEW a AS SELECT t.x, t.y FROM t",
}
KEEP_COLUMNS = {"a": "CREATE VIEW a AS SELECT t.x, t.y FROM t WHERE t.x > 0"}
REORDER_COLUMNS = {"a": "CREATE VIEW a AS SELECT t.y, t.x FROM t"}
ADD_COLUMN = {"a": "CREATE VIEW a AS SELECT t.x, t.y, t.z FROM t"}


def update_matches_full_run(sources, changes, **options):
    """``(prev, updated)``; ``updated`` is checked against a full re-run."""
    prev = LineageXRunner(**options).run(dict(sources))
    updated = prev.update(changes)
    full = LineageXRunner(**options).run(apply_changes(sources, changes))
    diff = diff_graphs(updated.graph, full.graph)
    assert diff.is_identical, diff.summary()
    assert set(updated.report.order) == expected_reextracted(prev, full)
    return prev, updated


class TestEarlyCutoff:
    def test_schema_preserving_edit_splices_a_deep_chain(self):
        prev, updated = update_matches_full_run(FAN, KEEP_COLUMNS)
        assert updated.report.order == ["a"]
        assert updated.report.reused == ["d", "c", "b2", "b1"]
        assert set(updated.report.reused_from.values()) == {"memory"}
        for name in ("b1", "b2", "c", "d"):
            assert updated.graph[name] is prev.graph[name]
        # spliced entries keep their places, so after a second edit the next
        # snapshot re-indexes the edited view and the base table it reads
        again = updated.update(
            {"a": "CREATE VIEW a AS SELECT t.x, t.y FROM t WHERE t.y > 0"}
        )
        seed = updated.graph.freeze().reachability(build=False)
        assert again.graph.freeze(reach_seed=seed)._index.changed == ["a", "t"]

    def test_column_reorder_reextracts_select_star_dependents(self):
        _, updated = update_matches_full_run(FAN, REORDER_COLUMNS)
        assert updated.graph["b1"].output_columns == ["y", "x"]
        assert updated.graph["b2"].output_columns == ["y", "x"]
        assert updated.report.order == ["a", "b2", "b1", "c"]
        assert updated.report.reused == ["d"]

    def test_schema_change_stops_where_outputs_are_unchanged(self):
        prev, updated = update_matches_full_run(FAN, ADD_COLUMN)
        # c reads the widened b1/b2 but still outputs (x, y): d is spliced
        assert updated.report.order == ["a", "b2", "b1", "c"]
        assert updated.graph["c"].output_columns == prev.graph["c"].output_columns
        assert updated.report.reused == ["d"]

    def test_self_reading_insert_follows_its_own_schema(self):
        sources = {
            "ddl": "CREATE TABLE t (a integer, b integer)",
            "ins": "INSERT INTO t SELECT * FROM t",
        }
        _, updated = update_matches_full_run(
            sources, {"ddl": "CREATE TABLE t (a integer, b integer, c integer)"}
        )
        # the self-read resolves through the catalog, which gained a column
        assert updated.report.order == ["t"]
        assert updated.graph["t"].output_columns == ["a", "b", "c"]

    def test_self_reading_update_from_compares_its_other_inputs(self):
        sources = {
            "ddl": "CREATE TABLE t (a integer, b integer)",
            "s": "CREATE VIEW s AS SELECT u.x, u.y FROM u",
            "upd": "UPDATE t SET a = s.x FROM s WHERE t.b = s.y",
        }
        _, kept = update_matches_full_run(
            sources, {"s": "CREATE VIEW s AS SELECT u.x, u.y FROM u WHERE u.x > 0"}
        )
        assert kept.report.order == ["s"]
        assert kept.report.reused == ["t"]
        _, widened = update_matches_full_run(
            sources, {"s": "CREATE VIEW s AS SELECT u.x, u.y, u.z FROM u"}
        )
        assert widened.report.order == ["s", "t"]

    def test_removal_reextracts_its_readers(self):
        _, updated = update_matches_full_run(FAN, {"a": None})
        assert {"b1", "b2"} <= set(updated.report.order)

    def test_create_table_change_reextracts_readers_of_its_columns(self):
        sources = {"ddl": "CREATE TABLE t (x integer, y integer)", **FAN}
        _, widened = update_matches_full_run(
            sources, {"ddl": "CREATE TABLE t (x integer, y integer, z integer)"}
        )
        # a names its columns, so its output is unchanged and b1.. splice
        assert widened.report.order == ["a"]
        _, retyped = update_matches_full_run(
            sources, {"ddl": "CREATE TABLE t (x bigint, y integer)"}
        )
        assert retyped.report.order == []

    @pytest.mark.parametrize(
        "options",
        [{"mode": "stack"}, {"stream": True}],
        ids=["stack", "stream"],
    )
    def test_every_mode_splices_the_same_set(self, options):
        for changes in (KEEP_COLUMNS, REORDER_COLUMNS, ADD_COLUMN):
            default = LineageXRunner().run(dict(FAN)).update(changes)
            _, updated = update_matches_full_run(FAN, changes, **options)
            assert set(updated.report.order) == set(default.report.order)
            assert updated.report.reused == default.report.reused

    def test_without_the_stack_dependents_stay_eager(self):
        in_dependency_order = dict(reversed(list(FAN.items())))
        prev = LineageXRunner(use_stack=False).run(in_dependency_order)
        updated = prev.update(KEEP_COLUMNS)
        assert updated.report.order == ["a", "b1", "b2", "c", "d"]
        assert updated.report.reused == []

    def test_candidates_are_not_prefetched_from_the_store(self, tmp_path):
        from repro.store import LineageStore

        store = LineageStore(tmp_path / "cache")
        primed = []
        prime = store.prime

        def recording_prime(content_hashes):
            content_hashes = list(content_hashes)
            primed.extend(content_hashes)
            return prime(content_hashes)

        try:
            prev = LineageXRunner(store=store).run(dict(FAN))
            store.prime = recording_prime
            updated = prev.update(KEEP_COLUMNS)
        finally:
            store.close()
        assert primed == [updated.query_dictionary.get("a").content_hash]
        assert updated.report.order == ["a"]
        assert updated.stats()["num_reused_memory"] == 4


    def test_store_hit_keyed_on_a_read_that_changes_is_reextracted(self, tmp_path):
        # d's new text is in the store, keyed on c's old columns; the same
        # delta widens x, so c comes out wider and the hit must not stand
        from repro.store import LineageStore

        plain = "CREATE VIEW d AS SELECT * FROM c"
        filtered = "CREATE VIEW d AS SELECT c.* FROM c WHERE 1 = 1"
        sources = {
            "x": "CREATE VIEW x AS SELECT t.a FROM t",
            "c": "CREATE VIEW c AS SELECT * FROM x",
            "d": plain,
        }
        change = {"x": "CREATE VIEW x AS SELECT t.a, t.b FROM t", "d": filtered}
        store = LineageStore(tmp_path / "cache")
        try:
            runner = LineageXRunner(store=store)
            prev = runner.run(dict(sources)).update({"d": filtered}).update({"d": plain})
            updated = prev.update(change)
        finally:
            store.close()
        full = LineageXRunner().run(apply_changes(sources, change))
        assert diff_graphs(updated.graph, full.graph).is_identical
        assert updated.report.order == ["x", "c", "d"]
        assert updated.graph["d"].output_columns == ["a", "b"]


class TestResultUpdate:
    def test_update_convenience_matches_run_incremental(self):
        prev = lineagex(dict(SOURCES))
        new_sql = (
            "CREATE VIEW info AS SELECT c.name FROM customers c, webact w "
            "WHERE c.cid = w.wcid"
        )
        updated = prev.update({"info": new_sql})
        full = lineagex({**SOURCES, "info": new_sql})
        assert diff_graphs(updated.graph, full.graph).is_identical
        assert updated.report.order == ["info"]

    def test_update_with_none_removes_the_entry(self):
        prev = lineagex(dict(SOURCES))
        updated = prev.update({"info": None})
        assert "info" not in updated.graph
        full = lineagex({k: v for k, v in SOURCES.items() if k != "info"})
        assert diff_graphs(updated.graph, full.graph).is_identical

    def test_update_adds_new_queries(self):
        prev = lineagex(dict(SOURCES))
        updated = prev.update(
            {"extra": "CREATE VIEW extra AS SELECT info.name FROM info"}
        )
        assert "extra" in updated.graph
        assert updated.report.order == ["extra"]

    def test_update_chain(self):
        # incremental results are themselves updatable
        step1 = lineagex(dict(SOURCES))
        step2 = step1.update(
            {"extra": "CREATE VIEW extra AS SELECT info.name FROM info"}
        )
        step3 = step2.update({"extra": None})
        assert diff_graphs(step3.graph, step1.graph).is_identical

    def test_update_works_from_script_sources(self):
        # the original run need not come from a mapping; deltas are keyed by
        # Query Dictionary identifier either way
        prev = lineagex(example1.QUERY_LOG)
        updated = prev.update(
            {"info": "CREATE VIEW info AS SELECT webact.wcid FROM webact"}
        )
        assert sorted(updated.report.reused) == ["webact", "webinfo"]
        assert updated.graph["info"].output_columns == ["wcid"]
