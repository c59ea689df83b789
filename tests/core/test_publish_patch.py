"""A publish allocates and walks only what its batch changed.

An incremental refresh patches the previous result's dependency DAG and
re-derives only the base tables whose readers (or schema) changed; the
next snapshot's indexes are patched from the previous snapshot's.  These
tests pin the pieces the differential harness cannot see: what is shared
by reference, that no refresh leaves garbage behind for the cyclic
collector, and that a one-statement publish adds a number of live objects,
and calls the per-entry hooks a number of times, that does not grow with
the corpus.
"""

import gc

from repro import ingest
from repro.catalog import Catalog
from repro.core.dag import DependencyDAG
from repro.core.runner import LineageXRunner
from repro.core.scheduler import AutoInferenceScheduler
from repro.datasets import workload
from repro.output.csv_output import graph_to_csv
from repro.quarantine import Quarantine
from repro.server.snapshot import SnapshotManager
from repro.session import LineageSession

CORPUS = {
    "v1": "CREATE VIEW v1 AS SELECT a FROM t1",
    "v2": "CREATE VIEW v2 AS SELECT b FROM t2",
    "v3": "CREATE VIEW v3 AS SELECT a FROM v1",
}


def _dag_rows(dag):
    return (
        dag.nodes, dag.dependencies, dag.dependents, dag.readers, dag.references,
    )


class TestDagPatch:
    def test_patched_dag_equals_a_fresh_build(self):
        result = LineageXRunner().run(dict(CORPUS))
        assert result.dag is not None
        steps = [
            {"v4": "CREATE VIEW v4 AS SELECT a FROM v3"},              # append
            {"v3": "CREATE VIEW v3 AS SELECT b FROM v2"},              # new deps
            {"v1": None},                                              # node gone
            {"v1": "CREATE VIEW v1 AS SELECT a FROM t1"},              # node back
            {"t2": "CREATE VIEW t2 AS SELECT a FROM t1"},              # read name becomes a node
            {"v2": None, "v5": "CREATE VIEW v5 AS SELECT b FROM t2"},
        ]
        for changes in steps:
            result = result.update(changes)
            fresh = DependencyDAG.from_query_dictionary(result.query_dictionary)
            assert _dag_rows(result.dag) == _dag_rows(fresh), changes

    def test_untouched_rows_are_shared(self):
        result = LineageXRunner().run(dict(CORPUS))
        updated = result.update({"v4": "CREATE VIEW v4 AS SELECT b FROM t2"})
        assert updated.dag.references["v1"] is result.dag.references["v1"]
        assert updated.dag.readers["t1"] is result.dag.readers["t1"]
        assert updated.dag.readers["t2"] is not result.dag.readers["t2"]


class TestBaseTableSplice:
    def test_unaffected_base_tables_are_spliced_by_reference(self):
        first = LineageXRunner().run(dict(CORPUS))
        change = {"v4": "CREATE VIEW v4 AS SELECT c FROM t1"}
        second = first.update(change)
        assert second.graph["t2"] is first.graph["t2"]
        assert second.graph["t1"] is not first.graph["t1"]
        assert second.graph["t1"].output_columns == ["a", "c"]
        full = LineageXRunner().run({**CORPUS, **change})
        # replaced entries keep their places; the new view is appended
        assert list(second.graph.relations) == ["v1", "v2", "v3", "t1", "t2", "v4"]
        assert graph_to_csv(second.graph) == graph_to_csv(full.graph)

    def test_removed_view_still_read_becomes_a_base_table(self):
        first = LineageXRunner().run(dict(CORPUS))
        second = first.update({"v1": None})
        full = LineageXRunner().run({"v2": CORPUS["v2"], "v3": CORPUS["v3"]})
        assert second.graph["v1"].is_base_table
        assert graph_to_csv(second.graph) == graph_to_csv(full.graph)

    def test_catalog_schema_change_re_derives_a_spliced_base_table(self):
        catalog = Catalog()
        catalog.create_table("t2", [("b", "integer")])
        runner = LineageXRunner(catalog=catalog)
        first = runner.run(dict(CORPUS))
        assert first.graph["t2"].output_columns == ["b"]
        catalog.create_table("t2", [("b", "integer"), ("z", "integer")], replace=True)
        second = first.update({"v4": "CREATE VIEW v4 AS SELECT c FROM t1"})
        assert second.graph["t2"].output_columns == ["b", "z"]


class TestNoLeftovers:
    def test_refreshes_do_not_pile_up_observer_references(self):
        session = LineageSession(dict(CORPUS))
        session.extract()
        for index in range(50):
            session.refresh({f"w{index}": f"CREATE VIEW w{index} AS SELECT a FROM v1"})
        gc.collect()
        for entry in session.result.graph:
            refs = entry.__dict__.get("_observers", [])
            live = [ref for ref in refs if ref() is not None]
            # the current graph, plus at most the one that was still alive
            # when the entry was last spliced
            assert len(live) == 1 and len(refs) <= 2, (entry.name, len(refs))

    def test_a_refresh_leaves_no_cyclic_garbage(self):
        session = LineageSession(dict(CORPUS))
        session.extract()
        gc.collect()
        gc.disable()
        try:
            session.refresh({"v4": "CREATE VIEW v4 AS SELECT a FROM v3"})
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                type(obj).__name__ for obj in gc.garbage
                if isinstance(obj, (AutoInferenceScheduler, DependencyDAG))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked

    def test_a_one_statement_publish_allocates_little(self):
        warehouse = workload.generate_warehouse(num_base_tables=6, num_views=300, seed=5)
        session = LineageSession(catalog=warehouse.catalog())
        quarantine = Quarantine()
        ingest.apply(session, {name: [sql] for name, sql in warehouse.views.items()}, quarantine)
        snapshots = SnapshotManager(session.result.graph)
        edges = snapshots.current().stats["num_column_edges"]
        relations = sorted(session.result.graph.relations)

        def publish(index):
            relation = relations[index * 37 % len(relations)]
            column = session.result.graph.columns_of(relation)[0]
            sql = f"CREATE VIEW a{index} AS SELECT s.{column} AS x FROM {relation} s"
            ingest.apply(session, {f"a{index}": [sql]}, quarantine)
            return snapshots.prepare(session.result.graph, session.statements)

        # the first publishes retire the boot graph's subscriptions
        for index in range(2):
            snapshots.install(publish(index))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            snapshot = publish(2)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert snapshot.graph.stats()["num_column_edges"] == edges + 3
        # about 80 at any corpus size; a full rebuild is several per edge
        assert grown < edges // 10, (grown, edges)


class TestDeltaSizedWork:
    """An append refresh and its publish call the per-entry hooks only for
    the entries the append changed, however large the corpus: a walk over
    every entry added anywhere on that path changes these counts."""

    HOOKS = (
        ("LineageGraph.add", "repro.core.lineage", "LineageGraph", "add"),
        ("TableLineage._subscribe", "repro.core.lineage", "TableLineage", "_subscribe"),
        ("TableLineage._record", "repro.core.lineage", "TableLineage", "_record"),
        ("QueryDictionary.add", "repro.core.preprocess", "QueryDictionary", "add"),
    )

    def _counts(self, num_views, monkeypatch):
        import importlib

        from repro.core.preprocess import ParsedQuery

        warehouse = workload.generate_warehouse(
            num_base_tables=max(4, num_views // 50), num_views=num_views, seed=11
        )
        session = LineageSession(catalog=warehouse.catalog())
        session.refresh(dict(warehouse.views))
        snapshots = SnapshotManager(session.result.graph)
        snapshots.install(snapshots.prepare(session.result.graph, session.statements))

        counts = dict.fromkeys([hook[0] for hook in self.HOOKS], 0)
        counts["ParsedQuery.content_hash"] = 0

        def counting(label, method):
            def wrapper(*args, **kwargs):
                counts[label] += 1
                return method(*args, **kwargs)
            return wrapper

        for label, module, owner, name in self.HOOKS:
            cls = getattr(importlib.import_module(module), owner)
            monkeypatch.setattr(cls, name, counting(label, getattr(cls, name)))
        content_hash = ParsedQuery.content_hash.fget
        monkeypatch.setattr(
            ParsedQuery, "content_hash",
            property(counting("ParsedQuery.content_hash", content_hash)),
        )
        sql = "CREATE VIEW appended AS SELECT s.id AS x FROM base_0 s"
        result = session.refresh({"appended": sql})
        snapshot = snapshots.prepare(result.graph, session.statements)
        monkeypatch.undo()
        assert result.report.order == ["appended"]
        assert snapshot.graph.columns_of("appended") == ["x"]
        return counts

    def test_hook_counts_do_not_grow_with_the_corpus(self, monkeypatch):
        small = self._counts(200, monkeypatch)
        large = self._counts(2000, monkeypatch)
        assert small == large
        # the appended view and the base table it reads, nothing else
        assert small["LineageGraph.add"] == 2, small
