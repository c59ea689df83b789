"""Tests for the dependency-DAG pre-pass and the plan-first scheduler.

Covers the three guarantees of the new engine:

* the DAG plan reproduces exactly the graph the reactive stack produces
  (equivalence on the integration corpora);
* wave parallelism is deterministic — the same graph and report for any
  worker count;
* the plan degrades gracefully (cycles, self-references, external tables).
"""

import pytest

from repro.analysis.diff import diff_graphs
from repro.core.dag import DependencyDAG, statement_dependencies
from repro.core.errors import CyclicDependencyError
from repro.core.preprocess import preprocess
from repro.core.runner import lineagex
from repro.core.scheduler import AutoInferenceScheduler
from repro.datasets import example1, mimic, retail, workload


def build_dag(sql):
    return DependencyDAG.from_query_dictionary(preprocess(sql))


class TestStatementDependencies:
    def test_from_and_join_sources_collected(self):
        qd = preprocess(
            "CREATE VIEW v AS SELECT a.x, b.y FROM a JOIN b ON a.id = b.id"
        )
        assert statement_dependencies(qd.get("v")) == {"a", "b"}

    def test_set_operation_sources_collected(self):
        qd = preprocess(
            "CREATE VIEW v AS SELECT x FROM a UNION SELECT x FROM b"
        )
        assert statement_dependencies(qd.get("v")) == {"a", "b"}

    def test_subquery_sources_collected(self):
        qd = preprocess(
            "CREATE VIEW v AS SELECT x FROM (SELECT x FROM inner_t) sub "
            "WHERE x IN (SELECT k FROM filter_t)"
        )
        assert statement_dependencies(qd.get("v")) == {"inner_t", "filter_t"}

    def test_cte_names_excluded(self):
        qd = preprocess(
            "CREATE VIEW v AS WITH c AS (SELECT x FROM real_table) "
            "SELECT x FROM c"
        )
        assert statement_dependencies(qd.get("v")) == {"real_table"}

    def test_cte_scoping_is_lexical(self):
        # a subquery-local CTE named like a real relation must not hide the
        # outer dependency on that relation
        qd = preprocess(
            "CREATE VIEW rpt AS SELECT s.amount FROM sales s JOIN "
            "(WITH sales AS (SELECT 1 AS one) SELECT one FROM sales) z "
            "ON s.amount = z.one"
        )
        assert statement_dependencies(qd.get("rpt")) == {"sales"}

    def test_cte_body_sees_preceding_ctes(self):
        qd = preprocess(
            "CREATE VIEW v AS WITH a AS (SELECT x FROM t), "
            "b AS (SELECT x FROM a) SELECT x FROM b"
        )
        assert statement_dependencies(qd.get("v")) == {"t"}

    def test_self_reference_excluded(self):
        qd = preprocess("CREATE VIEW a AS SELECT a.* FROM a")
        assert statement_dependencies(qd.get("a")) == set()


class TestDependencyDAG:
    def test_example1_edges(self):
        # dependencies are *internal* (Query Dictionary entries only);
        # external base tables like customers/orders appear in `readers`
        dag = build_dag(example1.QUERY_LOG)
        assert dag.to_dict() == {
            "info": ["webact"],
            "webact": ["webinfo"],
            "webinfo": [],
        }
        assert dag.readers["customers"] == {"info", "webinfo"}
        assert dag.readers["orders"] == {"info"}

    def test_example1_waves(self):
        dag = build_dag(example1.QUERY_LOG)
        waves, deferred = dag.waves()
        assert waves == [["webinfo"], ["webact"], ["info"]]
        assert deferred == []

    def test_external_tables_are_not_nodes_but_have_readers(self):
        dag = build_dag(example1.QUERY_LOG)
        assert "web" not in dag.dependencies
        assert dag.readers["web"] == {"webinfo", "webact"}

    def test_waves_tie_break_by_insertion_order(self):
        sql = """
        CREATE VIEW z AS SELECT t.x FROM t;
        CREATE VIEW a AS SELECT t.y FROM t;
        CREATE VIEW m AS SELECT z.x, a.y FROM z, a;
        """
        waves, _ = build_dag(sql).waves()
        assert waves == [["z", "a"], ["m"]]

    def test_cycle_members_deferred(self):
        sql = """
        CREATE VIEW a AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        CREATE VIEW ok AS SELECT t.x FROM t;
        """
        waves, deferred = build_dag(sql).waves()
        assert waves == [["ok"]]
        assert set(deferred) == {"a", "b"}

    def test_transitive_dependents(self):
        dag = build_dag(example1.QUERY_LOG)
        assert dag.transitive_dependents({"webinfo"}) == {"webact", "info"}
        assert dag.transitive_dependents({"web"}) == {"webinfo", "webact", "info"}
        assert dag.transitive_dependents({"info"}) == set()

    def test_topological_order_flattens_waves(self):
        dag = build_dag(example1.QUERY_LOG)
        assert dag.topological_order() == ["webinfo", "webact", "info"]

    def test_stats(self):
        stats = build_dag(example1.QUERY_LOG).stats()
        assert stats["num_nodes"] == 3
        assert stats["num_edges"] == 2
        assert stats["num_waves"] == 3
        assert stats["num_cyclic"] == 0


class TestPlanFirstScheduler:
    def run_mode(self, sql, mode, **kwargs):
        scheduler = AutoInferenceScheduler(preprocess(sql), mode=mode, **kwargs)
        return scheduler.run()

    def test_dag_mode_needs_no_deferrals_on_shuffled_input(self):
        graph, report = self.run_mode(example1.QUERY_LOG, "dag")
        assert report.mode == "dag"
        assert report.deferral_count == 0
        assert report.order == ["webinfo", "webact", "info"]

    def test_cycle_still_raises_in_dag_mode(self):
        sql = """
        CREATE VIEW a AS SELECT b.* FROM b;
        CREATE VIEW b AS SELECT a.* FROM a;
        """
        with pytest.raises(CyclicDependencyError):
            self.run_mode(sql, "dag")

    def test_self_reference_degrades_gracefully_in_dag_mode(self):
        graph, report = self.run_mode("CREATE VIEW a AS SELECT a.* FROM a", "dag")
        assert "a" in graph
        assert not report.unresolved

    def test_use_stack_false_forces_reactive_mode(self):
        scheduler = AutoInferenceScheduler(
            preprocess(example1.QUERY_LOG), use_stack=False, mode="dag"
        )
        graph, report = scheduler.run()
        assert report.mode == "stack"
        # single-pass degradation is preserved for the ablation benchmark
        assert graph["info"].output_columns[-1] == "*"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            AutoInferenceScheduler(preprocess("SELECT 1"), mode="bogus")


class TestDagStackEquivalence:
    """The plan-first engine must produce byte-identical lineage."""

    CORPORA = {
        "example1": lambda: example1.QUERY_LOG,
        "retail": lambda: retail.FULL_SCRIPT,
        "mimic": lambda: mimic.full_script(shuffle_seed=11),
    }

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_same_graph_as_stack_mode(self, corpus):
        source = self.CORPORA[corpus]()
        dag_result = lineagex(source, mode="dag")
        stack_result = lineagex(source, mode="stack")
        diff = diff_graphs(dag_result.graph, stack_result.graph)
        assert diff.is_identical, diff.summary()
        assert dag_result.report.unresolved == stack_result.report.unresolved

    def test_same_graph_on_generated_warehouses(self):
        for seed in (3, 11):
            warehouse = workload.generate_warehouse(
                num_base_tables=4, num_views=25, seed=seed
            )
            source = warehouse.shuffled_script()
            dag_result = lineagex(source, catalog=warehouse.catalog(), mode="dag")
            stack_result = lineagex(source, catalog=warehouse.catalog(), mode="stack")
            diff = diff_graphs(dag_result.graph, stack_result.graph)
            assert diff.is_identical, f"seed {seed}: {diff.summary()}"

