"""The precomputed reachability index: equivalence with BFS and staleness.

The load-bearing property: for EVERY column and direction, the indexed
partition (contributed/referenced/both) must be byte-identical to the
kind-tracking BFS — on hypothesis-generated graphs including cycles,
self-reads and mixed edge kinds, and across full builds, incremental
refreshes, and frozen snapshots.  Secondary properties: a stale index is
never served (the state-token machinery), and freezing pins results
against later mutation of the source graph.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.impact import impact_analysis
from repro.analysis.ordering import creation_order, root_tables, terminal_views
from repro.analysis.reach import ReachabilityIndex
from repro.core.column_refs import ColumnName
from repro.core.errors import UnknownColumnError
from repro.core.lineage import LineageGraph, TableLineage


# ----------------------------------------------------------------------
# graph generation
# ----------------------------------------------------------------------
def _build_graph(recipe):
    """Materialise a generated recipe into a LineageGraph.

    ``recipe`` is a list of per-relation edge plans; table ``ti`` may read
    from any table (later, earlier, or itself), so cycles and self-reads
    arise naturally.
    """
    n_tables, plans = recipe
    graph = LineageGraph()
    for i in range(n_tables):
        entry = TableLineage(name=f"t{i}", is_base_table=(i == 0))
        for c in range(3):
            entry.add_output_column(f"c{c}")
        graph.add(entry)
    for table_index, edges in plans:
        entry = graph[f"t{table_index % n_tables}"]
        for source_table, source_column, target_column, is_reference in edges:
            source = ColumnName.of(
                f"t{source_table % n_tables}", f"c{source_column}"
            )
            if is_reference:
                entry.add_reference(source)
            else:
                entry.add_contribution(f"c{target_column}", source)
    return graph


_edge = st.tuples(
    st.integers(0, 7),      # source table (mod n -> cycles/self-reads)
    st.integers(0, 2),      # source column
    st.integers(0, 2),      # target column
    st.booleans(),          # reference vs contribution
)
_recipe = st.tuples(
    st.integers(2, 8),
    st.lists(
        st.tuples(st.integers(0, 7), st.lists(_edge, max_size=6)),
        max_size=8,
    ),
)


def _partition(result):
    return (
        frozenset(result.contributed),
        frozenset(result.referenced),
        frozenset(result.both),
    )


def _assert_index_matches_bfs(graph, index_graph=None):
    """Index results on ``index_graph`` must equal BFS on ``graph``."""
    if index_graph is None:
        index_graph = graph
    columns = set(graph.column_adjacency("downstream"))
    columns |= set(graph.column_adjacency("upstream"))
    columns.add(ColumnName.of("t0", "c0"))
    for column in sorted(columns):
        for direction in ("downstream", "upstream"):
            bfs = impact_analysis(graph, column, direction=direction, method="bfs")
            indexed = impact_analysis(index_graph, column, direction=direction)
            assert _partition(indexed) == _partition(bfs), (
                f"{column} {direction}: index != BFS"
            )
            assert indexed.to_rows() == bfs.to_rows()


prop_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="class", params=["numpy", "python"])
def partition_walk(request):
    """Run the class once per partition walk: the numpy one (skipped when
    numpy is not installed) and the pure-Python one (``reach._np = None``,
    the switch :class:`TestPythonFallback` uses)."""
    import repro.analysis.reach as reach_module

    numpy = reach_module._np
    if request.param == "numpy" and numpy is None:
        pytest.skip("numpy is not installed")
    if request.param == "python":
        reach_module._np = None
    yield request.param
    reach_module._np = numpy


@pytest.mark.usefixtures("partition_walk")
class TestIndexEqualsBfs:
    @prop_settings
    @given(recipe=_recipe)
    def test_frozen_index_matches_bfs(self, recipe):
        graph = _build_graph(recipe)
        _assert_index_matches_bfs(graph, graph.freeze())

    @prop_settings
    @given(recipe=_recipe)
    def test_forced_live_index_matches_bfs(self, recipe):
        graph = _build_graph(recipe)
        graph.reachability()  # force a build; auto method must then use it
        assert graph.reachability(build=False) is not None
        _assert_index_matches_bfs(graph, graph)

    @prop_settings
    @given(recipe=_recipe, extra=st.lists(_edge, min_size=1, max_size=5))
    def test_index_after_mutation_matches_bfs(self, recipe, extra):
        """Mutating after a build must never serve stale closures."""
        graph = _build_graph(recipe)
        graph.reachability()
        entry = graph["t1"]
        for source_table, source_column, target_column, is_reference in extra:
            source = ColumnName.of(
                f"t{source_table % len(graph)}", f"c{source_column}"
            )
            if is_reference:
                entry.add_reference(source)
            else:
                entry.add_contribution(f"c{target_column}", source)
        # the old index is stale and must not be returned
        assert graph.reachability(build=False) is None
        _assert_index_matches_bfs(graph, graph.freeze())


class TestIncrementalRefresh:
    def _chain_graph(self):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        for c in ("a", "b"):
            base.add_output_column(c)
        graph.add(base)
        previous = "base"
        for i in range(4):
            view = TableLineage(name=f"v{i}")
            view.add_output_column("a")
            view.add_contribution("a", ColumnName.of(previous, "a"))
            view.add_reference(ColumnName.of(previous, "b" if previous == "base" else "a"))
            graph.add(view)
            previous = f"v{i}"
        return graph

    def test_append_only_growth_refreshes_incrementally(self):
        graph = self._chain_graph()
        first = graph.reachability()
        assert first.revision == 0
        # append new views reading existing relations (+ a new self-read)
        for i in (10, 11):
            view = TableLineage(name=f"w{i}")
            view.add_output_column("a")
            view.add_contribution("a", ColumnName.of("v3", "a"))
            view.add_reference(ColumnName.of(f"w{i}", "a"))
            graph.add(view)
        second = graph.reachability()
        assert second.revision == 1, "append-only growth should patch, not rebuild"
        _assert_index_matches_bfs(graph, graph)
        # and must agree with a from-scratch build
        fresh = ReachabilityIndex.build(graph.freeze())
        for column in sorted(graph.column_adjacency("downstream")):
            for direction in ("downstream", "upstream"):
                assert second.partition(column, direction) == fresh.partition(
                    column, direction
                )

    def test_non_append_mutation_forces_full_rebuild(self):
        graph = self._chain_graph()
        graph.reachability()
        # a new edge between two OLD nodes is not an append
        graph["v2"].add_reference(ColumnName.of("base", "b"))
        rebuilt = graph.reachability()
        assert rebuilt.revision == 0, "old->old edge must force a full rebuild"
        _assert_index_matches_bfs(graph, graph)

    def test_seeded_freeze_patches_from_previous_snapshot(self):
        graph = self._chain_graph()
        frozen_1 = graph.freeze()
        view = TableLineage(name="extra")
        view.add_output_column("a")
        view.add_contribution("a", ColumnName.of("v3", "a"))
        graph.add(view)
        frozen_2 = graph.freeze(reach_seed=frozen_1.reachability())
        assert frozen_2.reachability().revision == 1
        _assert_index_matches_bfs(frozen_2, frozen_2)


def _entry(name, plan, is_base=False):
    """One relation ``name`` (columns c0..c2) with the edges of ``plan``."""
    entry = TableLineage(name=name, is_base_table=is_base)
    for c in range(3):
        entry.add_output_column(f"c{c}")
    for source_table, source_column, target_column, is_reference in plan:
        source = ColumnName.of(f"t{source_table}", f"c{source_column}")
        if is_reference:
            entry.add_reference(source)
        else:
            entry.add_contribution(f"c{target_column}", source)
    return entry


_patch_step = st.one_of(
    # add, or replace with a new entry object (same or different edges)
    st.tuples(st.just("put"), st.integers(0, 7), st.lists(_edge, max_size=4),
              st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    # re-insert at the end: readers move relative to one another
    st.tuples(st.just("move"), st.integers(0, 7)),
    # edit the shared entry in place after the previous snapshot froze
    st.tuples(st.just("mutate"), st.integers(0, 7), _edge),
)


def _index_state(index):
    return (
        index.records, index.forward, index.reverse,
        index.table_forward, index.table_reverse, index.counts,
        index.edges, index.table_edges,
    )


@pytest.mark.usefixtures("partition_walk")
class TestIndexPatch:
    """Every snapshot's adjacency index is the previous one patched; over
    random add, replace, remove, move and in-place edit sequences the chain
    of patches must equal the build from empty, and the reachability index
    patched along with it must answer like BFS."""

    @prop_settings
    @given(steps=st.lists(_patch_step, min_size=1, max_size=8))
    def test_patch_chain_equals_build_from_empty(self, steps):
        from repro.core.lineage import _EMPTY_INDEX

        current = {}
        previous = None
        for step in steps:
            name = f"t{step[1]}"
            if step[0] == "put":
                current[name] = _entry(name, step[2], is_base=step[3])
            elif step[0] == "remove":
                current.pop(name, None)
            elif step[0] == "move" and name in current:
                current[name] = current.pop(name)
            elif step[0] == "mutate" and name in current:
                source_table, source_column, target_column, is_reference = step[2]
                source = ColumnName.of(f"t{source_table}", f"c{source_column}")
                if is_reference:
                    current[name].add_reference(source)
                else:
                    current[name].add_contribution(f"c{target_column}", source)
            graph = LineageGraph()
            for entry in current.values():
                graph.add(entry)
            seed = previous.reachability() if previous is not None else None
            frozen = graph.freeze(reach_seed=seed)
            assert _index_state(frozen._ensure_index()) == _index_state(
                _EMPTY_INDEX.patched(dict(current))
            )
            assert frozen.stats()["num_column_edges"] == len(list(frozen.edges()))
            _assert_index_matches_bfs(frozen, frozen)
            previous = frozen


class TestFrozenPinning:
    def test_frozen_results_survive_source_mutation(self):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        base.add_output_column("a")
        graph.add(base)
        view = TableLineage(name="view")
        view.add_output_column("a")
        view.add_contribution("a", ColumnName.of("base", "a"))
        graph.add(view)
        frozen = graph.freeze()
        before = impact_analysis(frozen, "base.a").to_rows()
        # mutate the live graph through a shared entry
        view.add_reference(ColumnName.of("base", "a"))
        assert impact_analysis(frozen, "base.a").to_rows() == before
        assert impact_analysis(graph, "base.a").to_rows() != before

    def test_freeze_reuses_current_live_index(self):
        graph = LineageGraph()
        base = TableLineage(name="base", is_base_table=True)
        base.add_output_column("a")
        graph.add(base)
        live = graph.reachability()
        frozen = graph.freeze()
        assert frozen.reachability() is live


class TestOrderingFromIndex:
    def test_frozen_ordering_matches_live(self, example1_graph):
        frozen = example1_graph.freeze()
        assert creation_order(frozen) == creation_order(example1_graph)
        assert terminal_views(frozen) == terminal_views(example1_graph)
        assert root_tables(frozen) == root_tables(example1_graph)

    def test_cyclic_table_order_raises_consistently(self):
        from repro.core.errors import CyclicDependencyError

        graph = LineageGraph()
        for name, other in (("a", "b"), ("b", "a")):
            entry = TableLineage(name=name)
            entry.add_output_column("x")
            entry.add_contribution("x", ColumnName.of(other, "x"))
            graph.add(entry)
        with pytest.raises(CyclicDependencyError):
            creation_order(graph)
        frozen = graph.freeze()
        with pytest.raises(CyclicDependencyError):
            creation_order(frozen)
        with pytest.raises(CyclicDependencyError):  # memoised outcome re-raises
            creation_order(frozen)


class TestQuerySurface:
    def test_max_depth_limits_hops(self, example1_graph):
        full = impact_analysis(example1_graph, "web.page")
        one = impact_analysis(example1_graph, "web.page", max_depth=1)
        assert one.all_columns < full.all_columns
        assert {column.table for column in one.all_columns} == {
            "webact", "webinfo",
        }
        deep = impact_analysis(example1_graph, "web.page", max_depth=99)
        assert _partition(deep) == _partition(full)

    def test_missing_raise_flags_unknown_column(self, example1_graph):
        with pytest.raises(UnknownColumnError):
            impact_analysis(example1_graph, "nowhere.nothing", missing="raise")
        with pytest.raises(KeyError):  # KeyError-derived for library callers
            impact_analysis(example1_graph, "nowhere.nothing", missing="raise")
        # default keeps the historical empty-result behaviour
        empty = impact_analysis(example1_graph, "nowhere.nothing")
        assert not empty.all_columns

    def test_missing_raise_hint_names_nearest_column(self, example1_graph):
        with pytest.raises(UnknownColumnError) as caught:
            impact_analysis(example1_graph, "web.pagee", missing="raise")
        assert caught.value.hint == "web.page"

    def test_edgeless_known_column_is_not_missing(self, example1_graph):
        # a real column with no lineage edges must NOT raise
        frozen = example1_graph.freeze()
        index = frozen.reachability()
        stats = index.stats()
        assert stats["nodes"] > 0 and stats["components"] > 0

    def test_index_stats_shape(self, example1_graph):
        stats = example1_graph.freeze().reachability().stats()
        assert set(stats) >= {
            "nodes", "components", "cyclic_components",
            "exceptions_downstream", "exceptions_upstream", "revision",
        }


class TestPythonFallback:
    """With numpy absent (``reach._np = None``) the index must build and
    answer identically — the pure-Python walk is the portability floor the
    vectorised path is differentially checked against."""

    _RECIPE = (
        6,
        [
            (0, [(1, 0, 0, False), (2, 1, 1, True)]),
            (1, [(2, 0, 0, False), (1, 1, 2, False)]),   # self-read
            (2, [(0, 2, 1, True), (3, 0, 0, False)]),
            (3, [(4, 1, 1, False), (0, 0, 0, True)]),
            (4, [(5, 2, 2, False), (3, 1, 0, False)]),   # 3 <-> 4 cycle
            (5, [(0, 0, 1, True), (2, 2, 2, False)]),
        ],
    )

    def _all_starts(self, graph):
        columns = set(graph.column_adjacency("downstream"))
        columns |= set(graph.column_adjacency("upstream"))
        return sorted(columns)

    def test_fallback_build_matches_numpy_and_bfs(self, monkeypatch):
        import repro.analysis.reach as reach_module

        numpy_frozen = _build_graph(self._RECIPE).freeze()
        monkeypatch.setattr(reach_module, "_np", None)
        graph = _build_graph(self._RECIPE)
        frozen = graph.freeze()
        # no position arrays are derived when numpy is unavailable
        assert frozen.reachability()._vector == {}
        _assert_index_matches_bfs(graph, frozen)
        for column in self._all_starts(graph):
            for direction in ("downstream", "upstream"):
                assert _partition(
                    impact_analysis(frozen, column, direction=direction)
                ) == _partition(
                    impact_analysis(numpy_frozen, column, direction=direction)
                )

    def test_numpy_built_index_answers_without_numpy(self, monkeypatch):
        """Dispatch is per query: an index built with numpy keeps serving
        (via the Python walk) if numpy disappears afterwards."""
        import repro.analysis.reach as reach_module

        graph = _build_graph(self._RECIPE)
        frozen = graph.freeze()
        expected = {
            (column, direction): _partition(
                impact_analysis(frozen, column, direction=direction)
            )
            for column in self._all_starts(graph)
            for direction in ("downstream", "upstream")
        }
        frozen.reachability()._cache.clear()
        monkeypatch.setattr(reach_module, "_np", None)
        for (column, direction), parts in expected.items():
            assert _partition(
                impact_analysis(frozen, column, direction=direction)
            ) == parts
