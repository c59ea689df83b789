"""INCR — incremental re-extraction vs full re-run (interactivity claim).

The paper positions LineageX as interactive: a user edits one query and the
UI refreshes.  With the dependency DAG the runner re-extracts the changed
Query Dictionary entry, plus those of its transitive dependents for which a
relation they read changed its column list (early cutoff), splicing the
cached lineage for everything else.  This benchmark edits a single view in
generated warehouses of increasing size and reports full-run vs
single-change-update wall time; the update must re-extract exactly that set
and be at least 5x faster than the full run at scale.

``test_append_scaling`` times what a served one-view append costs — the
session refresh plus the snapshot freeze (``SnapshotManager.prepare``) —
at 1k, 4k and 8k views: the refresh carries the previous result forward
copy-on-write, so its Python work follows the delta, and the 8k append
must stay within 1.5x of the 1k one.  ``BENCH_INCREMENTAL_QUICK=1`` runs
the sweep at a tenth of the scale with the timing gate off (the CI smoke
step).
"""

import os
import random
import statistics
import time

import pytest

from repro.analysis.diff import diff_graphs
from repro.core.runner import LineageXRunner
from repro.datasets import workload
from repro.server.snapshot import SnapshotManager
from repro.session import LineageSession

from _report import emit, table

SWEEP = [50, 100, 200, 400]
SEED = 97
QUICK = bool(os.environ.get("BENCH_INCREMENTAL_QUICK"))
#: corpus sizes of the append sweep, and the appends timed at each
APPEND_SWEEP = [100, 400, 800] if QUICK else [1000, 4000, 8000]
APPENDS = 20
#: the largest size's median append over the smallest's, at most
APPEND_SCALING_BOUND = 1.5


def _timing_gates():
    """Wall-clock gates run locally and under BENCH_STRICT=1, not on CI."""
    return not QUICK and (not os.environ.get("CI") or os.environ.get("BENCH_STRICT"))


def _setup(num_views):
    """Build a warehouse, a baseline result, and a one-view change delta."""
    warehouse = workload.generate_warehouse(
        num_base_tables=max(3, num_views // 10), num_views=num_views, seed=SEED
    )
    sources = dict(warehouse.views)
    runner = LineageXRunner(catalog=warehouse.catalog())
    baseline = runner.run(sources)
    # edit a view from the first quarter of the pipeline (it has downstream
    # dependents) into a projection of a base table — a realistic "rewrote
    # one staging view" change
    target = f"view_{num_views // 4}"
    changes = {target: f"CREATE VIEW {target} AS SELECT b.id FROM base_0 b"}
    merged = dict(sources)
    merged.update(changes)
    return runner, baseline, changes, merged, target


def _read_columns(result, reader, name):
    """The column list ``reader``'s extraction reads for ``name`` in
    ``result``: a view's output, else (and for a self-read) the catalog's."""
    entry = result.graph.relations.get(name)
    if name != reader and entry is not None and not entry.is_base_table:
        return entry.output_columns
    table = result.catalog.get(name)
    return table.column_names() if table is not None else None


def _expected_reextracted(baseline, full):
    """The changed entries plus every reader of a relation whose column
    list differs between the two full runs."""
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


def test_incremental_report():
    rows = []
    speedups = []
    for num_views in SWEEP:
        runner, baseline, changes, merged, target = _setup(num_views)

        started = time.perf_counter()
        full = runner.run(merged)
        full_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        incremental = runner.run_incremental(baseline, changes)
        incremental_elapsed = time.perf_counter() - started

        # correctness: the spliced graph equals the full re-run
        diff = diff_graphs(incremental.graph, full.graph)
        assert diff.is_identical, diff.summary()

        # the update re-extracts exactly the changed entry plus the readers
        # of a relation whose column list changed
        expected_dirty = _expected_reextracted(baseline, full)
        assert target in expected_dirty
        assert set(incremental.report.order) == expected_dirty
        assert len(incremental.report.reused) == num_views - len(expected_dirty)

        speedup = full_elapsed / max(incremental_elapsed, 1e-9)
        speedups.append((num_views, speedup))
        rows.append(
            (
                num_views,
                len(expected_dirty),
                len(incremental.report.reused),
                f"{full_elapsed * 1000:.1f}",
                f"{incremental_elapsed * 1000:.1f}",
                f"{speedup:.1f}x",
            )
        )

    lines = table(
        [
            "#views",
            "#re-extracted",
            "#reused",
            "full run (ms)",
            "update (ms)",
            "speedup",
        ],
        rows,
    )
    lines.append("")
    lines.append(
        "A single-view edit re-extracts the changed entry and the dependents "
        "whose input column lists changed; everything else is spliced from "
        "the cached graph."
    )
    emit("incremental", "Incremental — single-change update vs full re-run", lines)

    # the headline claim: at the largest size the update is >= 5x faster.
    # Wall-clock assertions are inherently flaky on shared CI runners, so
    # there the structural checks above (exact dirty set, graph equality)
    # stand in; the timing gate runs locally and under BENCH_STRICT=1.
    if _timing_gates():
        assert speedups[-1][1] >= 5.0, (
            f"incremental update only {speedups[-1][1]:.1f}x faster at "
            f"{speedups[-1][0]} views"
        )


def _append_times(num_views):
    """Seconds per one-view append (refresh + prepare) over ``num_views``."""
    warehouse = workload.generate_warehouse(
        num_base_tables=max(3, num_views // 50), num_views=num_views, seed=SEED
    )
    session = LineageSession(catalog=warehouse.catalog())
    graph = session.refresh(dict(warehouse.views)).graph
    snapshots = SnapshotManager(graph)
    relations = sorted(graph.relations)
    rng = random.Random(SEED)
    times = []
    for index in range(APPENDS):
        relation = rng.choice(relations)
        column = rng.choice(graph.columns_of(relation))
        name = f"bench_append_{index}"
        sql = f"CREATE VIEW {name} AS SELECT s.{column} AS appended FROM {relation} s"
        started = time.perf_counter()
        result = session.refresh({name: sql})
        snapshot = snapshots.prepare(result.graph, session.statements)
        times.append(time.perf_counter() - started)
        snapshots.install(snapshot)
        assert result.report.order == [name]
    session.close()
    return times


def test_append_scaling():
    medians = {}
    rows = []
    for num_views in APPEND_SWEEP:
        times = _append_times(num_views)
        medians[num_views] = statistics.median(times)
        quartiles = statistics.quantiles(times, n=4)
        rows.append(
            (
                num_views,
                f"{medians[num_views] * 1000:.2f}",
                f"{quartiles[0] * 1000:.2f}-{quartiles[2] * 1000:.2f}",
                f"{medians[num_views] / medians[APPEND_SWEEP[0]]:.2f}x",
            )
        )
    lines = table(["#views", "append median (ms)", "IQR (ms)", "vs smallest"], rows)
    lines.append("")
    lines.append(
        f"One-view append: session.refresh + SnapshotManager.prepare, median "
        f"of {APPENDS}; the largest size must stay within "
        f"{APPEND_SCALING_BOUND}x of the smallest."
    )
    emit("incremental_scaling", "Incremental — one-view append vs corpus size", lines)
    ratio = medians[APPEND_SWEEP[-1]] / medians[APPEND_SWEEP[0]]
    if _timing_gates():
        assert ratio <= APPEND_SCALING_BOUND, (
            f"a one-view append at {APPEND_SWEEP[-1]} views costs {ratio:.2f}x "
            f"the one at {APPEND_SWEEP[0]}"
        )


@pytest.mark.parametrize("num_views", [200], ids=["200-views"])
def test_incremental_update_benchmark(benchmark, num_views):
    runner, baseline, changes, _, _ = _setup(num_views)
    result = benchmark(runner.run_incremental, baseline, changes)
    assert result.report.reused


@pytest.mark.parametrize("num_views", [200], ids=["200-views"])
def test_full_rerun_benchmark(benchmark, num_views):
    runner, _, _, merged, _ = _setup(num_views)
    result = benchmark(runner.run, merged)
    assert not result.report.unresolved
