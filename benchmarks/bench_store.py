"""STORE — persistent warm starts.

The claim of the persistent content-addressed lineage store: a second
session over an *unchanged* corpus (a fresh process: new runner, new store
handle, same cache directory) splices ~100% of the entries from disk and
is at least 2x faster than the cold run at 400 views (the bar was 5x
until the cold path itself became ~2.5x faster).

Results are emitted as text and as machine-readable JSON
(``benchmarks/results/store.json``), which CI uploads as an artifact.
"""

import os
import shutil
import tempfile
import time

import pytest

from repro.analysis.diff import diff_graphs
from repro.core.runner import LineageXRunner
from repro.datasets import workload
from repro.store import LineageStore

from _report import emit, emit_json, emit_root_json, table

SWEEP = [50, 100, 200, 400]
SEED = 97


def _warehouse(num_views):
    warehouse = workload.generate_warehouse(
        num_base_tables=max(3, num_views // 10), num_views=num_views, seed=SEED
    )
    return dict(warehouse.views), warehouse.catalog()


def _timed_run(cache_dir, sources, catalog, **kwargs):
    """One 'process lifetime': open the store, run, close the store."""
    store = LineageStore(cache_dir)
    runner = LineageXRunner(catalog=catalog, store=store, **kwargs)
    started = time.perf_counter()
    result = runner.run(sources)
    elapsed = time.perf_counter() - started
    store.close()
    return result, elapsed


def test_warm_start_report():
    rows = []
    series = []
    for num_views in SWEEP:
        sources, catalog = _warehouse(num_views)
        cache_dir = tempfile.mkdtemp(prefix="lineage-store-bench-")
        try:
            cold, cold_elapsed = _timed_run(cache_dir, sources, catalog)
            warm, warm_elapsed = _timed_run(cache_dir, sources, catalog)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        # correctness: the warm-spliced graph equals the cold one
        diff = diff_graphs(warm.graph, cold.graph)
        assert diff.is_identical, diff.summary()

        # the warm run splices ~100% from disk (here: exactly 100%)
        stats = warm.stats()
        assert stats["num_reused_store"] == num_views
        assert stats["num_reused_memory"] == 0
        assert cold.stats()["num_reused_store"] == 0

        speedup = cold_elapsed / max(warm_elapsed, 1e-9)
        series.append(
            {
                "num_views": num_views,
                "cold_ms": round(cold_elapsed * 1000, 2),
                "warm_ms": round(warm_elapsed * 1000, 2),
                "speedup": round(speedup, 2),
                "store_spliced": stats["num_reused_store"],
            }
        )
        rows.append(
            (
                num_views,
                stats["num_reused_store"],
                f"{cold_elapsed * 1000:.1f}",
                f"{warm_elapsed * 1000:.1f}",
                f"{speedup:.1f}x",
            )
        )

    lines = table(
        ["#views", "#store-spliced", "cold run (ms)", "warm run (ms)", "speedup"],
        rows,
    )
    lines.append("")
    lines.append(
        "A second session over an unchanged corpus replays preprocessing from "
        "the parse cache and splices every extraction from the lineage store."
    )
    emit("store", "Persistent store — warm start vs cold start", lines)
    emit_json("store", {"warm_start": series})
    emit_root_json("store", {"warm_start": series})

    # the headline claim: warm >= 2x cold at the largest size.  The bar was
    # 5x against the PR 3 cold path; PR 4 made the cold path itself ~2.5x
    # faster (master-pattern lexer, slotted AST, fused print+hash, memoized
    # resolution — see BENCH_cold_path.json), so the warm/cold *ratio*
    # shrank even though absolute warm time did not regress.  Wall-clock
    # assertions are flaky on shared CI runners, so there the structural
    # checks above (100% splice, graph equality) stand in; the timing gate
    # runs locally and under BENCH_STRICT=1.
    if not os.environ.get("CI") or os.environ.get("BENCH_STRICT"):
        assert series[-1]["speedup"] >= 2.0, (
            f"warm start only {series[-1]['speedup']:.1f}x faster at "
            f"{series[-1]['num_views']} views"
        )


@pytest.mark.parametrize("num_views", [200], ids=["200-views"])
def test_warm_start_benchmark(benchmark, num_views):
    sources, catalog = _warehouse(num_views)
    cache_dir = tempfile.mkdtemp(prefix="lineage-store-bench-")
    try:
        _timed_run(cache_dir, sources, catalog)  # populate

        def warm_run():
            store = LineageStore(cache_dir)
            result = LineageXRunner(catalog=catalog, store=store).run(sources)
            store.close()
            return result

        result = benchmark(warm_run)
        assert result.stats()["num_reused_store"] == num_views
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
