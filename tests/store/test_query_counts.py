"""Warm-start read-path query accounting.

A warm run knows every entry's content hash up front, so its reads must
be *batched*: ``prime()`` loads lineage records with chunked ``IN (...)``
SELECTs keyed by content hash, and the parse cache resolves every source
fragment through one ``get_sources`` batch.  These tests pin the actual
SQL statement counts via sqlite's trace callback, so a regression back to
per-key point lookups fails loudly instead of just showing up as a slower
warm start.
"""

import shutil
import tempfile

import pytest

from repro.core.runner import LineageXRunner
from repro.datasets import workload
from repro.store import LineageStore

NUM_VIEWS = 40


@pytest.fixture()
def cache_dir():
    path = tempfile.mkdtemp(prefix="lineage-store-queries-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _corpus():
    warehouse = workload.generate_warehouse(
        num_base_tables=5, num_views=NUM_VIEWS, seed=13
    )
    return dict(warehouse.views), warehouse.catalog()


def _traced_store(cache_dir, statements):
    """A store whose sqlite connection records every executed statement."""
    store = LineageStore(cache_dir)
    connection = store._connect()
    assert connection is not None
    connection.set_trace_callback(statements.append)
    return store


def test_warm_start_read_path_is_batched(cache_dir):
    sources, catalog = _corpus()

    cold_store = LineageStore(cache_dir)
    cold = LineageXRunner(catalog=catalog, store=cold_store).run(sources)
    assert cold.stats()["num_reused_store"] == 0
    cold_store.close()

    statements = []
    warm_store = _traced_store(cache_dir, statements)
    warm = LineageXRunner(catalog=catalog, store=warm_store).run(sources)
    warm_store.close()
    assert warm.stats()["num_reused_store"] == NUM_VIEWS

    source_selects = [
        stmt
        for stmt in statements
        if "SELECT" in stmt and "FROM source_records" in stmt
    ]
    lineage_selects = [
        stmt
        for stmt in statements
        if "SELECT" in stmt and "FROM lineage_records" in stmt
    ]
    # parse cache: one batched IN (...) SELECT for all fragments — never
    # one point query per fragment
    assert len(source_selects) == 1, source_selects
    assert "IN (" in source_selects[0]
    # lineage records: one prime() batch; every subsequent key resolves
    # from the primed LRU without touching sqlite again
    assert len(lineage_selects) == 1, lineage_selects
    assert "IN (" in lineage_selects[0]


def test_cold_run_sends_no_point_queries(cache_dir):
    # prime() finds no record for any content hash, so no entry's key is
    # looked up: the run reads lineage records once, in the prime batch
    sources, catalog = _corpus()
    statements = []
    store = _traced_store(cache_dir, statements)
    cold = LineageXRunner(catalog=catalog, store=store).run(sources)
    store.close()
    assert cold.stats()["num_reused_store"] == 0
    lineage_selects = [
        stmt
        for stmt in statements
        if "SELECT" in stmt and "FROM lineage_records" in stmt
    ]
    assert len(lineage_selects) == 1, lineage_selects
    assert "IN (" in lineage_selects[0]


def test_get_sources_batch_semantics(cache_dir):
    store = LineageStore(cache_dir)
    store.put_source("k1", [{"kind": "skip", "warning": "w"}])
    store.put_source("k2", [{"kind": "skip", "warning": "w2"}])
    store.flush()

    found = store.get_sources(["k1", "k2", "missing"])
    assert set(found) == {"k1", "k2"}
    assert found["k1"] == [{"kind": "skip", "warning": "w"}]
    assert store.get_sources([]) == {}
    store.close()


def test_get_sources_corrupt_row_is_a_miss(cache_dir):
    store = LineageStore(cache_dir)
    store.put_source("good", [{"kind": "skip", "warning": "w"}])
    store.flush()
    connection = store._connect()
    connection.execute(
        "INSERT INTO source_records (source_key, record, created_at, last_used_at) "
        "VALUES ('bad', 'not json', 0, 0)"
    )
    connection.commit()

    found = store.get_sources(["good", "bad"])
    assert set(found) == {"good"}
    assert store.corrupt == 1
    store.close()


def test_parse_cache_prefetch_miss_issues_no_point_queries(cache_dir):
    statements = []
    store = _traced_store(cache_dir, statements)
    cache = store.parse_cache("postgres")
    cache.prefetch(["SELECT 1", "SELECT 2"])
    before = len(
        [s for s in statements if "SELECT" in s and "source_records" in s]
    )
    assert cache.get("SELECT 1") is None
    assert cache.get("SELECT 2") is None
    after = len(
        [s for s in statements if "SELECT" in s and "source_records" in s]
    )
    # a definitive prefetch miss must not fall back to per-key lookups
    assert after == before
    store.close()
