"""Store I/O under injected faults: retry, degraded counters, breaker."""

import logging
import random
import sqlite3
import time

import pytest

from repro.core.column_refs import ColumnName
from repro.core.lineage import TableLineage
from repro.store import LineageStore, make_key, schema_fingerprint
from repro.store.store import BREAKER_THRESHOLD, RETRY_ATTEMPTS
from repro.testing import faults


def _entry(name="v"):
    entry = TableLineage(name=name, sql=f"CREATE VIEW {name} AS SELECT a FROM t")
    entry.add_contribution("a", ColumnName.of("t", "a"))
    entry.add_reference(ColumnName.of("t", "b"))
    return entry


def _key(tag="x"):
    return make_key(tag, "postgres", 1, schema_fingerprint([("t", ["a", "b"])]))


def _seed_with(pattern, site, rate):
    """A seed whose per-site schedule at ``rate`` matches ``pattern``."""
    for seed in range(10000):
        rng = random.Random(f"{seed}:{site}")
        if [rng.random() < rate for _ in pattern] == list(pattern):
            return seed
    raise AssertionError("no seed found")  # pragma: no cover


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def store(tmp_path):
    # lru_size=0 so every read reaches sqlite (the LRU would mask faults)
    store = LineageStore(tmp_path, lru_size=0)
    yield store
    faults.reset()
    store.close()


class TestRetry:
    def test_transient_read_fault_is_retried_to_success(self, store):
        store.put(_key(), _entry())
        # a schedule that faults the first attempt and spares the retry
        seed = _seed_with([True, False], "store.read", 0.5)
        faults.install(faults.FaultPlan(seed=seed, rates={"store.read": 0.5}))
        assert store.get(_key()) == _entry()
        assert store.error_misses == 0  # the retry absorbed the fault
        assert store._failures == 0

    def test_transient_write_fault_is_retried_to_success(self, store):
        seed = _seed_with([True, False], "store.write", 0.5)
        faults.install(faults.FaultPlan(seed=seed, rates={"store.write": 0.5}))
        assert store.put(_key(), _entry()) is True
        assert store.dropped_writes == 0
        faults.reset()
        assert store.get(_key()) == _entry()


class TestDegradedCounters:
    def test_exhausted_read_is_a_counted_cold_miss(self, store):
        store.put(_key(), _entry())
        faults.install(faults.FaultPlan(seed=0, rates={"store.read": 1.0}))
        assert store.get(_key()) is None  # miss, not an exception
        assert store.error_misses == 1
        assert store.health()["error_misses"] == 1
        # plain misses are not conflated with error misses
        assert store.misses == 1

    def test_exhausted_write_is_a_counted_drop(self, store):
        faults.install(faults.FaultPlan(seed=0, rates={"store.write": 1.0}))
        assert store.put(_key(), _entry()) is False
        assert store.dropped_writes == 1
        assert store.health()["dropped_writes"] == 1
        faults.reset()
        assert store.get(_key()) is None  # the write really was dropped

    def test_first_failure_warns_once(self, store, caplog):
        store.put(_key("a"), _entry("a"))
        faults.install(faults.FaultPlan(seed=0, rates={"store.read": 1.0}))
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            store.get(_key("a"))
            store.get(_key("a"))
        warnings = [
            record for record in caplog.records if "degrading" in record.message
        ]
        assert len(warnings) == 1  # warned once, not per failure

    def test_stats_surface_degradation(self, store):
        faults.install(faults.FaultPlan(seed=0, rates={"store.write": 1.0}))
        store.put(_key(), _entry())
        faults.reset()
        stats = store.stats()
        assert stats["session_dropped_writes"] == 1
        assert store.health()["dropped_writes"] == 1
        assert stats["breaker"] == "closed"
        assert stats["breaker_trips"] == 0


class TestCircuitBreaker:
    def _trip(self, store):
        faults.install(faults.FaultPlan(seed=0, rates={"store.read": 1.0}))
        for _ in range(BREAKER_THRESHOLD):
            store.get(_key())

    def test_consecutive_failures_open_the_breaker(self, store):
        self._trip(store)
        health = store.health()
        assert health["status"] == "degraded"
        assert health["breaker"] == "open"
        assert health["trips"] == 1
        assert store.stats()["breaker_trips"] == 1

    def test_open_breaker_short_circuits(self, store):
        self._trip(store)
        plan = faults.active()
        hits_when_open = plan.hits("store.read")
        store.get(_key())  # degrades without touching sqlite
        assert plan.hits("store.read") == hits_when_open  # no attempt made
        assert store.error_misses == BREAKER_THRESHOLD + 1
        # the breaker outlives the fault: reads stay degraded until cooldown
        faults.reset()
        assert store.get(_key()) is None

    def test_probe_after_cooldown_closes_the_breaker(self, store):
        store.put(_key(), _entry())
        self._trip(store)
        faults.reset()
        # expire the cooldown: the next read is the half-open probe
        store._open_until = time.monotonic() - 1.0
        assert store.get(_key()) == _entry()
        health = store.health()
        assert health["status"] == "ok"
        assert health["breaker"] == "closed"
        assert health["consecutive_failures"] == 0

    def test_failed_probe_rearms_without_a_new_trip(self, store):
        self._trip(store)
        store._open_until = time.monotonic() - 1.0
        store.get(_key())  # probe under the still-armed fault: fails
        health = store.health()
        assert health["breaker"] == "open"
        assert health["trips"] == 1  # re-armed, not re-tripped

    def test_success_resets_the_failure_streak(self, store):
        store.put(_key(), _entry())
        # threshold-1 failures, then a success, then threshold-1 more:
        # the breaker must never open (failures are *consecutive*)
        faults.install(faults.FaultPlan(seed=0, rates={"store.read": 1.0}))
        for _ in range(BREAKER_THRESHOLD - 1):
            store.get(_key())
        faults.reset()
        assert store.get(_key()) == _entry()
        faults.install(faults.FaultPlan(seed=0, rates={"store.read": 1.0}))
        for _ in range(BREAKER_THRESHOLD - 1):
            store.get(_key())
        assert store.health()["breaker"] == "closed"


class TestTransactionHygiene:
    def test_failed_write_rolls_back_between_attempts(self, store):
        # an operation that stages rows and then dies (e.g. a failed
        # commit) must not leave an open write transaction: it would pin
        # the file's write lock until busy-timeout, and the staged rows
        # would ride along with the next unrelated commit
        def poisoned_write(connection):
            connection.execute(
                "INSERT OR REPLACE INTO source_records "
                "(source_key, record, created_at, last_used_at) "
                "VALUES ('stale', '[]', 0, 0)"
            )
            raise sqlite3.OperationalError("commit failed")

        ok, _ = store._io("write", poisoned_write)
        assert ok is False
        with store._lock:
            connection = store._connect()
            assert connection.in_transaction is False
        # a later successful commit must not carry the stale row with it
        assert store.put_source("good", []) is True
        with store._lock:
            rows = connection.execute(
                "SELECT source_key FROM source_records"
            ).fetchall()
        assert rows == [("good",)]

    def test_backoff_sleeps_release_the_store_lock(self, store, monkeypatch):
        # retry backoff must not stall every other reader/writer of the
        # store behind a sleeping thread during a fault storm
        held_during_sleep = []
        monkeypatch.setattr(
            "repro.store.store.time.sleep",
            lambda duration: held_during_sleep.append(store._lock.locked()),
        )
        faults.install(faults.FaultPlan(seed=0, rates={"store.write": 1.0}))
        assert store.put(_key(), _entry()) is False
        assert held_during_sleep == [False] * RETRY_ATTEMPTS


class TestRetryBudget:
    def test_attempt_count_is_bounded(self, store):
        store.put(_key(), _entry())
        plan = faults.install(
            faults.FaultPlan(seed=0, rates={"store.read": 1.0})
        )
        store.get(_key())
        assert plan.hits("store.read") == 1 + RETRY_ATTEMPTS
