"""The unified Session API — one façade over sources, engines and renderers.

Historically the library grew three parallel entry points (``lineagex``,
``lineagex_with_connection``, ``lineagex_dbt``), each with its own kwargs
and input handling.  :class:`LineageSession` replaces them with a single
configured object:

>>> import repro
>>> session = repro.LineageSession("models/")
>>> result = session.extract()               # auto-detected source adapter
>>> print(result.render("markdown"))         # any registered format
>>> # ... edit files under models/ ...
>>> refreshed = session.refresh()            # text diff -> incremental

With ``cache_dir`` the session keeps a persistent content-addressed
lineage store, so a *new process* over an unchanged corpus warm-starts by
splicing every extraction from disk:

>>> session = repro.LineageSession("models/", cache_dir=".lineage-cache")

Three orthogonal axes compose:

* **sources** — input handling is delegated to the adapter registry in
  :mod:`repro.sources` (``Source.detect``): raw text, ``.sql`` files,
  directories, dbt projects and JSONL query logs all work, and adapters
  backed by a re-scannable store power :meth:`LineageSession.refresh`;
* **engines** — ``engine="static"`` runs the AST pipeline
  (:class:`~repro.core.runner.LineageXRunner`), ``engine="plan"`` runs the
  database-connection mode
  (:class:`~repro.core.plan_extractor.PlanModeRunner`); both produce the
  same :class:`LineageResult` surface;
* **renderers** — every output format resolves through
  :mod:`repro.output.registry`, so ``result.render(fmt)`` and the CLI share
  one table.

The legacy one-call functions are thin shims over this class and keep
working unchanged.
"""

import os
import threading
from dataclasses import dataclass, replace as dataclass_replace
from types import MappingProxyType
from typing import Protocol, runtime_checkable

from .core.errors import SessionClosedError
from .core.plan_extractor import PlanModeRunner
from .core.runner import LineageXRunner
from .ingest import pending
from .sources import Source

#: engine name -> builder; the seam future engines plug into.
ENGINES = ("static", "plan")
_MODES = ("dag", "stack")
_DIALECTS = {"postgres": "postgres", "postgresql": "postgres"}


@runtime_checkable
class LineageResult(Protocol):
    """What every engine's result exposes (the engine-parity contract).

    Both the static and the plan engine return
    :class:`~repro.core.runner.LineageXResult`, which satisfies this
    protocol; any future engine must as well, so downstream code (CLI,
    renderers, impact analysis) never branches on the engine.
    """

    def stats(self): ...

    def to_dict(self): ...

    def save(self, output_dir, basename="lineagex"): ...

    def impact_analysis(self, column, direction="downstream"): ...

    def render(self, fmt, **options): ...


@dataclass(frozen=True)
class SessionConfig:
    """Immutable extraction configuration for a :class:`LineageSession`.

    Parameters
    ----------
    strict:
        Raise on ambiguous unqualified columns instead of attributing them
        conservatively.
    mode:
        Static-engine scheduling: ``"dag"`` (topological waves, default) or
        ``"stack"`` (the paper's reactive LIFO deferral).
    cache_dir:
        Directory of the persistent content-addressed lineage store.  When
        set, ``extract()``/``refresh()`` splice unchanged statements from
        disk (warm start across processes) and persist new extractions.
        ``None`` (default) disables persistence.
    use_stack:
        Enable the auto-inference deferral stack (disable only for the
        ablation study).
    collect_traces:
        Record per-query extraction traces (rule firings).
    engine:
        ``"static"`` (AST pipeline) or ``"plan"`` (simulated-EXPLAIN
        database-connection mode).  The plan engine validates every
        dependency against the catalog, needs no scheduling plan, and
        therefore ignores ``mode``/``use_stack``.
    dialect:
        SQL dialect for parsing and identifier folding.  Only
        PostgreSQL semantics are implemented today (``"postgres"``,
        with ``"postgresql"`` accepted as an alias); the field exists so
        adding a dialect is a config value, not an API change.
    stream:
        Bounded-memory extraction for corpora beyond what comfortably
        fits in memory as ASTs (the 100k-statement scale tier):
        preprocessing consumes the source lazily and drops each AST once
        its parse record exists, and extraction re-materialises ASTs wave
        by wave and releases them after recording.  Output is
        byte-identical to the default mode.  Static engine only.
    """

    strict: bool = False
    mode: str = "dag"
    use_stack: bool = True
    collect_traces: bool = False
    engine: str = "static"
    dialect: str = "postgres"
    cache_dir: str = None
    stream: bool = False

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {', '.join(ENGINES)}"
            )
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown scheduling mode {self.mode!r}; expected one of {', '.join(_MODES)}"
            )
        if self.cache_dir is not None:
            try:
                path = os.fsdecode(self.cache_dir)
            except TypeError:
                raise ValueError(
                    f"cache_dir must be a path or None, got {self.cache_dir!r}"
                ) from None
            object.__setattr__(self, "cache_dir", path)
        canonical = _DIALECTS.get(str(self.dialect).lower())
        if canonical is None:
            raise ValueError(
                f"unsupported dialect {self.dialect!r}; supported: "
                + ", ".join(sorted(set(_DIALECTS.values())))
            )
        object.__setattr__(self, "dialect", canonical)

    def replace(self, **overrides):
        """A copy of this config with ``overrides`` applied (re-validated)."""
        return dataclass_replace(self, **overrides)


class LineageSession:
    """A configured lineage workspace over one source.

    Parameters
    ----------
    source:
        Anything the source-adapter registry accepts (SQL text, a
        ``{name: sql}`` mapping, a ``.sql`` file or directory path, a dbt
        project, a JSONL query log) or an explicit
        :class:`~repro.sources.Source` instance.  May be omitted and
        supplied to :meth:`extract` instead.
    catalog:
        Optional :class:`~repro.catalog.Catalog` with base-table schemas.
        For the plan engine this plays the role of the live database.
    config:
        A :class:`SessionConfig`; keyword ``overrides`` (``strict=True``,
        ``engine="plan"``, ...) are applied on top of it (or on top of the
        default config when omitted).
    """

    def __init__(self, source=None, *, catalog=None, config=None, **overrides):
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.catalog = catalog
        self.source = Source.detect(source) if source is not None else None
        self._payload = None       # the text the current result was built from
        self._result = None
        self._store = None         # lazily opened LineageStore (cache_dir)
        #: serialises extract()/refresh(): the session mutates one result
        #: at a time however many threads drive it (the serving daemon's
        #: ingest loop runs refreshes from a worker thread while other
        #: threads may trigger one explicitly).  An RLock keeps the
        #: refresh() -> extract() fallback re-entrant.
        self._write_lock = threading.RLock()
        self._snapshot_cache = None  # (graph, state token, frozen view)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def result(self):
        """The most recent extraction result (``None`` before extract())."""
        return self._result

    @property
    def statements(self):
        """The ``{name: sql}`` text the current result was built from.

        This is the one record of which text is applied under each name:
        the ingest front ends (:mod:`repro.ingest`) dedupe against it
        instead of keeping their own.  Empty before the first extraction
        and for payloads that are not name-addressable (raw SQL text).
        """
        payload = self._payload if isinstance(self._payload, dict) else {}
        return MappingProxyType(payload)

    @property
    def engine(self):
        """The configured engine name."""
        return self.config.engine

    @property
    def store(self):
        """The persistent lineage store (``None`` without ``cache_dir``).

        Opened lazily on first use and shared by every extraction this
        session runs; :meth:`close` releases it.  Only the static engine
        consults it — the plan engine re-validates everything through the
        simulated EXPLAIN by design.
        """
        if self.config.cache_dir is None or self._closed:
            return None
        if self._store is None:
            from .store import LineageStore

            self._store = LineageStore(self.config.cache_dir)
        return self._store

    def cache_stats(self):
        """Store counters (see :meth:`repro.store.LineageStore.stats`)."""
        store = self.store
        if store is None:
            raise ValueError("no cache_dir configured: the session has no store")
        return store.stats()

    def close(self):
        """Flush and release the persistent store (if one was opened).

        Idempotent and shutdown-safe: a second call is a no-op, a store
        whose lazy open failed (``self._store`` never assigned) is simply
        skipped, and a store that errors while closing is still detached —
        a daemon's teardown path may run this from several places (signal
        handler, context-manager exit, atexit) without double-release.

        Closing is terminal for *writes*: a subsequent (or in-flight)
        ``extract()``/``refresh()`` raises
        :class:`~repro.core.errors.SessionClosedError` rather than
        adopting a result whose store flush was torn down under it.
        Reads of the last result (``render()``, ``impact()``,
        ``snapshot()``) keep working.
        """
        self._closed = True
        store, self._store = self._store, None
        if store is not None:
            try:
                store.close()
            except Exception:
                # release is best-effort: the store is a cache, and the
                # handle is already detached from the session either way
                pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    def _build_engine(self):
        if self.config.engine == "plan":
            return PlanModeRunner(catalog=self.catalog)
        return LineageXRunner(
            catalog=self.catalog,
            strict=self.config.strict,
            use_stack=self.config.use_stack,
            collect_traces=self.config.collect_traces,
            mode=self.config.mode,
            store=self.store,
            dialect=self.config.dialect,
            stream=self.config.stream,
        )

    # ------------------------------------------------------------------
    def extract(self, source=None):
        """Run the configured engine over the session's source.

        ``source`` (when given) replaces the session's source for this and
        subsequent calls.  Returns the engine's :class:`LineageResult`.
        """
        with self._write_lock:
            if self._closed:
                raise SessionClosedError("extract")
            if source is not None:
                self.source = Source.detect(source)
            if self.source is None:
                raise ValueError(
                    "no source to extract: pass one to LineageSession(...) or extract(...)"
                )
            payload = self.source.load()
            result = self._build_engine().run(payload)
            if self._closed:
                # close() landed while the engine ran: the store flush was
                # torn down under this extraction — refuse to adopt it
                raise SessionClosedError("extract")
            self._payload = payload
            self._result = result
            return self._result

    def refresh(self, changes=None):
        """Re-extract after source changes, reusing everything unaffected.

        Parameters
        ----------
        changes:
            ``{name: new_sql}`` delta (``None`` value removes the entry).
            When omitted, the source is **re-scanned** and the delta is
            computed by diffing it against the applied text
            (:attr:`statements`) — supported for directory, dbt-directory
            and query-log-file sources.

        With the static engine this feeds the delta into the incremental
        layer (:meth:`LineageXResult.update`): only changed entries, and
        the transitive DAG dependents for which a relation they read
        changed its column list, are re-extracted.  The plan engine
        has no incremental path (EXPLAIN revalidates every dependency), so
        a full re-run over the merged sources is performed instead.
        """
        with self._write_lock:
            if self._closed:
                raise SessionClosedError("refresh")
            if self._result is None:
                if self.source is None and changes:
                    # a sourceless session (the serving daemon's shape)
                    # bootstraps straight from its first delta: the changes
                    # ARE the corpus.  Deliberately NOT routed through
                    # extract(): the session stays sourceless, and a failed
                    # bootstrap leaves no state behind (the next delta gets
                    # a clean retry instead of re-running a broken corpus)
                    payload = {
                        name: sql for name, sql in changes.items() if sql is not None
                    }
                    result = self._build_engine().run(payload)
                    if self._closed:
                        raise SessionClosedError("refresh")
                    self._payload = payload
                    self._result = result
                    return result
                return self.extract()
            if changes is None:
                changes = self._detect_changes()
            if not changes:
                return self._result
            if self.config.engine == "plan":
                merged = self._merged_payload(changes)
                rerun = self._build_engine().run(merged)
                if self._closed:
                    raise SessionClosedError("refresh")
                self._payload = merged
                self._result = rerun
            else:
                updated = self._result.update(changes)
                if self._closed:
                    # close() landed mid-update: don't adopt a result whose
                    # store writes may have been dropped by the teardown
                    raise SessionClosedError("refresh")
                self._result = updated
                if isinstance(self._payload, dict):
                    self._payload = self._merged_payload(changes)
            return self._result

    def _detect_changes(self):
        if self.source is None or not self.source.supports_rescan:
            raise ValueError(
                "this source cannot be re-scanned for changes "
                f"({'no source' if self.source is None else self.source.kind!r}); "
                "pass the changes to refresh() explicitly"
            )
        if not isinstance(self._payload, dict):
            raise ValueError(
                "no name-addressable payload from the last extract(); "
                "pass the changes to refresh() explicitly"
            )
        # the applied text is the baseline: every name the rescan redefines
        # or adds, plus a removal for every name it no longer has
        return pending(self, dict.fromkeys(self._payload) | self.source.rescan())

    def _merged_payload(self, changes):
        if not isinstance(self._payload, dict):
            raise ValueError(
                "refresh() with the plan engine needs a name-addressable "
                "source (directory, dbt project, query log, or {name: sql} "
                "mapping); re-run extract() instead"
            )
        merged = self._payload.copy()
        for name, sql in changes.items():
            if sql is None:
                merged.pop(name, None)
            else:
                merged[name] = sql
        return merged

    # ------------------------------------------------------------------
    def stream_log(self, log=None, **options):
        """A :class:`~repro.streaming.QueryLogStreamer` tailing ``log``.

        ``log`` is the path of a JSONL query log; when omitted, the
        session's own source must be a file-backed query log.  The
        returned streamer feeds this session in micro-batches (repeated
        statements are absorbed against the applied text, changed
        definitions go through :mod:`repro.ingest`, poison quarantines),
        persists a crash-safe resume offset next to the log, and
        optionally compacts superseded store records —
        see :mod:`repro.streaming` for the knobs and the crash-safety
        contract.  A *sourceless* session is the natural shape: its first
        batch bootstraps the corpus.
        """
        from .streaming import QueryLogStreamer

        if log is None:
            source = self.source
            if (
                source is None
                or getattr(source, "kind", None) != "query_log"
                or not getattr(source, "is_file_backed", False)
            ):
                raise ValueError(
                    "stream_log() needs a file-backed JSONL query log: pass "
                    "the log path, or construct the session over one"
                )
            log = os.fspath(source.raw)
        return QueryLogStreamer(self, log, **options)

    # ------------------------------------------------------------------
    def snapshot(self):
        """An immutable, lock-free-readable view of the current graph.

        Returns the frozen point-in-time graph
        (:meth:`~repro.core.lineage.LineageGraph.freeze`) of the most
        recent extraction, or ``None`` before the first ``extract()``.
        The snapshot's adjacency index is built eagerly, so any number of
        reader threads can traverse or render it with no locking while
        this session keeps refreshing — a later ``refresh()`` assembles a
        new graph and never mutates what the snapshot captured.
        """
        result = self._result
        if result is None:
            return None
        graph = result.graph
        token = graph._state_token()
        cached = self._snapshot_cache
        if (
            cached is not None
            and cached[0] is graph
            and cached[1] == token
        ):
            return cached[2]
        seed = cached[2].reachability(build=False) if cached is not None else None
        frozen = graph.freeze(reach_seed=seed)
        # hold the graph reference so an ``is`` hit can never alias a new
        # object reusing a collected graph's id
        self._snapshot_cache = (graph, token, frozen)
        return frozen

    def render(self, fmt, **options):
        """Render the last result through the renderer registry."""
        return self._require_result().render(fmt, **options)

    def impact(self, column, direction="downstream"):
        """Impact analysis over the last result's graph."""
        return self._require_result().impact_analysis(column, direction=direction)

    def save(self, output_dir, basename="lineagex"):
        """Write the last result's JSON + HTML documents into ``output_dir``."""
        return self._require_result().save(output_dir, basename=basename)

    def _require_result(self):
        if self._result is None:
            raise ValueError("nothing extracted yet: call extract() first")
        return self._result

    def __repr__(self):
        source = self.source.kind if self.source is not None else None
        return (
            f"LineageSession(engine={self.config.engine!r}, source={source!r}, "
            f"extracted={self._result is not None})"
        )
