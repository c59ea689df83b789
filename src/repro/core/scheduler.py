"""Table/View Auto-Inference: planned and stack-based query scheduling.

Section III of the paper: the extraction module "gives priority to SQL
statements identified by keys in QD"; when a traversal encounters a table or
view that has not been processed yet, the current traversal is deferred onto
a stack, the missing dependency is processed first, and the deferred work is
resumed in LIFO order.  This is what makes ``SELECT *`` over a later-defined
view and unprefixed column references resolvable without DBMS metadata.

This module supports two scheduling modes:

* ``mode="dag"`` (the default) — *plan-first*: a cheap pre-pass
  (:class:`~repro.core.dag.DependencyDAG`) reads each statement's
  ``FROM``/``JOIN``/set-operation sources, topologically sorts the Query
  Dictionary into waves, and extracts in dependency order.  The LIFO
  deferral stack is retained only as a fallback for references the pre-pass
  cannot see; on well-formed input it never fires.  Entries within a wave
  are mutually independent, so they can optionally be extracted in
  parallel (``workers=N``) on either executor backend:
  ``executor="thread"`` (a ``ThreadPoolExecutor`` — extraction is
  CPU-bound pure Python, so under the GIL this mostly serializes; useful
  on free-threaded builds) or ``executor="process"`` (a
  ``ProcessPoolExecutor`` — each wave entry ships to a worker process as
  a picklable, self-contained :func:`extract_statement_job`, actually
  using the cores).  Results are recorded in wave order after each wave
  drains, so the output is byte-identical for any worker count and any
  executor; a process pool that cannot start (no fork/spawn support,
  sandboxes) degrades gracefully to threads.
* ``mode="stack"`` — the paper's reactive behaviour: process entries in
  Query Dictionary order and discover dependencies via thrown
  :class:`UnknownRelationError`.

The scheduler also supports ``use_stack=False`` for the ablation benchmark
(ABL-STACK in DESIGN.md): queries are then processed strictly in Query
Dictionary order and any not-yet-known relation is treated as an external
table of unknown schema, reproducing the failure modes of single-pass tools.
(``use_stack=False`` forces the reactive mode — planning would mask exactly
the failure modes the ablation measures.)

``seed_results`` pre-populates extraction results (keyed by identifier) and
is the substrate of incremental re-extraction: seeded entries are treated as
already processed and spliced into the output graph unchanged.
"""

import contextlib
import pickle
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

from .dag import DependencyDAG
from .errors import (
    CyclicDependencyError,
    DeferralLimitExceededError,
    UnknownRelationError,
)
from .extractor import LineageExtractor, MappingSchemaProvider, SchemaProvider
from .lineage import LineageGraph
from ..sqlparser.dialect import normalize_name

#: executor kinds accepted by the scheduler (and by SessionConfig/the CLI).
EXECUTORS = ("thread", "process")


def extract_statement_job(entry, schemas, pending, strict, collect_trace):
    """Extract one Query Dictionary entry against a schema snapshot.

    A module-level *pure* function of picklable inputs: ``entry`` is the
    :class:`~repro.core.preprocess.ParsedQuery`, ``schemas`` a plain
    ``{relation: [columns]}`` snapshot of everything visible to it, and
    ``pending`` the referenced relations that are still unextracted Query
    Dictionary entries (a lookup of one raises
    :class:`UnknownRelationError`, which the scheduler turns into a
    deferral-stack fallback).  Being module-level and self-contained is what
    makes ``executor="process"`` possible: the job ships to a
    ``ProcessPoolExecutor`` worker as data, runs without any shared state,
    and returns a picklable ``(TableLineage, ExtractionTrace)`` pair.
    """
    provider = MappingSchemaProvider(
        schemas, pending=pending, current=entry.identifier
    )
    extractor = LineageExtractor(
        provider=provider, strict=strict, collect_trace=collect_trace
    )
    return extractor.extract_statement(entry)


def extract_statement_batch_job(jobs, strict, collect_trace):
    """Extract a batch of wave entries in one worker round trip.

    ``jobs`` is a list of ``(entry, schemas, pending)`` triples, each the
    payload of one :func:`extract_statement_job`.  The 100k-statement
    scale tier made per-entry submission a bottleneck: wide waves mean
    tens of thousands of futures, each paying pickling and queue overhead
    for milliseconds of work.  Batches amortise that, and the scheduler
    routes each batch by store shard (content-hash prefix), so the
    results a batch produces land in one shard's transaction when the
    runner bulk-persists them.

    Outcomes are per entry and positional: ``("ok", lineage, trace)`` or
    ``("defer", None, None)`` for an :class:`UnknownRelationError` (a
    dependency the pre-pass could not see — that *entry* falls back to
    the deferral stack, not the whole batch).  Any other exception
    propagates and fails the batch's future, exactly like the per-entry
    job.
    """
    outcomes = []
    for entry, schemas, pending in jobs:
        try:
            lineage, trace = extract_statement_job(
                entry, schemas, pending, strict, collect_trace
            )
        except UnknownRelationError:
            outcomes.append(("defer", None, None))
        else:
            outcomes.append(("ok", lineage, trace))
    return outcomes


def _probe_job():
    """A no-op shipped through a fresh process pool to prove it works."""
    return True


@contextlib.contextmanager
def _managed_pool(pool):
    """Deterministic executor shutdown, success or failure.

    On a clean exit the pool drains normally; when a wave raises, queued
    futures are cancelled *before* the join so no stray extraction keeps
    running (or keeps worker threads/processes alive) after the scheduler
    has already propagated the error.
    """
    try:
        yield pool
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)


@dataclass
class DeferralEvent:
    """One stack operation, recorded for tests and the ablation bench."""

    kind: str            # "defer" | "resume" | "done"
    identifier: str
    missing: str = ""


@dataclass
class ScheduleReport:
    """What the scheduler did: plan, processing order, and deferral events."""

    order: list = field(default_factory=list)
    events: list = field(default_factory=list)
    unresolved: dict = field(default_factory=dict)   # identifier -> error message
    traces: dict = field(default_factory=dict)       # identifier -> ExtractionTrace
    mode: str = "stack"
    waves: list = field(default_factory=list)        # the topological plan (dag mode)
    reused: list = field(default_factory=list)       # identifiers spliced from a cache
    #: where each reused identifier was spliced from: ``"memory"`` (the
    #: previous result's graph, i.e. the incremental layer) or ``"store"``
    #: (the persistent content-addressed lineage store).
    reused_from: dict = field(default_factory=dict)
    #: the wave-execution backend actually used: ``"serial"``, ``"thread"``,
    #: or ``"process"`` (a requested process pool that could not be started
    #: degrades to ``"thread"``; a pool that breaks mid-run finishes
    #: sequentially and is reported as ``"<backend>-degraded-serial"``).
    executor: str = "serial"

    @property
    def deferral_count(self):
        return sum(1 for event in self.events if event.kind == "defer")


class _SchedulerProvider(SchemaProvider):
    """Schema provider that reflects the scheduler's progress.

    Column lookups consult, in order: lineage already extracted for a Query
    Dictionary entry, the optional catalog, and finally — when the relation
    is a *pending* Query Dictionary entry and the stack is enabled — raise
    :class:`UnknownRelationError` so the scheduler defers to it.

    ``current`` is the identifier being extracted through this provider; a
    query reading the relation it also writes (``UPDATE ... FROM``,
    self-referencing ``INSERT``) must not be treated as a missing dependency
    on itself.  Parallel wave extraction gives each worker its own provider
    with ``current`` fixed, so no shared mutable state is involved.
    """

    def __init__(self, scheduler, current=None):
        # the scheduler's state, not the scheduler: it owns this provider,
        # and a reference back would make every run (its results, DAG and
        # schema memo) cyclic garbage that only a full collection frees
        self.results = scheduler.results
        self.schema_cache = scheduler.schema_cache
        self.pending = scheduler.pending
        self.use_stack = scheduler.use_stack
        self.catalog = scheduler.catalog
        self.current = current

    def get_columns(self, name):
        name = normalize_name(name)
        lineage = self.results.get(name)
        if lineage is not None:
            # memoized across statements within the run; the cached list is
            # stamped with the TableLineage version token so a (never
            # expected) post-record mutation invalidates instead of serving
            # stale columns.  Wide schemas referenced by many statements
            # stop rebuilding their column list per reference.
            cached = self.schema_cache.get(name)
            if cached is not None and cached[0] == lineage._version:
                return list(cached[1])
            columns = list(lineage.output_columns)
            self.schema_cache[name] = (lineage._version, columns)
            return list(columns)
        if (
            self.use_stack
            and name in self.pending
            and name != self.current
        ):
            # A pending Query Dictionary entry shadows any same-named
            # catalog table: a relation that is both a catalog table and a
            # write target (MERGE/UPDATE/INSERT into a base table) must
            # resolve to the entry's extracted output columns regardless of
            # processing order — falling back to the catalog here would
            # make stack-mode results depend on statement order.
            raise UnknownRelationError(
                name, reason="defined by a not-yet-processed query"
            )
        if self.catalog is not None:
            # the catalog is frozen for the duration of a run (it is built
            # before scheduling and only merged/extended between runs), so
            # its column lists memoize under a version-less token
            cached = self.schema_cache.get(name)
            if cached is not None and cached[0] is None:
                return list(cached[1])
            table = self.catalog.get(name)
            if table is not None:
                columns = table.column_names()
                self.schema_cache[name] = (None, list(columns))
                return columns
        return None


class AutoInferenceScheduler:
    """Drive lineage extraction over a whole Query Dictionary."""

    def __init__(
        self,
        query_dictionary,
        catalog=None,
        strict=False,
        use_stack=True,
        collect_traces=False,
        max_deferrals=None,
        mode="dag",
        workers=None,
        executor="thread",
        seed_results=None,
        seed_origins=None,
        dag=None,
        release_asts=False,
        wave_batching=False,
        shard_router=None,
    ):
        if mode not in ("dag", "stack"):
            raise ValueError(f"mode must be 'dag' or 'stack', got {mode!r}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {', '.join(EXECUTORS)}, got {executor!r}"
            )
        self.query_dictionary = query_dictionary
        self.catalog = catalog
        self.strict = strict
        self.use_stack = use_stack
        self.collect_traces = collect_traces
        self.max_deferrals = max_deferrals
        self.mode = mode if use_stack else "stack"
        self.workers = workers
        self.executor = executor
        #: streaming mode: drop each entry's AST as soon as its lineage is
        #: recorded, so a run holds at most one wave's ASTs at a time.
        self.release_asts = release_asts
        #: streaming mode: ship each wave to the pool as a few
        #: :func:`extract_statement_batch_job` batches instead of one
        #: future per entry (see that function's docstring).
        self.wave_batching = wave_batching
        #: optional ``entry -> shard index`` callable (the runner passes
        #: the store's content-hash routing); batches are grouped by it so
        #: one batch's results persist into one shard's transaction.
        self.shard_router = shard_router
        self.results = {}
        #: name -> (TableLineage._version, [columns]); the provider's
        #: per-relation resolved-column memo (see _SchedulerProvider).
        self.schema_cache = {}
        self.pending = set(query_dictionary.identifiers())
        self.seeded = []
        #: identifier -> "memory" | "store"; where each seed was spliced from
        self.seed_origins = {}
        if seed_results:
            seed_origins = seed_origins or {}
            for identifier in query_dictionary.identifiers():
                lineage = seed_results.get(identifier)
                if lineage is not None:
                    self.results[identifier] = lineage
                    self.pending.discard(identifier)
                    self.seeded.append(identifier)
                    self.seed_origins[identifier] = seed_origins.get(
                        identifier, "memory"
                    )
        #: a pre-built DependencyDAG for this Query Dictionary may be passed
        #: in (the incremental runner already computed one for its dirty
        #: set); otherwise the plan-first mode builds it on demand.
        self.dag = dag
        self.provider = _SchedulerProvider(self)
        self.extractor = LineageExtractor(
            provider=self.provider,
            strict=strict,
            collect_trace=collect_traces,
        )

    # ------------------------------------------------------------------
    def run(self):
        """Process every Query Dictionary entry; return (graph, report)."""
        report = ScheduleReport(
            mode=self.mode,
            reused=list(self.seeded),
            reused_from=dict(self.seed_origins),
        )
        if self.mode == "dag":
            self._run_planned(report)
        else:
            for identifier in self.query_dictionary.identifiers():
                if identifier not in self.pending:
                    continue
                self._process_with_stack(identifier, report)

        graph = LineageGraph()
        for identifier in self.seeded:
            graph.add(self.results[identifier])
        for identifier in report.order:
            lineage = self.results.get(identifier)
            if lineage is not None:
                graph.add(lineage)
        return graph, report

    # ------------------------------------------------------------------
    # Plan-first (DAG) mode
    # ------------------------------------------------------------------
    def _run_planned(self, report):
        if self.dag is None:
            self.dag = DependencyDAG.from_query_dictionary(self.query_dictionary)
        waves, deferred = self.dag.waves()
        report.waves = [list(wave) for wave in waves]
        parallel = self.workers and self.workers > 1
        with contextlib.ExitStack() as stack:
            pool = None
            for wave in waves:
                todo = [identifier for identifier in wave if identifier in self.pending]
                if parallel and len(todo) > 1:
                    if pool is None:
                        # one executor for the whole run — waves are already
                        # barriers, so spawning workers per wave would only
                        # pay startup cost repeatedly.  The pool is
                        # context-managed: a raising wave cancels queued
                        # futures and joins the workers deterministically.
                        pool = self._open_pool(stack, report)
                    if pool is not None:
                        fallback = self._run_wave_parallel(pool, todo, report)
                        if self._pool_broken:
                            # the remainder of the run is sequential; make
                            # report.executor say so instead of advertising
                            # a backend that stopped mid-run
                            report.executor = f"{report.executor}-degraded-serial"
                            pool = None
                            parallel = False
                    else:
                        fallback = todo
                else:
                    fallback = todo
                for identifier in fallback:
                    if identifier in self.pending:
                        self._process_with_stack(identifier, report)
        # Entries the plan could not order (dependency cycles): hand them to
        # the stack, which reports genuine cycles with the participant list.
        for identifier in deferred:
            if identifier in self.pending:
                self._process_with_stack(identifier, report)

    _pool_broken = False

    def _open_pool(self, stack, report):
        """Open the configured executor pool (registered on ``stack``).

        ``executor="process"`` starts a ``ProcessPoolExecutor`` (preferring
        the cheap ``fork`` start method where the platform offers it) and
        proves it with a probe job; any failure — no ``fork``/``spawn``
        support, sandboxed environments, pickling restrictions — degrades
        gracefully to the thread pool, recorded in ``report.executor``.
        """
        if self.executor == "process":
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                mp_context = None
                if "fork" in multiprocessing.get_all_start_methods():
                    mp_context = multiprocessing.get_context("fork")
                pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=mp_context
                )
                try:
                    pool.submit(_probe_job).result(timeout=60)
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
                report.executor = "process"
                return stack.enter_context(_managed_pool(pool))
            except Exception:
                pass  # fall back to threads below
        from concurrent.futures import ThreadPoolExecutor

        report.executor = "thread"
        pool = ThreadPoolExecutor(max_workers=self.workers)
        return stack.enter_context(_managed_pool(pool))

    def _schema_snapshot(self, identifier):
        """``(schemas, pending)`` visible to one entry, as plain data.

        Mirrors the live :class:`_SchedulerProvider` lookup order — already
        extracted results first, then "pending Query Dictionary entry"
        (which shadows any same-named catalog table, so a write target of a
        not-yet-processed MERGE/UPDATE defers instead of silently resolving
        catalog columns), then the catalog — restricted to the relations
        the entry's statement actually references, so the snapshot pickled
        to a worker process stays small.  The self-reference is included (a
        query reading the relation it writes resolves it through the
        catalog, exactly like the live provider with ``current`` set) but
        is never treated as pending.
        """
        entry = self.query_dictionary.get(identifier)
        schemas = {}
        pending = set()
        for name in entry.table_refs():
            lineage = self.results.get(name)
            if lineage is not None:
                schemas[name] = list(lineage.output_columns)
                continue
            if self.use_stack and name in self.pending and name != identifier:
                # mirrors the live provider: a pending entry shadows a
                # same-named catalog table (write targets of MERGE/UPDATE)
                pending.add(name)
                continue
            if self.catalog is not None:
                table = self.catalog.get(name)
                if table is not None:
                    schemas[name] = table.column_names()
        return schemas, frozenset(pending)

    def _run_wave_parallel(self, pool, todo, report):
        """Extract one wave's entries concurrently; return pre-pass misses.

        Every entry is shipped as a self-contained
        :func:`extract_statement_job` over a per-entry schema snapshot —
        pure data in, pure data out, for thread and process pools alike —
        and results are recorded in wave order after the whole wave drains,
        so the report and graph are identical for any worker count and any
        executor.  An entry whose extraction hits an
        :class:`UnknownRelationError` — a dependency the pre-pass could not
        see — is returned for sequential re-processing with the deferral
        stack.  A pool that breaks mid-wave (dead worker process, pickling
        failure) flags ``_pool_broken`` and hands the rest of the wave to
        the sequential path instead of failing the run.
        """
        jobs = []
        for identifier in todo:
            entry = self.query_dictionary.get(identifier)
            schemas, pending = self._schema_snapshot(identifier)
            jobs.append((identifier, entry, schemas, pending))
        # Drain every future BEFORE recording anything, and record in wave
        # (= submission) order, so the recorded order — and with it the
        # report — never depends on worker timing or batch composition.
        fallback = []
        outcomes = {}
        for identifiers, future in self._submit_wave(pool, jobs):
            try:
                result = future.result()
            except UnknownRelationError:
                fallback.extend(identifiers)
                continue
            except BrokenExecutor:
                self._pool_broken = True
                fallback.extend(identifiers)
                continue
            except (pickle.PicklingError, TypeError) as error:
                # an un-picklable payload means this executor cannot run the
                # job at all; anything else is a genuine extraction error
                if "pickle" not in str(error).lower():
                    raise
                self._pool_broken = True
                fallback.extend(identifiers)
                continue
            if len(identifiers) == 1 and not isinstance(result, list):
                outcomes[identifiers[0]] = result
                continue
            for identifier, (status, lineage, trace) in zip(identifiers, result):
                if status == "ok":
                    outcomes[identifier] = (lineage, trace)
                else:
                    fallback.append(identifier)
        deferred = set(fallback)
        fallback = [identifier for identifier in todo if identifier in deferred]
        for identifier in todo:
            outcome = outcomes.get(identifier)
            if outcome is not None:
                self._record(identifier, outcome[0], outcome[1], report)
        return fallback

    def _submit_wave(self, pool, jobs):
        """Submit one wave's jobs; yield ``(identifiers, future)`` pairs.

        The classic path ships one :func:`extract_statement_job` per
        entry.  With ``wave_batching`` and a wave wider than the worker
        count, entries are grouped — by store shard first when a router is
        configured — and chunked into a few
        :func:`extract_statement_batch_job` submissions per worker, which
        at 100k-statement scale cuts submission and pickling overhead by
        orders of magnitude.
        """
        workers = self.workers or 1
        if not self.wave_batching or len(jobs) <= workers:
            for identifier, entry, schemas, pending in jobs:
                yield (
                    [identifier],
                    pool.submit(
                        extract_statement_job,
                        entry,
                        schemas,
                        pending,
                        self.strict,
                        self.collect_traces,
                    ),
                )
            return
        groups = {}
        if self.shard_router is not None:
            for job in jobs:
                groups.setdefault(self.shard_router(job[1]), []).append(job)
        else:
            groups[0] = list(jobs)
        # a few batches per worker keeps the pool load-balanced even when
        # batch runtimes are skewed, without reintroducing per-entry churn
        batch_size = max(1, min(64, -(-len(jobs) // (workers * 4))))
        for _, group in sorted(groups.items()):
            for start in range(0, len(group), batch_size):
                batch = group[start:start + batch_size]
                yield (
                    [identifier for identifier, *_ in batch],
                    pool.submit(
                        extract_statement_batch_job,
                        [(entry, schemas, pending) for _, entry, schemas, pending in batch],
                        self.strict,
                        self.collect_traces,
                    ),
                )

    def _record(self, identifier, lineage, trace, report):
        self.results[identifier] = lineage
        self.pending.discard(identifier)
        report.order.append(identifier)
        if self.collect_traces:
            report.traces[identifier] = trace
        report.events.append(DeferralEvent(kind="done", identifier=identifier))
        if self.release_asts:
            # streaming: the entry's lineage is recorded and its derived
            # facts (table_refs, content_hash) are cached, so the AST —
            # the dominant per-entry allocation — can go now instead of
            # living until the end of the run
            entry = self.query_dictionary.get(identifier)
            if entry is not None:
                entry.release()

    # ------------------------------------------------------------------
    # Reactive (stack) mode — also the fallback for pre-pass misses
    # ------------------------------------------------------------------
    def _process_with_stack(self, identifier, report):
        stack = [identifier]
        deferrals = 0
        limit = self.max_deferrals or (10 * max(len(self.query_dictionary), 1))
        while stack:
            current = stack[-1]
            if current not in self.pending:
                stack.pop()
                continue
            entry = self.query_dictionary.get(current)
            self.provider.current = current
            try:
                lineage, trace = self.extractor.extract_statement(entry)
            except UnknownRelationError as error:
                missing = normalize_name(error.relation)
                if not self.use_stack:
                    # Without the stack we cannot recover; record and move on.
                    report.unresolved[current] = str(error)
                    self.pending.discard(current)
                    stack.pop()
                    continue
                if missing in stack:
                    raise CyclicDependencyError(stack[stack.index(missing):] + [missing])
                if missing not in self.pending:
                    # The dependency failed previously; give up on this entry.
                    report.unresolved[current] = str(error)
                    self.pending.discard(current)
                    stack.pop()
                    continue
                deferrals += 1
                if deferrals > limit:
                    raise DeferralLimitExceededError(stack, limit)
                report.events.append(
                    DeferralEvent(kind="defer", identifier=current, missing=missing)
                )
                stack.append(missing)
                continue
            finally:
                self.provider.current = None
            # Success: record the result and resume whatever was deferred.
            self._record(current, lineage, trace, report)
            stack.pop()
            if stack:
                report.events.append(
                    DeferralEvent(kind="resume", identifier=stack[-1], missing=current)
                )
        return report
