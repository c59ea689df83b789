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
  Dictionary into waves, and extracts wave by wave in dependency order.
  The LIFO deferral stack is retained only as a fallback for references
  the pre-pass cannot see; on well-formed input it never fires.
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
``candidates`` carries the entries an incremental change *may* affect,
each with its previous lineage and the ``{relation: columns}`` its previous
extraction read.  When a candidate's turn comes, the scheduler compares
that record with the schemas the entry would be extracted against now
(:meth:`AutoInferenceScheduler._schema_snapshot`, the complete input of an
extraction besides the statement and the ``strict`` flag): equal inputs
give equal output, so the previous lineage is spliced instead — the "early
cutoff" of build systems, which stops re-extraction at the first entry
whose inputs did not change.
"""

from dataclasses import dataclass, field

from .dag import DependencyDAG
from .errors import (
    CyclicDependencyError,
    DeferralLimitExceededError,
    UnknownRelationError,
)
from .extractor import LineageExtractor, SchemaProvider
from .lineage import LineageGraph
from ..sqlparser.dialect import normalize_name


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
    #: previous result's graph, i.e. the incremental layer, including the
    #: candidates whose inputs came out unchanged) or ``"store"`` (the
    #: persistent content-addressed lineage store).
    reused_from: dict = field(default_factory=dict)

    @property
    def deferral_count(self):
        return sum(1 for event in self.events if event.kind == "defer")


class _SchedulerProvider(SchemaProvider):
    """Schema provider that reflects the scheduler's progress.

    Column lookups consult, in order: lineage already extracted for a Query
    Dictionary entry; then, when the relation is a *pending* Query
    Dictionary entry and the stack is enabled, they raise
    :class:`UnknownRelationError` so the scheduler defers to it; and
    finally the optional catalog.

    ``current`` is the identifier being extracted through this provider; a
    query reading the relation it also writes (``UPDATE ... FROM``,
    self-referencing ``INSERT``) must not be treated as a missing dependency
    on itself.
    """

    def __init__(self, scheduler):
        # the scheduler's state, not the scheduler: it owns this provider,
        # and a reference back would make every run (its results, DAG and
        # schema memo) cyclic garbage that only a full collection frees
        self.results = scheduler.results
        self.schema_cache = scheduler.schema_cache
        self.pending = scheduler.pending
        self.use_stack = scheduler.use_stack
        self.catalog = scheduler.catalog
        self.current = None

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
        seed_results=None,
        seed_origins=None,
        candidates=None,
        dag=None,
        release_asts=False,
    ):
        if mode not in ("dag", "stack"):
            raise ValueError(f"mode must be 'dag' or 'stack', got {mode!r}")
        self.query_dictionary = query_dictionary
        self.catalog = catalog
        self.strict = strict
        self.use_stack = use_stack
        self.collect_traces = collect_traces
        self.max_deferrals = max_deferrals
        self.mode = mode if use_stack else "stack"
        #: streaming mode: drop each entry's AST as soon as its lineage is
        #: recorded, so a run holds at most one wave's ASTs at a time.
        self.release_asts = release_asts
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
        #: identifier -> (previous TableLineage, {relation: columns} its
        #: previous extraction read); see _splice_candidate.
        self.candidates = dict(candidates or {})
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
        report = ScheduleReport(mode=self.mode)
        if self.mode == "dag":
            self._run_planned(report)
        else:
            for identifier in self.query_dictionary.identifiers():
                if identifier not in self.pending:
                    continue
                self._process_with_stack(identifier, report)

        if len(self.seed_origins) > len(self.seeded):
            # spliced candidates join the seeds in Query Dictionary order,
            # so the graph's relation order is the same as if they had been
            # seeded up front
            self.seeded = [
                identifier
                for identifier in self.query_dictionary.identifiers()
                if identifier in self.seed_origins
            ]
        report.reused = list(self.seeded)
        report.reused_from = {
            identifier: self.seed_origins[identifier] for identifier in self.seeded
        }
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
        for wave in waves:
            # decide the whole wave's splices before extracting any of it:
            # the plan puts no entry in the same wave as a relation it reads
            todo = [
                identifier for identifier in wave
                if identifier in self.pending
                and not self._splice_candidate(identifier)
            ]
            for identifier in todo:
                if identifier in self.pending:
                    self._process_with_stack(identifier, report)
        # Entries the plan could not order (dependency cycles): hand them to
        # the stack, which reports genuine cycles with the participant list.
        for identifier in deferred:
            if identifier in self.pending:
                self._process_with_stack(identifier, report)

    def _schema_snapshot(self, identifier):
        """``(schemas, pending)`` visible to one entry, as plain data.

        This is the complete input of the entry's extraction besides the
        statement itself and the scheduler-wide ``strict`` flag: the
        extractor learns about other relations only through
        :meth:`_SchedulerProvider.get_columns`, and only for relations the
        statement references.  Two extractions of one entry against equal
        snapshots therefore give equal lineage — the property the early
        cutoff (:meth:`_splice_candidate`) stands on.

        Mirrors the live :class:`_SchedulerProvider` lookup order — already
        extracted results first, then "pending Query Dictionary entry"
        (which shadows any same-named catalog table, so a write target of a
        not-yet-processed MERGE/UPDATE defers instead of silently resolving
        catalog columns), then the catalog — restricted to the relations
        the entry's statement actually references.  The self-reference is
        included (a query reading the relation it writes resolves it
        through the catalog, exactly like the live provider with
        ``current`` set) but is never treated as pending.
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

    def _splice_candidate(self, identifier):
        """Reuse a candidate's previous lineage if its inputs are unchanged.

        The schemas the entry would be extracted against now (its
        :meth:`_schema_snapshot`) are compared with those its previous
        extraction read.  While a dependency is still pending the
        answer is not known yet and the candidate stays one; otherwise the
        decision is final.  Returns ``True`` when the lineage was spliced.
        """
        candidate = self.candidates.get(identifier)
        if candidate is None:
            return False
        schemas, pending = self._schema_snapshot(identifier)
        if pending:
            return False
        del self.candidates[identifier]
        lineage, previous = candidate
        if schemas != previous:
            return False
        self.results[identifier] = lineage
        self.pending.discard(identifier)
        self.seed_origins[identifier] = "memory"
        return True

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
            if self._splice_candidate(current):
                # its inputs are unchanged: the previous lineage stands, and
                # whatever was deferred on it resumes as after an extraction
                stack.pop()
                if stack:
                    report.events.append(
                        DeferralEvent(kind="resume", identifier=stack[-1], missing=current)
                    )
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
