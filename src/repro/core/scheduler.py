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
(ABL-STACK, ``benchmarks/bench_ablation_stack.py``): queries are then
processed strictly in Query Dictionary order and any not-yet-known relation
is treated as an external table of unknown schema, reproducing the failure
modes of single-pass tools.  (``use_stack=False`` forces the reactive mode
— planning would mask exactly the failure modes the ablation measures.)

``stored(entry, columns)`` is the persistent store's record of an entry
extracted against the column lists ``columns(name)`` gives, or ``None``.
A full run and an incremental one use it alike: a pending entry is looked
up when its turn comes and nothing it reads is pending any more, so the
key is the one its extraction would be stored under, and a hit is spliced
instead of extracted.

A :class:`Delta` makes the run incremental, and its cost follows the
delta, not the corpus: the previous result's lineage is the starting
state, and only the *dirty* entries (changed content) are pending, ordered
by the DAG level :class:`~repro.core.dag.DependencyDAG` maintains and
their Query Dictionary position — the order of ``waves()``, in either mode,
as a candidate is only known once what it reads has settled.  When an entry
settles with another column list than last run (or a relation is removed,
or its schema changed), each of its readers becomes a *candidate*, carrying
its previous lineage and the ``{relation: columns}`` its previous
extraction read.  When a candidate's turn comes, the scheduler compares
that record with the schemas the entry would be extracted against now
(:meth:`AutoInferenceScheduler._schema_snapshot`, the complete input of an
extraction besides the statement and the ``strict`` flag): equal inputs
give equal output, so the previous lineage is spliced instead — the "early
cutoff" of build systems, which stops re-extraction at the first entry
whose inputs did not change.  Any other pending entry is looked up in the
persistent store (``stored``) before it is extracted.  A pending entry
that the DAG puts on a dependency cycle brings the rest of its cycle into
the run, so the stack rejects the cycle exactly as a full run does.  The
run's graph is the previous one derived
(:meth:`~repro.core.lineage.LineageGraph.derive`) with just the entries
that changed, and the report derives its whole-dictionary views
(``waves``, ``reused``, ``reused_from``) only when read.
"""

import heapq
from dataclasses import dataclass

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


class ScheduleReport:
    """What the scheduler did: processing order, deferral events, outcomes.

    ``order`` lists the entries extracted, ``unresolved`` the entries that
    could not be (identifier -> error message).  The views over the whole
    Query Dictionary — the ``waves`` of the plan, the ``reused`` entries
    (spliced from the previous result or the store instead of extracted)
    and ``reused_from`` (where each came from: ``"memory"``, the previous
    result's graph, including the candidates whose inputs came out
    unchanged; or ``"store"``, the persistent content-addressed lineage
    store) — are derived on first read, so an incremental run does not pay
    for them; ``reused_counts`` has the two totals.
    """

    def __init__(self, mode="stack", query_dictionary=None, dag=None):
        self.order = []
        self.events = []
        self.unresolved = {}
        self.traces = {}       # identifier -> ExtractionTrace
        self.mode = mode
        #: identifiers spliced from the persistent store
        self.store_hits = set()
        #: ``{"memory": n, "store": m}``: how many entries were reused
        self.reused_counts = {"memory": 0, "store": 0}
        self._query_dictionary = query_dictionary
        self._dag = dag if mode == "dag" else None
        self._reused = None

    @property
    def deferral_count(self):
        return sum(1 for event in self.events if event.kind == "defer")

    @property
    def waves(self):
        """The topological plan (dag mode; ``[]`` in stack mode)."""
        return self._dag.waves()[0] if self._dag is not None else []

    @property
    def reused(self):
        """Identifiers spliced instead of extracted, in Query Dictionary order."""
        if self._reused is None:
            if self._query_dictionary is None:
                self._reused = []
            else:
                skip = set(self.order)
                skip.update(self.unresolved)
                self._reused = [
                    identifier for identifier in self._query_dictionary.entries
                    if identifier not in skip
                ]
        return self._reused

    @property
    def reused_from(self):
        """``{identifier: "memory" | "store"}`` for every reused entry."""
        hits = self.store_hits
        return {
            identifier: "store" if identifier in hits else "memory"
            for identifier in self.reused
        }


class Delta:
    """Where an incremental run starts from.

    ``graph`` is the previous result's graph; the run's graph is derived
    from it.  ``results`` maps every resolved entry outside the delta to
    its previous lineage, and ``unresolved`` the previous failures outside
    it; the scheduler edits both in place.  ``dirty`` lists the
    entries to extract (their content changed), ``suspects`` the entries
    whose inputs may have changed, ``removed`` the identifiers no longer in
    the dictionary and ``schema_changed`` the relations whose catalog
    schema changed; a reader of a removed or schema-changed relation
    becomes a suspect when the columns it would read changed.
    ``previous_columns(name)`` is what a reader of ``name`` saw in the
    previous run, and ``previous_read(identifier)`` the previous lineage
    of an entry and the ``{relation: columns}`` its extraction read, or
    ``None`` when it has none to splice.  Without the stack, the dirty set
    already holds every dependent and no suspect is ever added.
    """

    def __init__(self, graph, results, unresolved, dirty, suspects=(), removed=(),
                 schema_changed=(), previous_columns=None, previous_read=None):
        self.graph = graph
        self.results = results
        self.unresolved = unresolved
        self.dirty = dirty
        self.suspects = suspects
        self.removed = removed
        self.schema_changed = schema_changed
        self.previous_columns = previous_columns
        self.previous_read = previous_read


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
    """Drive lineage extraction over a Query Dictionary, or a delta of one."""

    def __init__(
        self,
        query_dictionary,
        catalog=None,
        strict=False,
        use_stack=True,
        collect_traces=False,
        max_deferrals=None,
        mode="dag",
        dag=None,
        release_asts=False,
        delta=None,
        stored=None,
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
        #: name -> (TableLineage._version, [columns]); the provider's
        #: per-relation resolved-column memo (see _SchedulerProvider).
        self.schema_cache = {}
        #: identifier -> (previous TableLineage, {relation: columns} its
        #: previous extraction read); see _splice_candidate.
        self.candidates = {}
        #: a pre-built DependencyDAG for this Query Dictionary may be passed
        #: in (the incremental runner patched the previous one); otherwise
        #: the plan-first mode builds it on demand.
        self.dag = dag
        self.delta = delta
        #: the persistent store's lookup (see the module docstring), or
        #: ``None`` without a store
        self.stored = stored
        if delta is None:
            self.results = {}
            self.pending = set(query_dictionary.entries)
            self.unresolved = {}
            #: the entries this run examined, in the order they came up
            self.examined = {}
        else:
            self.results = delta.results
            self.pending = set(delta.dirty)
            self.unresolved = delta.unresolved
            self.examined = dict.fromkeys(delta.dirty)
        #: identifiers spliced from the persistent store (:meth:`_splice_stored`)
        self.store_hits = set()
        #: the names an incremental run added to or removed from the graph
        #: it derived, in that order
        self.graph_changes = []
        self._queue = []
        self._cyclic = []
        #: set once the planned queue is a heap: a suspect is pushed onto it
        self._running = False
        self.provider = _SchedulerProvider(self)
        self.extractor = LineageExtractor(
            provider=self.provider,
            strict=strict,
            collect_trace=collect_traces,
        )

    # ------------------------------------------------------------------
    def run(self):
        """Process the pending entries; return ``(graph, report)``.

        A full run settles every entry and assembles a new graph.  With a
        :class:`Delta`, only the dirty entries and the suspects are
        pending: an entry whose column list comes out different from the
        previous run's makes its readers suspects in turn, and the graph is
        the previous one derived with just the entries that changed.
        """
        planned = self.use_stack and (self.mode == "dag" or self.delta is not None)
        if planned and self.dag is None:
            self.dag = DependencyDAG.from_query_dictionary(self.query_dictionary)
        report = ScheduleReport(self.mode, self.query_dictionary, self.dag)
        report.unresolved = self.unresolved
        delta = self.delta
        if delta is not None:
            for identifier in delta.suspects:
                self._suspect(identifier)
            for name in (*delta.removed, *delta.schema_changed):
                if name not in self.pending:
                    self._settled(name)
        if planned:
            self._run_planned(report)
        else:
            position = self.query_dictionary.positions
            for identifier in sorted(self.pending, key=position.__getitem__):
                if identifier in self.pending:
                    self._process_with_stack(identifier, report)

        report.store_hits = self.store_hits
        reused = len(self.query_dictionary) - len(report.order) - len(report.unresolved)
        report.reused_counts = {
            "memory": reused - len(self.store_hits), "store": len(self.store_hits),
        }
        if delta is None:
            graph = LineageGraph()
            for identifier in report.reused:
                graph.add(self.results[identifier])
            for identifier in report.order:
                graph.add(self.results[identifier])
            return graph, report
        graph = delta.graph.derive()
        before = delta.graph.relations
        for identifier in (*self.examined, *delta.removed):
            lineage = self.results.get(identifier)
            old = before.get(identifier)
            if lineage is not None:
                if lineage is not old:
                    graph.add(lineage)
                    self.graph_changes.append(identifier)
            elif old is not None and not old.is_base_table:
                graph.discard(identifier)
                self.graph_changes.append(identifier)
        return graph, report

    # ------------------------------------------------------------------
    # Plan-first (DAG) order
    # ------------------------------------------------------------------
    def _run_planned(self, report):
        """Settle the pending entries by ``(level, position)``: the order of
        :meth:`DependencyDAG.waves`; entries on a cycle come last, by
        position, and the stack reports genuine cycles."""
        for identifier in list(self.pending):
            self._join_cycle(identifier)
        for identifier in self.pending:
            queue, item = self._queued(identifier)
            queue.append(item)
        heapq.heapify(self._queue)
        heapq.heapify(self._cyclic)
        self._running = True
        while self._queue or self._cyclic:
            identifier = heapq.heappop(self._queue or self._cyclic)[-1]
            if identifier in self.pending:
                self._process_with_stack(identifier, report)

    def _queued(self, identifier):
        """``(queue, item)`` that schedules ``identifier``: by level and
        position, or by position among the entries on a cycle."""
        position = self.query_dictionary.positions[identifier]
        depth = self.dag.level.get(identifier)
        if depth is None:
            return self._cyclic, (position, identifier)
        return self._queue, (depth, position, identifier)

    # ------------------------------------------------------------------
    # Incremental suspects
    # ------------------------------------------------------------------
    def _settled(self, name):
        """After ``name`` settled in an incremental run: make its readers
        suspects when readers now see other columns than last run."""
        if self.delta is None or not self.use_stack:
            return
        if self._columns(name) == self.delta.previous_columns(name):
            return
        readers = self.dag.readers.get(name, ())
        position = self.query_dictionary.positions
        for reader in sorted(readers, key=position.__getitem__):
            self._suspect(reader)

    def _suspect(self, identifier):
        """Add ``identifier`` to the run, with the rest of its dependency
        cycle if it lies on one (see :meth:`_join_cycle`)."""
        if identifier in self.examined:
            return  # pending, or settled already
        self._examine(identifier)
        self._join_cycle(identifier)

    def _examine(self, identifier):
        """Make ``identifier`` pending: a candidate when it has previous
        lineage to splice, else an entry to extract."""
        self.examined[identifier] = None
        self.unresolved.pop(identifier, None)
        record = self.delta.previous_read(identifier)
        if record is not None:
            self.candidates[identifier] = record
        self.results.pop(identifier, None)
        self.pending.add(identifier)
        if self._running:
            heapq.heappush(*self._queued(identifier))

    def _join_cycle(self, identifier):
        """Make the other members of ``identifier``'s dependency cycle
        pending too, when the DAG puts it on one.

        A full run holds every member pending, so the stack meets one
        while extracting another and raises
        :class:`CyclicDependencyError`.  An incremental run would otherwise
        extract a changed member against the previous lineage of the
        others and accept a graph that a full run refuses to build.
        """
        if self.delta is None or identifier in self.dag.level:
            return
        position = self.query_dictionary.positions
        for member in sorted(self.dag.cycle(identifier), key=position.__getitem__):
            if member not in self.examined:
                self._examine(member)

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
        return True

    def _columns(self, name):
        """The column list a reader of ``name`` sees now: its result's, else
        the catalog's, else ``None``."""
        lineage = self.results.get(name)
        if lineage is not None:
            return list(lineage.output_columns)
        table = self.catalog.get(name) if self.catalog is not None else None
        return table.column_names() if table is not None else None

    def _splice_stored(self, identifier):
        """Reuse the persistent store's record of an entry, keyed on the
        column lists it reads now.

        Only once nothing the entry reads is pending: the key is then the
        one its extraction would be stored under — a reader whose input
        columns changed back to an earlier state (an edit, then its revert)
        hits that state's record.  An entry on or below a dependency cycle
        reads a pending entry until the stack raises
        :class:`CyclicDependencyError`, so a hit never changes which runs
        fail.  Returns ``True`` on a hit.
        """
        if self.stored is None:
            return False
        entry = self.query_dictionary.get(identifier)
        if not self.pending.isdisjoint(entry.dependencies()):
            return False
        lineage = self.stored(entry, self._columns)
        if lineage is None:
            return False
        self.results[identifier] = lineage
        self.pending.discard(identifier)
        self.store_hits.add(identifier)
        if self.release_asts:
            # stack mode parses an entry it attempts while an input is
            # still pending; streaming drops that AST as after an extraction
            entry.release()
        self._settled(identifier)
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
        self._settled(identifier)

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
            if self._splice_candidate(current) or self._splice_stored(current):
                # its inputs are unchanged, or the store holds its lineage
                # against them: that lineage stands, and whatever was
                # deferred on it resumes as after an extraction
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
                    self._settled(current)
                    continue
                if missing in stack:
                    raise CyclicDependencyError(stack[stack.index(missing):] + [missing])
                if missing not in self.pending:
                    # The dependency failed previously; give up on this entry.
                    report.unresolved[current] = str(error)
                    self.pending.discard(current)
                    stack.pop()
                    self._settled(current)
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
