"""The user-facing orchestration API.

``lineagex(sql)`` mirrors the paper's one-call workflow (Figure 5, Step 1):
feed it SQL text, a list of statements, a ``{name: sql}`` mapping, or a path
to ``.sql`` files, and get back a :class:`LineageXResult` holding the lineage
graph, which can be saved as a JSON document and an interactive HTML page.

Pipeline: :mod:`preprocess <repro.core.preprocess>` builds the Query
Dictionary, ``CREATE TABLE`` DDL seeds the schema catalog, the
:mod:`auto-inference scheduler <repro.core.scheduler>` plans a dependency
DAG and extracts every entry in topological waves (falling back to reactive
deferral for anything the plan cannot see), and the relations that are only
ever read — the base tables — are materialised as graph nodes whose column
sets are taken from the catalog or accumulated from usage.

On top of the full pipeline sits the *incremental* layer: every run records
a content hash per Query Dictionary entry, and
:meth:`LineageXRunner.run_incremental` / :meth:`LineageXResult.update`
re-extract only the entries whose hash changed plus their transitive DAG
dependents, splicing the cached :class:`TableLineage` for everything else.
"""

import os
from dataclasses import dataclass, field

from .dag import DependencyDAG
from .errors import LineageRecordError
from .extractor import EXTRACTOR_VERSION
from .lineage import LineageGraph, TableLineage
from .preprocess import QueryDictionary, preprocess
from .scheduler import AutoInferenceScheduler
from ..catalog.catalog import Catalog
from ..catalog.introspect import catalog_from_statements
from ..sqlparser.dialect import normalize_name


@dataclass
class LineageXResult:
    """Everything produced by one LineageX run."""

    graph: LineageGraph
    query_dictionary: object
    catalog: Catalog
    report: object
    warnings: list = field(default_factory=list)
    #: identifier -> content hash of the extracted Query Dictionary entry;
    #: the change-detection baseline for incremental re-extraction.
    source_hashes: dict = field(default_factory=dict)
    #: the runner that produced this result (lets :meth:`update` re-run
    #: incrementally with identical configuration).
    runner: object = None
    #: the :class:`~repro.core.dag.DependencyDAG` of ``query_dictionary``
    #: (when the run planned one); the next incremental run patches it.
    dag: object = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    def stats(self):
        """Graph-level summary statistics."""
        stats = self.graph.stats()
        stats["num_queries"] = len(self.query_dictionary)
        stats["num_deferrals"] = self.report.deferral_count
        stats["num_unresolved"] = len(self.report.unresolved)
        stats["num_reused"] = len(getattr(self.report, "reused", ()))
        reused_from = getattr(self.report, "reused_from", None) or {}
        stats["num_reused_memory"] = sum(
            1 for origin in reused_from.values() if origin == "memory"
        )
        stats["num_reused_store"] = sum(
            1 for origin in reused_from.values() if origin == "store"
        )
        return stats

    def to_dict(self):
        """The JSON document shape (relations, table edges, column edges)."""
        payload = self.graph.to_dict()
        payload["stats"] = self.stats()
        payload["warnings"] = list(self.warnings)
        return payload

    def to_json(self, path=None, indent=2):
        """Serialise to JSON text; write it to ``path`` when given."""
        from ..output.json_output import graph_to_json

        text = graph_to_json(self.graph, stats=self.stats(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_html(self, path=None, title="LineageX lineage graph"):
        """Render the interactive HTML page; write it to ``path`` when given."""
        from ..output.html_output import graph_to_html

        text = graph_to_html(self.graph, title=title)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_dot(self):
        """Render a Graphviz DOT document of the column lineage."""
        from ..output.dot_output import graph_to_dot

        return graph_to_dot(self.graph)

    def to_text(self):
        """Render a plain-text summary (one block per relation)."""
        from ..output.text_output import graph_to_text

        return graph_to_text(self.graph)

    def render(self, fmt, **options):
        """Render through the named renderer registry.

        ``fmt`` is any registered format name (``json``, ``html``, ``dot``,
        ``text``, ``csv``, ``markdown``, ``stats``, plus anything added via
        :func:`repro.output.register_renderer`); ``options`` are forwarded
        to the renderer.  Raises
        :class:`~repro.output.registry.UnknownFormatError` for unknown
        names.
        """
        from ..output.registry import render

        return render(self, fmt, **options)

    def save(self, output_dir, basename="lineagex"):
        """Write ``<basename>.json`` and ``<basename>.html`` into ``output_dir``."""
        os.makedirs(output_dir, exist_ok=True)
        json_path = os.path.join(output_dir, f"{basename}.json")
        html_path = os.path.join(output_dir, f"{basename}.html")
        self.to_json(json_path)
        self.to_html(html_path)
        return json_path, html_path

    def impact_analysis(self, column, direction="downstream"):
        """Convenience hook into :func:`repro.analysis.impact.impact_analysis`."""
        from ..analysis.impact import impact_analysis

        return impact_analysis(self.graph, column, direction=direction)

    # ------------------------------------------------------------------
    def update(self, changes):
        """Incrementally re-extract after changing some query definitions.

        Parameters
        ----------
        changes:
            Mapping from Query Dictionary identifier to its new SQL text.
            Unknown identifiers *add* new queries; a value of ``None``
            *removes* the entry.  Everything else is carried over from this
            result's Query Dictionary unchanged.

        Returns
        -------
        LineageXResult
            A fresh result in which only the changed entries and their
            transitive DAG dependents were re-extracted; the lineage of
            every other entry is spliced from this result's graph (see
            ``result.report.reused``).
        """
        runner = self.runner if self.runner is not None else LineageXRunner()
        return runner.run_incremental(self, changes)


def _is_one_shot_iterator(source):
    """True for sources that can only be consumed once (generators etc.)."""
    if isinstance(source, (str, bytes, dict, list, tuple, os.PathLike)):
        return False
    try:
        return iter(source) is source
    except TypeError:
        return False


class _ReiterableSource:
    """Wrap a one-shot iterator source so a cold retry can re-consume it.

    The runner's parse-cache healing path re-runs preprocessing when a
    replayed record turns out to be poisoned; a generator source would be
    exhausted by then.  This wrapper records items as they stream through
    (raw SQL text only — the bulky ASTs are never retained), so the retry
    replays the already-consumed prefix and continues with the rest.
    """

    def __init__(self, iterator):
        self._iterator = iterator
        self._seen = []
        self._done = False

    def __iter__(self):
        for item in self._seen:
            yield item
        if not self._done:
            for item in self._iterator:
                self._seen.append(item)
                yield item
            self._done = True


class _PutOnlyParseCache:
    """A parse cache that never replays — used for the cold-retry path.

    After a poisoned fragment record is detected, the retry must re-parse
    everything (no ``get``) while still overwriting the cached records with
    fresh ones (``put``), so the corruption heals instead of forcing a cold
    retry on every subsequent run.
    """

    def __init__(self, inner):
        self._inner = inner

    def get(self, sql):
        return None

    def put(self, sql, records):
        return self._inner.put(sql, records)


class LineageXRunner:
    """Configurable end-to-end lineage extraction."""

    def __init__(
        self,
        catalog=None,
        strict=False,
        use_stack=True,
        collect_traces=False,
        id_generator=None,
        mode="dag",
        workers=None,
        executor="thread",
        store=None,
        dialect="postgres",
        stream=False,
    ):
        self.catalog = catalog
        self.strict = strict
        self.use_stack = use_stack
        self.collect_traces = collect_traces
        self.id_generator = id_generator
        self.mode = mode
        self.workers = workers
        self.executor = executor
        #: optional :class:`repro.store.LineageStore`; when set, extraction
        #: consults it before scheduling and persists new results after.
        self.store = store
        self.dialect = dialect
        #: streaming mode for statement counts beyond what comfortably fits
        #: in memory as ASTs: preprocessing consumes the source lazily (it
        #: may be a generator) and drops each cold-parsed AST immediately,
        #: extraction re-materialises ASTs wave by wave and releases them
        #: after recording, and parallel waves ship as shard-routed batches.
        #: Results are byte-identical to the default mode.
        self.stream = stream

    # ------------------------------------------------------------------
    def run(self, source):
        """Run the full pipeline over ``source`` and return a result."""
        parse_cache = self._parse_cache()
        if parse_cache is not None:
            try:
                if _is_one_shot_iterator(source):
                    # a one-shot iterator would be exhausted if the cold
                    # retry below fires; record the raw fragments as they
                    # stream through so the retry can replay them
                    source = _ReiterableSource(source)
                query_dictionary = preprocess(
                    source,
                    id_generator=self.id_generator,
                    parse_cache=parse_cache,
                    retain_asts=not self.stream,
                )
                return self._run_scheduler(query_dictionary)
            except LineageRecordError:
                # a replayed statement no longer parses: the parse cache is
                # corrupt or version-skewed — degrade to one cold retry that
                # bypasses cache reads but still writes, so the poisoned
                # fragment records are overwritten with fresh ones
                parse_cache = _PutOnlyParseCache(parse_cache)
        query_dictionary = preprocess(
            source,
            id_generator=self.id_generator,
            parse_cache=parse_cache,
            retain_asts=not self.stream,
        )
        return self._run_scheduler(query_dictionary)

    def _parse_cache(self):
        """The store-backed parse cache, when a usable store is configured."""
        store = self._usable_store()
        if store is None:
            return None
        return store.parse_cache(self.dialect)

    def run_incremental(self, prev_result, changed_sources):
        """Re-extract only what ``changed_sources`` dirties.

        ``changed_sources`` maps a name to its new SQL text: a known Query
        Dictionary identifier *replaces* that entry, an unknown name *adds*
        new queries, and a value of ``None`` *removes* the entry.  Only the
        changed sources are parsed — every other entry's parsed statement is
        carried over from ``prev_result`` as-is.  Each entry of the merged
        dictionary is then content-hashed and compared against
        ``prev_result.source_hashes``; only genuinely changed or added
        entries, plus every transitive DAG dependent of a changed, added,
        or removed relation, are re-extracted.  The cached
        :class:`TableLineage` of every other entry is spliced into the new
        graph unchanged.

        The returned result is equivalent to a full :meth:`run` over the
        merged sources (base tables are re-derived from scratch either
        way); ``result.report.reused`` lists the spliced identifiers.  One
        ordering note: DDL in a changed fragment applies *after* all
        carried-over DDL, like a migration on top of the previous schema —
        a ``CREATE TABLE`` replaces that relation's prior schema and a
        ``DROP`` takes effect last, so the equivalent full run is one whose
        changed sources come after the unchanged ones.
        """
        query_dictionary, ddl_changed = self._merge_query_dictionary(
            prev_result.query_dictionary, changed_sources
        )
        hashes = {
            identifier: entry.content_hash
            for identifier, entry in query_dictionary.items()
        }
        prev_hashes = prev_result.source_hashes or {}
        changed = {
            identifier
            for identifier, value in hashes.items()
            if prev_hashes.get(identifier) != value
        }
        removed = set(prev_hashes) - set(hashes)
        dag = DependencyDAG.from_query_dictionary(
            query_dictionary, previous=prev_result.dag, changed=changed | removed
        )
        dirty = changed | (
            dag.transitive_dependents(changed | removed | ddl_changed) & set(hashes)
        )

        seed_results = {}
        for identifier in query_dictionary.identifiers():
            if identifier in dirty:
                continue
            cached = prev_result.graph.get(identifier)
            if cached is None or cached.is_base_table:
                # Nothing usable to splice (e.g. the entry was unresolved in
                # the previous run); re-extract it.
                continue
            seed_results[identifier] = cached
        return self._run_scheduler(
            query_dictionary, seed_results=seed_results, dag=dag,
            previous=prev_result, schema_changed=ddl_changed,
        )

    def _merge_query_dictionary(self, prev_dictionary, changed_sources):
        """Apply ``changed_sources`` to a copy of ``prev_dictionary``.

        Unchanged entries reuse their already-parsed :class:`ParsedQuery`
        objects (no re-parsing); only the changed sources run through
        :func:`preprocess`.  Replaced entries keep their original position,
        new identifiers are appended, removed entries disappear.

        A changed key replaces *everything* its source produced in the
        previous run: entries are matched by identifier, and entries or DDL
        recorded under the same ``source_name`` that the new fragment no
        longer produces are purged (so replacing a multi-statement source
        with fewer statements leaves no orphans).

        Known limitation: when several sources define the *same* identifier,
        only the winning definition is retained in the dictionary (the
        shadowed one was already discarded with a "redefined" warning on the
        run that observed the conflict), so a later delta that removes the
        winner cannot resurrect the shadowed definition — re-run from
        scratch to recover it.  DDL declared or dropped
        this way is returned as ``ddl_changed_names`` so the caller can
        dirty its readers — a schema change invalidates spliced lineage
        even though no Query Dictionary entry changed.

        Returns ``(merged_dictionary, ddl_changed_names)``.
        """
        from ..sqlparser import ast

        parsed_changes = {}
        changed_keys = set()
        removed = set()
        extra_ddl = []
        extra_ddl_sources = []
        new_ddl_names = set()   # relations declared by the new fragments
        ddl_changed = set()     # relations whose schema changed either way
        warnings = []
        for name, sql in changed_sources.items():
            key = normalize_name(str(name))
            changed_keys.add(key)
            if sql is None:
                removed.add(key)
                continue
            fragment = preprocess(
                {name: sql},
                id_generator=self.id_generator,
                parse_cache=self._parse_cache(),
            )
            extra_ddl.extend(fragment.ddl_statements)
            extra_ddl_sources.extend(fragment.ddl_sources)
            warnings.extend(fragment.warnings)
            for statement in fragment.ddl_statements:
                # only CREATE declarations supersede a prior schema; a DROP
                # flows through add_ddl/ddl_changed and must not erase an
                # unchanged source's CREATE TABLE from the merge
                if isinstance(statement, ast.CreateTable) and statement.name is not None:
                    new_ddl_names.add(normalize_name(statement.name.dotted()))
                elif statement.name is not None:
                    ddl_changed.add(normalize_name(statement.name.dotted()))
            for identifier, entry in fragment.items():
                parsed_changes[identifier] = entry
        ddl_changed |= new_ddl_names

        merged = QueryDictionary()
        for statement, source in zip(
            prev_dictionary.ddl_statements, prev_dictionary.ddl_sources
        ):
            declared = (
                normalize_name(statement.name.dotted())
                if statement.name is not None
                else None
            )
            if source is not None and source in changed_keys:
                # the source was replaced/removed; whatever schema it
                # declared is gone (or re-declared by the new fragment)
                if declared is not None:
                    ddl_changed.add(declared)
                continue
            if isinstance(statement, ast.CreateTable) and declared in new_ddl_names:
                # superseded by DDL for the same relation in a new fragment
                # (only *new* declarations supersede — a schema also dropped
                # elsewhere must not erase an unchanged source's DDL)
                continue
            merged.add_ddl(statement, source=source)
        for statement, source in zip(extra_ddl, extra_ddl_sources):
            merged.add_ddl(statement, source=source)
        # Warnings of carried-over entries would re-occur on a full run, so
        # keep them; warnings tied to a *replaced* entry may be stale, which
        # is the price of not re-parsing the unchanged sources.
        merged.warnings = list(prev_dictionary.warnings) + warnings
        for identifier, entry in prev_dictionary.items():
            if identifier in removed:
                continue
            # the key a delta must use to address this entry: its named
            # source, or the identifier itself for anonymous script input
            owner = entry.source_name or identifier
            replacement = parsed_changes.pop(identifier, None)
            if replacement is not None:
                if (
                    owner not in changed_keys
                    and replacement.kind in ("update", "delete", "merge")
                ):
                    # mirror the full-run dedup in preprocess(): an UPDATE,
                    # DELETE or MERGE never overwrites an entry another
                    # (unchanged) source still defines, whatever that
                    # entry's kind
                    merged.warnings.append(
                        f"{replacement.kind.upper()} on {identifier!r} ignored: "
                        "the relation is already defined by an earlier statement"
                    )
                    merged.add(entry)
                else:
                    merged.add(replacement)
                continue
            if owner in changed_keys:
                # the entry's source no longer produces this statement
                continue
            merged.add(entry)
        # entries produced by the new fragments that did not replace a prev
        # entry are appended unconditionally — `removed` names prior state,
        # and a relation removed from one source may be redefined by another
        for entry in parsed_changes.values():
            merged.add(entry)
        return merged, ddl_changed

    # ------------------------------------------------------------------
    def _run_scheduler(self, query_dictionary, seed_results=None, dag=None,
                       previous=None, schema_changed=()):
        catalog = self._build_catalog(query_dictionary)
        seed_origins = {identifier: "memory" for identifier in (seed_results or ())}
        store = self._usable_store()
        if store is not None:
            if dag is None:
                dag = DependencyDAG.from_query_dictionary(query_dictionary)
            seed_results = dict(seed_results or {})
            self._splice_from_store(
                store, query_dictionary, catalog, dag, seed_results, seed_origins
            )
        shard_router = None
        if self.stream and store is not None:
            shard_of = getattr(store, "shard_of", None)
            if shard_of is not None:
                shard_router = lambda entry: shard_of(entry.content_hash)  # noqa: E731
        scheduler = AutoInferenceScheduler(
            query_dictionary,
            catalog=catalog,
            strict=self.strict,
            use_stack=self.use_stack,
            collect_traces=self.collect_traces,
            mode=self.mode,
            workers=self.workers,
            executor=self.executor,
            seed_results=seed_results,
            seed_origins=seed_origins,
            dag=dag,
            release_asts=self.stream,
            wave_batching=self.stream,
            shard_router=shard_router,
        )
        graph, report = scheduler.run()
        self._attach_base_tables(graph, catalog, previous, schema_changed)
        if store is not None:
            self._persist_results(store, query_dictionary, catalog, scheduler, report)
        result = LineageXResult(
            graph=graph,
            query_dictionary=query_dictionary,
            catalog=catalog,
            report=report,
            warnings=list(query_dictionary.warnings),
            source_hashes={
                identifier: entry.content_hash
                for identifier, entry in query_dictionary.items()
            },
            runner=self,
        )
        result.dag = scheduler.dag
        return result

    # ------------------------------------------------------------------
    # Persistent-store splicing
    # ------------------------------------------------------------------
    def _usable_store(self):
        """The configured store, unless this run cannot use one soundly.

        With ``use_stack=False`` (the ablation mode) an entry may be
        extracted *before* its dependencies, seeing schemas that differ
        from the post-run state the cache key is computed from — so the
        store is disabled rather than risk wrong warm hits.
        """
        if self.store is None or not self.use_stack:
            return None
        return self.store

    def _dependency_schemas(self, entry, catalog, lookup):
        """``(name, columns-or-None)`` pairs for an entry's cache key.

        The self-reference (a query reading the relation it writes) is
        resolved through the *catalog only* — during extraction the entry's
        own result does not exist yet, so consulting results would stamp a
        fingerprint the next run's pre-pass could never reconstruct, and
        ignoring the self-read entirely would let a schema change to the
        self-read table produce a stale warm hit.
        """
        rows = []
        for name in entry.table_refs():
            if name == entry.identifier:
                table = catalog.get(name) if catalog is not None else None
                rows.append(
                    (name, table.column_names() if table is not None else None)
                )
            else:
                rows.append((name, lookup(name)))
        return rows

    def _splice_from_store(
        self, store, query_dictionary, catalog, dag, seed_results, seed_origins
    ):
        """Seed extraction with store hits, walking entries in plan order.

        Mirrors how the incremental layer splices ``prev_result``: a hit
        becomes a ``seed_result`` the scheduler treats as already
        processed.  An entry's key needs the column lists of everything it
        references, so hits resolve in topological order — an upstream
        miss (changed content, schema drift, version bump) conservatively
        re-extracts every dependent whose resolved schemas it feeds.
        """
        store.prime(
            entry.content_hash
            for identifier, entry in query_dictionary.items()
            if identifier not in seed_results
        )

        def lookup(name):
            # seeds (memory splices and earlier store hits) are known
            # before extraction; a dependency always sits in an earlier wave
            seeded = seed_results.get(name)
            if seeded is not None:
                return list(seeded.output_columns)
            table = catalog.get(name) if catalog is not None else None
            if table is not None:
                return table.column_names()
            return None

        # never splice entries on (or downstream of) a dependency cycle: the
        # cold path raises CyclicDependencyError for them, and a warm hit
        # must not change which runs fail
        waves, deferred = dag.waves()
        unresolvable = set(deferred)
        for identifier in (name for wave in waves for name in wave):
            if identifier in seed_results:
                continue
            entry = query_dictionary.get(identifier)
            if entry is None:
                continue
            # a dependency that is itself a pending Query Dictionary entry
            # makes the key incomputable before extraction -> cold path
            dependencies = dag.dependencies.get(identifier, ())
            if any(name in unresolvable for name in dependencies):
                unresolvable.add(identifier)
                continue
            key = self._record_key(entry, catalog, lookup)
            cached = store.get(key, content_hash=entry.content_hash)
            if cached is None:
                unresolvable.add(identifier)
                continue
            seed_results[identifier] = cached
            seed_origins[identifier] = "store"

    def _record_key(self, entry, catalog, lookup):
        from ..store import make_key, schema_fingerprint

        fingerprint = schema_fingerprint(
            self._dependency_schemas(entry, catalog, lookup),
            strict=self.strict,
        )
        return make_key(entry.content_hash, self.dialect, EXTRACTOR_VERSION, fingerprint)

    def _persist_results(self, store, query_dictionary, catalog, scheduler, report):
        """Write every newly extracted entry's record to the store.

        Keys are computed from the *final* resolved schemas — with the
        deferral stack enabled an entry only completes once every
        dependency it consulted is resolved, so the post-run view equals
        what its extraction saw (and what the next run's pre-pass will
        reconstruct from store hits).
        """
        from ..store import make_key, schema_fingerprint

        results = scheduler.results

        def lookup(name):
            lineage = results.get(name)
            if lineage is not None:
                return list(lineage.output_columns)
            table = catalog.get(name) if catalog is not None else None
            if table is not None:
                return table.column_names()
            return None

        rows = []
        for identifier in report.order:
            if identifier in report.unresolved:
                continue
            lineage = results.get(identifier)
            entry = query_dictionary.get(identifier)
            if lineage is None or entry is None:
                continue
            fingerprint = schema_fingerprint(
                self._dependency_schemas(entry, catalog, lookup),
                strict=self.strict,
            )
            key = make_key(
                entry.content_hash, self.dialect, EXTRACTOR_VERSION, fingerprint
            )
            rows.append(
                (
                    key,
                    lineage,
                    {
                        "content_hash": entry.content_hash,
                        "dialect": self.dialect,
                        "extractor_version": EXTRACTOR_VERSION,
                        "schema_fingerprint": fingerprint,
                    },
                )
            )
        # one executemany-backed transaction per store shard instead of a
        # round trip per record — the write-side analogue of prime()
        store.put_many(rows)
        store.flush()

    # ------------------------------------------------------------------
    def _build_catalog(self, query_dictionary):
        """Merge the user-provided catalog with CREATE TABLE DDL from the input."""
        ddl_catalog = catalog_from_statements(query_dictionary.ddl_statements)
        if self.catalog is None:
            return ddl_catalog
        merged = self.catalog.copy()
        for table in ddl_catalog.tables.values():
            merged.add_table(table, replace=True)
        return merged

    @staticmethod
    def _attach_base_tables(graph, catalog, previous=None, schema_changed=()):
        """Create base-table nodes for every relation that is only read.

        Column sets come from the catalog when available and are otherwise
        accumulated from usage (every contribution or reference that points
        at the relation), which is how Example 1's ``web`` node obtains its
        ``cid``/``date``/``page``/``reg`` columns without any metadata.
        Base tables follow the views in name order, with their usage
        columns sorted (so the result does not depend on the order the
        graph was assembled in), then any further catalog columns.

        With ``previous`` (the result an incremental run started from),
        only the base tables whose readers changed, or whose schema did
        (``schema_changed`` names the relations whose DDL changed), are
        derived again; the others are spliced from ``previous`` by
        reference.  A reader's column sources always lie in its
        ``source_tables``, so the readers of a base table are found
        without walking every entry's lineage.
        """
        views = graph.relations  # only views so far
        affected, spliced = None, {}
        if previous is not None:
            affected, spliced = _base_table_delta(
                views, previous, catalog, schema_changed
            )
        used = {}  # base table -> the column names read from it
        for entry in list(views.values()):
            if affected is not None and affected.isdisjoint(entry.source_tables):
                continue
            for sources in (*entry.contributions.values(), entry.referenced):
                for source in sources:
                    table = source.table
                    if table in views or (affected is not None and table not in affected):
                        continue
                    used.setdefault(table, set()).add(source.column)
        for name in sorted(used.keys() | spliced.keys()):
            entry = spliced.get(name)
            if entry is None:
                entry = TableLineage(name=name, is_base_table=True)
                for column in sorted(used[name] - {"*"}):
                    entry.add_output_column(column)
                table = catalog.get(name) if catalog is not None else None
                if table is not None:
                    for column in table.column_names():
                        entry.add_output_column(column)
            graph.add(entry)


def _base_table_delta(views, previous, catalog, schema_changed):
    """``(affected, spliced)`` for an incremental base-table pass.

    ``affected`` holds every relation whose base-table node may differ
    from ``previous``'s: the names and source tables of the views that
    were added, replaced or removed, plus the relations whose schema
    changed.  ``spliced`` maps each other base table of ``previous`` to its
    entry, reused as is.
    """
    before = previous.graph.relations
    affected = set(schema_changed)
    bases = []
    for name, entry in before.items():
        if entry.is_base_table:
            bases.append(name)
        elif views.get(name) is not entry:
            affected.add(name)
            affected.update(entry.source_tables)
    for name, entry in views.items():
        if before.get(name) is not entry:
            affected.add(name)
            affected.update(entry.source_tables)
    old_catalog = previous.catalog
    spliced = {}
    for name in bases:
        if name in affected:
            continue
        table = catalog.get(name) if catalog is not None else None
        old = old_catalog.get(name) if old_catalog is not None else None
        if table is not old and (
            table is None or old is None or table.column_names() != old.column_names()
        ):
            affected.add(name)
            continue
        spliced[name] = before[name]
    return affected, spliced


def lineagex(
    source,
    catalog=None,
    strict=False,
    use_stack=True,
    collect_traces=False,
    output_dir=None,
    mode="dag",
    workers=None,
):
    """Extract column-level lineage from SQL (the paper's one-call API).

    Parameters
    ----------
    source:
        SQL text, a list of SQL texts, a ``{name: sql}`` mapping, or a path
        to a ``.sql`` file or directory.
    catalog:
        Optional :class:`repro.catalog.Catalog` with base-table schemas
        (plays the role of a database connection's metadata).
    strict:
        Raise :class:`~repro.core.errors.AmbiguousColumnError` on ambiguous
        unqualified columns instead of attributing them conservatively.
    use_stack:
        Enable the Table/View Auto-Inference stack (disable only for the
        ablation study).
    collect_traces:
        Record per-query extraction traces (rule firings).
    output_dir:
        When given, write ``lineagex.json`` and ``lineagex.html`` there.
    mode:
        ``"dag"`` (default) plans a dependency DAG and extracts in
        topological waves; ``"stack"`` reproduces the paper's purely
        reactive LIFO-deferral behaviour.
    workers:
        In DAG mode, extract independent entries of each wave on a thread
        pool of this size (``None``/1 = sequential).  Results are identical
        for any worker count.  Note the extraction is pure-Python and
        CPU-bound, so on GIL-bound CPython builds threads yield little
        wall-clock benefit — the option exists for free-threaded builds and
        as the seam for a future process-based backend.

    Returns
    -------
    LineageXResult

    Notes
    -----
    This is a thin shim over the Session API: it is equivalent to
    ``LineageSession(source, catalog=catalog, ...).extract()`` and exists
    for backwards compatibility with the paper's original one-call shape.
    The input is pinned to the pass-through text adapter (no source
    auto-detection) so historical input handling is preserved exactly;
    use :class:`~repro.session.LineageSession` directly for auto-detected
    dbt projects and JSONL query logs.
    """
    from ..session import LineageSession, SessionConfig
    from ..sources import Source, TextSource

    if not isinstance(source, Source):
        source = TextSource(source)
    session = LineageSession(
        source,
        catalog=catalog,
        config=SessionConfig(
            strict=strict,
            use_stack=use_stack,
            collect_traces=collect_traces,
            mode=mode,
            workers=workers,
        ),
    )
    result = session.extract()
    if output_dir is not None:
        result.save(output_dir)
    return result
