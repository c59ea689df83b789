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
re-extract only the entries whose hash changed, plus those of their
transitive DAG dependents for which a relation they read changed its column
list, splicing the cached :class:`TableLineage` for everything else.

Cost model.  A full run (cold, warm from the store, a daemon boot) builds
every structure from scratch; that is the base case.  An incremental run
does Python work proportional to the delta — the changed statements and
the readers whose input column lists changed — not to the corpus: it
carries the previous result's Query Dictionary, hashes, DAG (with each
node's level), resolved lineage, base-table usage counts, catalog and graph
forward as C-level container copies and edits only the delta's rows, and
the graph it returns records what changed, so the next snapshot's indexes
are patched from that change set too.
"""

import functools
import os
from dataclasses import dataclass, field

from .dag import DependencyDAG
from .errors import LineageRecordError
from .extractor import EXTRACTOR_VERSION
from .lineage import LineageGraph, TableLineage
from .preprocess import preprocess
from .scheduler import AutoInferenceScheduler, Delta
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
    #: identifier -> :class:`TableLineage` of every resolved entry, and
    #: relation -> {column: number of reads} over those entries: the state
    #: the next incremental run carries forward copy-on-write.
    entry_lineage: dict = field(default=None, init=False, repr=False, compare=False)
    table_usage: dict = field(default=None, init=False, repr=False, compare=False)
    #: the runner catalog's tables as this run saw them (a schema changed
    #: there since is a schema change for the next incremental run)
    catalog_tables: dict = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    def stats(self):
        """Graph-level summary statistics."""
        stats = self.graph.stats()
        stats["num_queries"] = len(self.query_dictionary)
        stats["num_deferrals"] = self.report.deferral_count
        stats["num_unresolved"] = len(self.report.unresolved)
        counts = getattr(self.report, "reused_counts", None) or {}
        stats["num_reused"] = sum(counts.values())
        stats["num_reused_memory"] = counts.get("memory", 0)
        stats["num_reused_store"] = counts.get("store", 0)
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
            A fresh result in which only the changed entries, and the
            transitive DAG dependents for which a relation they read
            changed its column list, were re-extracted; the lineage of
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
        #: optional :class:`repro.store.LineageStore`; when set, the
        #: scheduler looks each entry up in it before extracting the entry,
        #: and the run persists what it extracted.
        self.store = store
        self.dialect = dialect
        #: streaming mode for statement counts beyond what comfortably fits
        #: in memory as ASTs: preprocessing consumes the source lazily (it
        #: may be a generator) and drops each cold-parsed AST immediately,
        #: and extraction re-materialises ASTs wave by wave and releases
        #: them after recording.  Results are byte-identical to the default
        #: mode.
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
        carried over from ``prev_result`` as-is.  The entries the merge
        touched are content-hashed and compared against
        ``prev_result.source_hashes``; genuinely changed or added entries
        are re-extracted.  When an entry comes out with another column list
        than last run (or is removed, or its ``CREATE TABLE`` schema
        changed), each reader of it becomes a *candidate*: when the
        scheduler reaches it, the column lists it would read now are
        compared with those its previous extraction read, and only a
        difference re-extracts it — which may make its own readers
        candidates in turn (extraction is a pure function of the statement
        and those column lists).  So an edit that keeps a view's column
        list re-extracts that view alone.  With ``use_stack=False`` every
        transitive dependent is re-extracted, as an entry may then run
        before what it reads.

        Everything else is carried forward copy-on-write: the Query
        Dictionary, the hashes, the DAG (with each node's level), the
        resolved lineage, the base-table usage and the graph are C-level
        copies of the previous ones with only the delta's rows replaced, so
        a refresh does Python work proportional to the delta, not to the
        corpus.  The returned result is equivalent to a full :meth:`run`
        over the merged sources; ``result.report.reused`` lists the spliced
        identifiers.  One ordering note: DDL in a changed fragment applies
        *after* all carried-over DDL, like a migration on top of the
        previous schema — a ``CREATE TABLE`` replaces that relation's prior
        schema and a ``DROP`` takes effect last, so the equivalent full run
        is one whose changed sources come after the unchanged ones.
        """
        query_dictionary, ddl_changed, touched = self._merge_query_dictionary(
            prev_result.query_dictionary, changed_sources
        )
        if prev_result.entry_lineage is None:
            # a result this runner did not produce (the plan engine's)
            # carries nothing forward: extract the merged dictionary
            return self._run_scheduler(query_dictionary)
        entries = query_dictionary.entries
        prev_hashes = prev_result.source_hashes
        hashes = prev_hashes.copy()
        changed, removed = [], []
        for identifier in touched:
            entry = entries.get(identifier)
            if entry is None:
                if hashes.pop(identifier, None) is not None:
                    removed.append(identifier)
            elif prev_hashes.get(identifier) != entry.content_hash:
                hashes[identifier] = entry.content_hash
                changed.append(identifier)
        dag = DependencyDAG.from_query_dictionary(
            query_dictionary, previous=prev_result.dag, changed=changed + removed
        )
        schema_changed = sorted(
            ddl_changed | self._catalog_drift(prev_result.catalog_tables)
        )
        catalog = (
            self._build_catalog(query_dictionary) if schema_changed else prev_result.catalog
        )
        # a statement reading the relation it writes is no DAG reader of
        # itself, but its self-read resolves through the changed catalog
        self_readers = [
            name for name in schema_changed
            if name in entries and name in entries[name].table_refs()
        ]
        dirty = changed
        if not self.use_stack:
            # without the stack an entry may be extracted before what it
            # reads, so the inputs it saw are not known: re-extract eagerly
            affected = dag.transitive_dependents({*changed, *removed, *schema_changed})
            affected.update(self_readers)
            dirty = sorted(
                affected.union(changed) & entries.keys(),
                key=query_dictionary.positions.__getitem__,
            )
        results = prev_result.entry_lineage.copy()
        unresolved = prev_result.report.unresolved.copy()
        for identifier in (*dirty, *removed):
            results.pop(identifier, None)
            unresolved.pop(identifier, None)

        prev_views, prev_catalog = prev_result.entry_lineage, prev_result.catalog

        def previous_columns(name):
            # a resolved entry's output, else the catalog's
            lineage = prev_views.get(name)
            if lineage is not None:
                return list(lineage.output_columns)
            table = prev_catalog.get(name) if prev_catalog is not None else None
            return table.column_names() if table is not None else None

        def previous_read(identifier):
            # the {relation: columns} its previous extraction read: with
            # the stack an entry completes only once everything it reads
            # is resolved, so the previous run's final state is what it saw
            lineage = prev_views.get(identifier)
            if lineage is None:
                return None  # unresolved last run: nothing to splice
            read = self._dependency_schemas(
                entries[identifier], prev_catalog, previous_columns
            )
            return lineage, {name: columns for name, columns in read if columns is not None}

        delta = Delta(
            graph=prev_result.graph,
            results=results,
            unresolved=unresolved,
            dirty=dirty,
            suspects=self_readers if self.use_stack else (),
            removed=removed,
            schema_changed=schema_changed,
            previous_columns=previous_columns,
            previous_read=previous_read,
        )
        return self._run_scheduler(
            query_dictionary, catalog=catalog, dag=dag, delta=delta,
            previous=prev_result, source_hashes=hashes,
        )

    def _catalog_drift(self, before):
        """Names whose schema in the runner's catalog differs from ``before``
        (the tables a previous run saw); empty when nothing changed."""
        now = self.catalog.tables if self.catalog is not None else {}
        before = before or {}
        if now == before:
            return set()
        return {
            name for name in now.keys() | before.keys()
            if now.get(name) is not before.get(name)
        }

    def _merge_query_dictionary(self, prev_dictionary, changed_sources):
        """Apply ``changed_sources`` to a derived copy of ``prev_dictionary``.

        Unchanged entries reuse their already-parsed :class:`ParsedQuery`
        objects (no re-parsing); only the changed sources run through
        :func:`preprocess`.  Replaced entries keep their original position,
        new identifiers are appended, removed entries disappear.

        A changed key replaces *everything* its source produced in the
        previous run: entries are matched by identifier, and entries or DDL
        recorded under the same ``source_name`` that the new fragment no
        longer produces are purged (so replacing a multi-statement source
        with fewer statements leaves no orphans).  The dictionary's source
        index names those entries, so only they are looked at.

        Known limitation: when several sources define the *same* identifier,
        only the winning definition is retained in the dictionary (the
        shadowed one was already discarded with a "redefined" warning on the
        run that observed the conflict), so a later delta that removes the
        winner cannot resurrect the shadowed definition — re-run from
        scratch to recover it.  DDL declared or dropped
        this way is returned as ``ddl_changed_names`` so the caller can
        dirty its readers — a schema change invalidates spliced lineage
        even though no Query Dictionary entry changed.

        Returns ``(merged_dictionary, ddl_changed_names, touched)``, where
        ``touched`` lists, in dictionary order, every identifier the merge
        added, replaced or removed.
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

        merged = prev_dictionary.derive()
        if extra_ddl or not changed_keys.isdisjoint(prev_dictionary.ddl_sources):
            merged.ddl_statements, merged.ddl_sources = [], []
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
                    # superseded by DDL for the same relation in a new
                    # fragment (only *new* declarations supersede — a schema
                    # also dropped elsewhere must not erase an unchanged
                    # source's DDL)
                    continue
                merged.add_ddl(statement, source=source)
            for statement, source in zip(extra_ddl, extra_ddl_sources):
                merged.add_ddl(statement, source=source)
        # Warnings of carried-over entries would re-occur on a full run, so
        # keep them; warnings tied to a *replaced* entry may be stale, which
        # is the price of not re-parsing the unchanged sources.
        merged.warnings.extend(warnings)

        # the previous entries a changed key addresses: its source's
        # entries, or the entry of that identifier (for anonymous script
        # input the identifier is the key), and every identifier a new
        # fragment produces
        addressed = set()
        for key in changed_keys:
            addressed.update(merged.sources.get(key, ()))
            if key in merged.entries:
                addressed.add(key)
        addressed.update(name for name in parsed_changes if name in merged.entries)
        touched = {}
        for identifier in sorted(addressed, key=merged.positions.__getitem__):
            entry = merged.entries[identifier]
            if identifier in removed:
                merged.drop(identifier)
                touched[identifier] = None
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
                else:
                    merged.put(replacement)
                    touched[identifier] = None
                continue
            if owner in changed_keys:
                # the entry's source no longer produces this statement
                merged.drop(identifier)
                touched[identifier] = None
        # entries produced by the new fragments that did not replace a prev
        # entry are appended unconditionally — `removed` names prior state,
        # and a relation removed from one source may be redefined by another
        for identifier, entry in parsed_changes.items():
            merged.put(entry)
            touched[identifier] = None
        return merged, ddl_changed, touched

    # ------------------------------------------------------------------
    def _run_scheduler(self, query_dictionary, catalog=None, dag=None, delta=None,
                       previous=None, source_hashes=None):
        if catalog is None:
            catalog = self._build_catalog(query_dictionary)
        stored = None
        store = self._usable_store()
        if store is not None:
            # one batched read of the records the run may look up: every
            # entry's on a full run, the changed ones' on a refresh
            entries = query_dictionary.entries
            primed = {
                entries[identifier].content_hash
                for identifier in (entries if delta is None else delta.dirty)
            }
            found = store.prime(primed)
            absent = frozenset() if found is None else primed - found
            stored = functools.partial(self._stored, store, catalog, absent)
        scheduler = AutoInferenceScheduler(
            query_dictionary,
            catalog=catalog,
            strict=self.strict,
            use_stack=self.use_stack,
            collect_traces=self.collect_traces,
            mode=self.mode,
            dag=dag,
            release_asts=self.stream,
            delta=delta,
            stored=stored,
        )
        graph, report = scheduler.run()
        usage = self._attach_base_tables(
            graph, catalog, previous, () if delta is None else delta.schema_changed,
            scheduler.graph_changes,
        )
        if store is not None:
            self._persist_results(store, query_dictionary, catalog, scheduler, report)
        if source_hashes is None:
            source_hashes = {
                identifier: entry.content_hash
                for identifier, entry in query_dictionary.items()
            }
        result = LineageXResult(
            graph=graph,
            query_dictionary=query_dictionary,
            catalog=catalog,
            report=report,
            warnings=list(query_dictionary.warnings),
            source_hashes=source_hashes,
            runner=self,
        )
        result.dag = scheduler.dag
        result.entry_lineage = scheduler.results
        result.table_usage = usage
        result.catalog_tables = dict(self.catalog.tables) if self.catalog is not None else None
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
        fingerprint the next run's lookup could never reconstruct, and
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

    def _key(self, entry, catalog, lookup):
        """``(cache key, schema fingerprint)`` of ``entry`` extracted
        against the column lists ``lookup(name)`` gives."""
        from ..store import make_key, schema_fingerprint

        fingerprint = schema_fingerprint(
            self._dependency_schemas(entry, catalog, lookup),
            strict=self.strict,
        )
        key = make_key(entry.content_hash, self.dialect, EXTRACTOR_VERSION, fingerprint)
        return key, fingerprint

    def _stored(self, store, catalog, absent, entry, lookup):
        """The store's record of ``entry`` extracted against the column
        lists ``lookup(name)`` gives, or ``None`` — at once, with no key
        computed, when ``entry``'s content hash is in ``absent`` (primed,
        and no record has it)."""
        if entry.content_hash in absent:
            return None
        return store.get(self._key(entry, catalog, lookup)[0])

    def _persist_results(self, store, query_dictionary, catalog, scheduler, report):
        """Write every newly extracted entry's record to the store.

        Keys are computed from the *final* resolved schemas (the
        scheduler's ``_columns``, the lookup :meth:`_stored` is given) —
        with the deferral stack enabled an entry only completes once every
        dependency it consulted is resolved, so the post-run view equals
        what its extraction saw, and what the next run's lookup
        reconstructs when the entry's turn comes.
        """
        results = scheduler.results
        rows = []
        for identifier in report.order:
            if identifier in report.unresolved:
                continue
            lineage = results.get(identifier)
            entry = query_dictionary.get(identifier)
            if lineage is None or entry is None:
                continue
            key, fingerprint = self._key(entry, catalog, scheduler._columns)
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
        # one executemany-backed transaction instead of a round trip per
        # record — the write-side analogue of prime()
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
    def _attach_base_tables(graph, catalog, previous=None, schema_changed=(), changed=()):
        """Create base-table nodes for every relation that is only read.

        Column sets come from the catalog when available and are otherwise
        accumulated from usage (every contribution or reference that points
        at the relation), which is how Example 1's ``web`` node obtains its
        ``cid``/``date``/``page``/``reg`` columns without any metadata.
        Usage columns come sorted, then any further catalog columns.  Returns
        the usage counts (relation -> {column: number of reads}).

        A full run counts every view's reads and adds the base tables after
        the views, in name order.  With ``previous`` (the result an
        incremental run started from), the counts are the previous ones
        patched with the reads of the ``changed`` views (those the
        scheduler added to or removed from the graph it derived), and only
        the relations those views read or are named after, or whose schema
        changed (``schema_changed``), are derived again; every other base
        table stays spliced by reference.
        """
        if previous is None:
            usage = {}
            for entry in list(graph.relations.values()):  # only views so far
                _count_reads(usage, entry, 1)
            for name in sorted(usage.keys() - graph.relations.keys()):
                graph.add(_base_table(name, usage[name], catalog))
            return usage
        usage = previous.table_usage.copy()
        before = previous.graph.relations
        affected = set(schema_changed)
        copied = set()
        for name in changed:
            affected.add(name)
            for entry, sign in ((before.get(name), -1), (graph.relations.get(name), 1)):
                if entry is not None and not entry.is_base_table:
                    # a reader's column sources always lie in its source tables
                    _count_reads(usage, entry, sign, copied)
                    affected.update(entry.source_tables)
        for name in sorted(affected):
            entry = graph.relations.get(name)
            if entry is not None and not entry.is_base_table:
                continue  # a view
            if name in usage:
                graph.add(_base_table(name, usage[name], catalog))
            elif entry is not None:
                graph.discard(name)
        return usage


def _count_reads(usage, entry, sign, copied=None):
    """Add (``sign=1``) or take away (``-1``) ``entry``'s reads to ``usage``.

    Every contribution and reference counts once per source column.  With
    ``copied`` (the rows this patch owns), shared rows are copied before
    they are edited.
    """
    for sources in (*entry.contributions.values(), entry.referenced):
        for source in sources:
            table = source.table
            row = usage.get(table)
            if copied is not None and table not in copied:
                copied.add(table)
                row = usage[table] = dict(row or ())
            elif row is None:
                row = usage[table] = {}
            count = row.get(source.column, 0) + sign
            if count:
                row[source.column] = count
            else:
                del row[source.column]
                if not row:
                    del usage[table]
                    if copied is not None:
                        copied.discard(table)


def _base_table(name, columns, catalog):
    """The base-table node of ``name`` read in ``columns``."""
    entry = TableLineage(name=name, is_base_table=True)
    for column in sorted(columns):
        if column != "*":
            entry.add_output_column(column)
    table = catalog.get(name) if catalog is not None else None
    if table is not None:
        for column in table.column_names():
            entry.add_output_column(column)
    return entry


def lineagex(
    source,
    catalog=None,
    strict=False,
    use_stack=True,
    collect_traces=False,
    output_dir=None,
    mode="dag",
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
        ),
    )
    result = session.extract()
    if output_dir is not None:
        result.save(output_dir)
    return result
