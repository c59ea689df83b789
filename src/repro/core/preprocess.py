"""The SQL Preprocessing Module.

Section III of the paper: scan each query and record the mapping from the
query's *identifier* to its query body.  For ``CREATE`` statements the
created table/view name is the identifier; for bare ``SELECT`` statements a
generated id is used (or, for dbt-style projects where each model lives in
its own file, the file name).  The resulting key/value pairs form the
*Query Dictionary (QD)* consumed by the transformation and extraction
modules.
"""

import os

from .dag import statement_table_refs
from .errors import LineageRecordError
from ..sources.base import read_sql_file
from ..sqlparser import SQLError, ast, parse
from ..sqlparser.dialect import normalize_name
from ..sqlparser.printer import canonical_sql_and_hash, content_hash_of, to_sql
from ..sqlparser.visitor import created_name, query_of

#: Version of the serialized per-source parse record (the store's parse
#: cache).  Bump whenever :func:`_statement_record` / statement
#: classification changes shape or semantics; old records become misses.
#: v2: records carry the precomputed ``content_hash`` (fused with the
#: canonical print), so replays never re-hash.
#: v3: the warehouse DML surface — new ``merge`` kind, ``table_refs``
#: now includes the written target of UPDATE/DELETE/MERGE and of
#: upserting INSERTs, and GROUPING SETS/ROLLUP/CUBE/QUALIFY change the
#: canonical shape of statements that previously parsed loosely.
PARSE_RECORD_VERSION = 3

#: fragments announced to the parse cache per prefetch window.  Matches
#: the store's ``IN (...)`` chunk width, so one window = one batched
#: SELECT; it also bounds how many raw source texts streaming
#: preprocessing holds in memory at once.
PREFETCH_CHUNK = 400


class ParsedQuery:
    """One entry of the Query Dictionary.

    The AST (``statement`` / ``query``) is materialised *lazily*: entries
    replayed from the persistent parse cache carry only the canonical
    ``statement_sql`` and re-parse it on first AST access.  A warm-start
    run whose extractions all splice from the lineage store therefore never
    parses a single statement — ``content_hash`` and ``dependencies()``
    are served from the cached record.
    """

    def __init__(
        self,
        identifier,
        statement=None,
        query=None,
        sql="",
        kind="select",  # view | table | insert | update | delete | merge | select
        column_names=None,
        source_name=None,
        statement_sql="",
        table_refs=None,
        content_hash=None,
    ):
        self.identifier = identifier
        self._statement = statement
        self._query = query
        #: for named sources, the whole source text this entry came from;
        #: for anonymous script input, this entry's statement alone.
        self.sql = sql
        self.kind = kind
        self.column_names = list(column_names or [])
        #: the named source (dict key / file stem) this entry was parsed
        #: from, or ``None`` for anonymous script input.  Incremental
        #: merging uses it to purge entries whose source was replaced by a
        #: fragment that no longer produces them.
        self.source_name = source_name
        #: this entry's statement alone, pretty-printed from the AST.
        #: Unlike ``sql`` this is always exactly one statement in canonical
        #: form — the basis of :attr:`content_hash`, of incremental source
        #: reconstruction, and of lazy re-parsing.
        self.statement_sql = statement_sql
        #: every relation name the statement references (before discarding
        #: the self-reference); computed on demand and cached, or replayed
        #: from the parse cache.
        self._table_refs = frozenset(table_refs) if table_refs is not None else None
        if content_hash is not None:
            # fused with the canonical print (or replayed from the parse
            # cache); the property's lazy fallback covers everything else
            self._content_hash = content_hash

    def __repr__(self):
        return (
            f"ParsedQuery(identifier={self.identifier!r}, kind={self.kind!r}, "
            f"parsed={self._statement is not None})"
        )

    @property
    def statement(self):
        """The statement AST (re-parsed from ``statement_sql`` on demand).

        A lazy entry only exists when the statement was replayed from the
        persistent parse cache, so a re-parse failure means the cached
        canonical SQL is corrupt or version-skewed; it surfaces as
        :class:`~repro.core.errors.LineageRecordError`, which the runner
        turns into a cold retry without the parse cache.
        """
        if self._statement is None:
            try:
                statements = parse(self.statement_sql)
            except Exception as error:
                raise LineageRecordError(
                    f"cached canonical SQL of {self.identifier!r} no longer "
                    f"parses ({error}); the parse cache is corrupt or was "
                    "written by an incompatible version"
                ) from None
            if len(statements) != 1:
                raise LineageRecordError(
                    f"cached canonical SQL of {self.identifier!r} holds "
                    f"{len(statements)} statements, expected exactly 1"
                )
            self._statement = statements[0]
        return self._statement

    @property
    def query(self):
        """The query expression whose lineage describes this entry."""
        if self._query is None:
            self._query = _query_for(self.statement)
        return self._query

    @property
    def is_parsed(self):
        """True when the AST is already materialised (no parse on access)."""
        return self._statement is not None

    def table_refs(self):
        """Every relation name referenced by the statement (incl. self)."""
        if self._table_refs is None:
            self._table_refs = frozenset(statement_table_refs(self.statement))
        return self._table_refs

    def release(self):
        """Drop the materialised AST; it re-materialises lazily on demand.

        The streaming extraction path calls this right after an entry's
        lineage has been recorded, so a 100k-statement run holds at most
        one wave's ASTs at a time instead of the whole corpus's.  The
        derived facts that outlive extraction (``table_refs``,
        ``content_hash``) are forced into their caches first, so nothing
        observable changes — a released entry behaves exactly like one
        replayed from the parse cache.  Returns ``True`` when an AST was
        actually dropped.  A no-op for entries with no canonical SQL to
        re-parse from (they could never rebuild the AST).
        """
        if not self.statement_sql or self._statement is None:
            return False
        self.table_refs()
        _ = self.content_hash
        self._statement = None
        self._query = None
        return True

    def dependencies(self):
        """Relations this entry reads (the self-reference excluded)."""
        return self.table_refs() - {self.identifier}

    @property
    def creates_relation(self):
        """True if this entry defines/extends a named relation."""
        return self.kind in ("view", "table", "insert")

    @property
    def content_hash(self):
        """A stable fingerprint of this entry's semantic content.

        Computed over the canonical printed statement (so whitespace and
        comment changes do not count as changes) plus the statement kind.
        Incremental re-extraction compares these hashes to find the entries
        that actually changed between runs.  On the cold path the hash is
        fused with the canonical print
        (:func:`repro.sqlparser.printer.canonical_sql_and_hash`); this lazy
        fallback serves entries built any other way.  Cached: an entry's
        statement is never mutated after preprocessing.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = self.__dict__["_content_hash"] = content_hash_of(
                self.statement_sql, self.kind
            )
        return cached


class QueryDictionary:
    """Ordered mapping from query identifiers to parsed queries.

    ``entries`` is the order: a dict keeps insertion order, a redefinition
    moves its identifier to the end, and an incremental merge
    (:meth:`derive`, then :meth:`put` / :meth:`drop`) replaces an entry in
    place.  Besides the SELECT-bearing entries, the dictionary keeps the
    plain DDL statements (``CREATE TABLE`` with a column list) it
    encountered so the runner can seed the schema catalog from them, and a
    list of warnings for anything that was skipped or replaced.
    """

    def __init__(self):
        self.entries = {}
        #: identifier -> a sequence number that grows with its place in
        #: ``entries``; ranks a few entries in Query Dictionary order
        #: without scanning the whole dictionary.
        self.positions = {}
        #: named source -> ``{identifier: None}`` of the entries it produced,
        #: so replacing a source finds what it produced before.
        self.sources = {}
        self.ddl_statements = []
        #: parallel to ``ddl_statements``: the named source each DDL
        #: statement came from (``None`` for anonymous script input)
        self.ddl_sources = []
        self.warnings = []
        self._next_position = 0
        #: the ``sources`` rows this dictionary may edit in place; the
        #: others are shared with the dictionary it was derived from
        self._own_rows = set()

    # ------------------------------------------------------------------
    def add(self, parsed_query):
        """Insert an entry, replacing (with a warning) any previous definition."""
        identifier = parsed_query.identifier
        if identifier in self.entries:
            self.warnings.append(
                f"query identifier {identifier!r} redefined; keeping the latest definition"
            )
            self.drop(identifier)
        return self.put(parsed_query)

    def put(self, parsed_query):
        """Insert an entry, or replace one of the same identifier in place."""
        identifier = parsed_query.identifier
        old = self.entries.get(identifier)
        if old is None:
            self.positions[identifier] = self._next_position
            self._next_position += 1
        else:
            self._unlist(old)
        self.entries[identifier] = parsed_query
        if parsed_query.source_name is not None:
            self._row(parsed_query.source_name)[identifier] = None
        return parsed_query

    def drop(self, identifier):
        """Remove an entry."""
        self._unlist(self.entries.pop(identifier))
        del self.positions[identifier]

    def derive(self):
        """A copy to merge a delta into: entries and source rows are shared,
        the containers are copied (C-level) and edited copy-on-write."""
        merged = QueryDictionary()
        merged.entries = self.entries.copy()
        merged.positions = self.positions.copy()
        merged.sources = self.sources.copy()
        merged.ddl_statements = list(self.ddl_statements)
        merged.ddl_sources = list(self.ddl_sources)
        merged.warnings = list(self.warnings)
        merged._next_position = self._next_position
        return merged

    def _row(self, source):
        if source not in self._own_rows:
            self._own_rows.add(source)
            self.sources[source] = dict(self.sources.get(source, ()))
        return self.sources[source]

    def _unlist(self, entry):
        if entry.source_name is not None:
            row = self._row(entry.source_name)
            row.pop(entry.identifier, None)
            if not row:
                del self.sources[entry.source_name]
                self._own_rows.discard(entry.source_name)

    def add_ddl(self, statement, source=None):
        """Record a non-query DDL statement (CREATE TABLE / DROP)."""
        self.ddl_statements.append(statement)
        self.ddl_sources.append(source)

    # ------------------------------------------------------------------
    def __contains__(self, identifier):
        return normalize_name(identifier) in self.entries

    def __getitem__(self, identifier):
        return self.entries[normalize_name(identifier)]

    def get(self, identifier, default=None):
        return self.entries.get(normalize_name(identifier), default)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.values())

    def identifiers(self):
        """Identifiers in insertion order."""
        return list(self.entries)

    def items(self):
        return iter(self.entries.items())


def preprocess(source, id_generator=None, parse_cache=None, retain_asts=True):
    """Build a :class:`QueryDictionary` from ``source``.

    ``source`` may be:

    * a SQL script string (possibly containing many statements),
    * a list of SQL script strings,
    * a mapping ``{name: sql}`` (dbt-style: the key names bare SELECTs),
    * a path to a ``.sql`` file or to a directory of ``.sql`` files,
    * any other iterable (including a generator) yielding SQL strings or
      ``(name, sql)`` pairs — the streaming input: fragments are consumed
      in :data:`PREFETCH_CHUNK` windows, so a 100k-statement corpus never
      materialises as one giant list of source texts.

    ``id_generator`` customises how anonymous SELECT statements are named;
    it is called with a running counter and must return a string.  The
    default produces deterministic ``query_1``, ``query_2``, ... identifiers
    (the paper uses randomly generated ids; determinism is friendlier to
    tests and caching and does not change the algorithm).

    ``parse_cache`` (optional) is an object with ``get(sql) -> records``
    and ``put(sql, records)`` — typically
    :meth:`repro.store.LineageStore.parse_cache`.  Source fragments found
    in the cache are *replayed* from their serialized statement records
    instead of being parsed; the resulting entries materialise their ASTs
    lazily, so a fully warm run never parses at all.  Fragments are
    announced to the cache one window at a time (``prefetch``), which
    batches the reads without holding every raw text at once.

    ``retain_asts`` (default ``True``) controls whether cold-parsed
    entries keep their ASTs.  With ``False`` — the streaming mode — each
    entry drops its AST as soon as its parse record exists; everything
    the DAG needs (``table_refs``, ``content_hash``) is served from the
    record, and extraction re-materialises each AST lazily from the
    canonical SQL, wave by wave.  The full AST population then never
    coexists, trading one extra (fast, canonical-text) parse per
    extracted statement for a flat memory profile.
    """
    if id_generator is None:
        id_generator = lambda counter: f"query_{counter}"  # noqa: E731

    dictionary = QueryDictionary()
    counter = 0
    prefetch = (
        getattr(parse_cache, "prefetch", None) if parse_cache is not None else None
    )
    for window in _windows(_iter_sources(source), PREFETCH_CHUNK):
        if prefetch is not None:
            # announce the window up front: a cache that supports batched
            # reads (the store-backed one does) resolves all its keys in
            # one SELECT instead of one point query per fragment
            prefetch([sql for _, sql in window])
        for default_name, sql in window:
            statements = None
            records = parse_cache.get(sql) if parse_cache is not None else None
            if records is not None:
                records = _validated_fragment(records)
            if records is None:
                try:
                    statements = parse(sql)
                except SQLError as error:
                    error.source_name = default_name  # named in the CLI's error line
                    raise
                records = [_statement_record(statement) for statement in statements]
                if parse_cache is not None:
                    parse_cache.put(sql, records)
            for index, record in enumerate(records):
                statement = statements[index] if statements is not None else None
                if statement is not None and not retain_asts and record["kind"] not in (
                    "ddl", "skip"
                ):
                    # the record carries table_refs + content_hash, so the
                    # entry stays lazy exactly like a parse-cache replay
                    # (DDL is exempt: its AST seeds the catalog eagerly)
                    statement = None
                counter = _apply_record(
                    dictionary, record, statement, default_name, sql, counter,
                    id_generator,
                )
    return dictionary


def _windows(iterable, size):
    """Yield lists of up to ``size`` items from ``iterable``."""
    window = []
    for item in iterable:
        window.append(item)
        if len(window) >= size:
            yield window
            window = []
    if window:
        yield window


def _statement_record(statement):
    """Serialise one parsed statement's preprocessing outcome.

    The record carries everything the downstream pipeline needs without
    the AST: the classification, the canonical single-statement SQL (the
    substrate of ``content_hash`` and of lazy re-parsing), the declared
    column list, and the referenced relation names (the dependency-DAG
    input).  ``skip`` records keep only their warning text.
    """
    entry_kind, identifier, column_names = _classify(statement)
    record = {
        "kind": entry_kind,
        "identifier": identifier,
        "column_names": list(column_names),
    }
    if entry_kind == "skip":
        record["warning"] = (
            f"statement of type {type(statement).__name__} does not produce lineage; skipped"
        )
        return record
    if entry_kind == "ddl":
        record["statement_sql"] = _statement_sql(statement)
    else:
        # one streaming pass produces the canonical text AND its hash
        record["statement_sql"], record["content_hash"] = canonical_sql_and_hash(
            statement, entry_kind
        )
        record["table_refs"] = sorted(statement_table_refs(statement))
    return record


_RECORD_KINDS = (
    "view", "table", "insert", "update", "delete", "merge", "select", "ddl", "skip"
)


def _validated_fragment(records):
    """Structurally validate replayed parse records; ``None`` = cold miss."""
    if not isinstance(records, list):
        return None
    for record in records:
        if not isinstance(record, dict) or record.get("kind") not in _RECORD_KINDS:
            return None
        kind = record["kind"]
        if kind == "skip":
            if not isinstance(record.get("warning"), str):
                return None
            continue
        if not isinstance(record.get("statement_sql"), str) or not record["statement_sql"]:
            return None
        identifier = record.get("identifier")
        if identifier is not None and not isinstance(identifier, str):
            return None
        if not isinstance(record.get("column_names"), list):
            return None
        if kind != "ddl" and not (
            isinstance(record.get("table_refs"), list)
            and all(isinstance(name, str) for name in record["table_refs"])
        ):
            return None
        if kind != "ddl" and not isinstance(record.get("content_hash"), str):
            return None
        if kind == "ddl":
            # DDL ASTs are needed eagerly (they seed the schema catalog);
            # prove the cached text re-parses before applying anything and
            # keep the AST so _apply_record does not parse a second time
            try:
                statements = parse(record["statement_sql"])
            except Exception:
                return None
            if len(statements) != 1:
                return None
            record["_parsed_ddl"] = statements[0]
    return records


def _apply_record(dictionary, record, statement, default_name, sql, counter, id_generator):
    """Apply one statement record to the dictionary (cold or replayed path).

    ``statement`` is the live AST on the cold path and ``None`` on replay,
    in which case lineage-bearing entries stay lazy and DDL is re-parsed
    eagerly (the schema catalog needs it up front).
    """
    kind = record["kind"]
    if kind == "skip":
        dictionary.warnings.append(record["warning"])
        return counter
    if kind == "ddl":
        if statement is None:
            # attached by _validated_fragment on the replay path (records
            # are decoded fresh per replay, so the AST is never shared)
            statement = record.pop("_parsed_ddl", None)
        if statement is None:
            statement = parse(record["statement_sql"])[0]
        dictionary.add_ddl(statement, source=default_name)
        return counter
    identifier = record["identifier"]
    if identifier is None:
        if default_name is not None:
            identifier = default_name
        else:
            counter += 1
            identifier = id_generator(counter)
    if kind in ("update", "delete", "merge") and identifier in dictionary:
        # A CREATE already defines this relation's lineage; an UPDATE,
        # DELETE or MERGE later in the log must not overwrite it.
        dictionary.warnings.append(
            f"{kind.upper()} on {identifier!r} ignored: the relation is "
            "already defined by an earlier statement"
        )
        return counter
    statement_sql = record["statement_sql"]
    dictionary.add(
        ParsedQuery(
            identifier=normalize_name(identifier),
            statement=statement,
            sql=sql if default_name is not None else statement_sql,
            kind=kind,
            column_names=record["column_names"],
            statement_sql=statement_sql,
            source_name=default_name,
            table_refs=record.get("table_refs"),
            content_hash=record.get("content_hash"),
        )
    )
    return counter


def _and_join(left, right):
    """``left AND right`` treating ``None`` as absent (for reference
    accumulation — the extractor only walks these, it never evaluates)."""
    if left is None:
        return right
    if right is None:
        return left
    return ast.BinaryOp("AND", left, right)


def _query_for(statement):
    """The query expression whose lineage describes ``statement``.

    ``SELECT``/``CREATE``/``INSERT`` statements embed one directly.  An
    ``UPDATE`` is rewritten into an equivalent SELECT over the target table
    (plus any FROM sources): each ``SET col = expr`` becomes a projection, so
    the assigned columns obtain contribution lineage and the WHERE / join
    columns become references.  A ``DELETE`` contributes no columns but its
    USING / WHERE columns are references that affect the target's contents.

    A ``MERGE`` is rewritten the same way: the target table and the USING
    source are bound, the ON condition and every ``WHEN ... AND`` condition
    become references (folded into WHERE), ``UPDATE SET`` assignments and
    ``INSERT (cols) VALUES (...)`` pairs become projections.  An INSERT
    action without a declared column list contributes nothing nameable, so
    its value expressions degrade to references.

    ``INSERT ... SELECT ... ON CONFLICT`` wraps the insert's query as a
    derived table aliased ``excluded`` (the SQL name of the would-be
    inserted row), binds the target table, and adds the ``DO UPDATE SET``
    assignments as projections — so conflict-resolution lineage flows from
    both the source query and the target, and the conflict-target columns
    become references.
    """
    if isinstance(statement, ast.UpdateStatement):
        target = ast.TableRef(name=statement.table, alias=statement.alias)
        projections = [
            ast.Projection(expression=expression, alias=column)
            for column, expression in statement.assignments
        ]
        return ast.Select(
            projections=projections,
            from_sources=[target] + list(statement.from_sources),
            where=statement.where,
        )
    if isinstance(statement, ast.DeleteStatement):
        target = ast.TableRef(name=statement.table, alias=statement.alias)
        return ast.Select(
            projections=[],
            from_sources=[target] + list(statement.using_sources),
            where=statement.where,
        )
    if isinstance(statement, ast.MergeStatement):
        target = ast.TableRef(name=statement.target, alias=statement.alias)
        projections = []
        where = statement.condition
        for when in statement.when_clauses:
            where = _and_join(where, when.condition)
            if when.action == "update":
                projections.extend(
                    ast.Projection(expression=expression, alias=column)
                    for column, expression in when.assignments
                )
            elif when.action == "insert":
                if when.columns:
                    projections.extend(
                        ast.Projection(expression=expression, alias=column)
                        for column, expression in zip(when.columns, when.values)
                    )
                else:
                    # no declared target columns: the values cannot be
                    # attributed to named outputs; keep them as references
                    for expression in when.values:
                        where = _and_join(where, expression)
        return ast.Select(
            projections=projections,
            from_sources=[target, statement.source],
            where=where,
        )
    if (
        isinstance(statement, ast.InsertStatement)
        and statement.on_conflict is not None
        and statement.query is not None
    ):
        conflict = statement.on_conflict
        target = ast.TableRef(name=statement.table)
        target_name = statement.table.name
        excluded = ast.SubquerySource(
            query=statement.query,
            alias="excluded",
            column_aliases=list(statement.columns),
        )
        projections = [ast.Projection(ast.Star(qualifier=["excluded"]))]
        where = None
        for column in conflict.columns:
            where = _and_join(
                where, ast.ColumnRef(name=column, qualifier=[target_name])
            )
        if conflict.do_update:
            projections.extend(
                ast.Projection(expression=expression, alias=column)
                for column, expression in conflict.assignments
            )
            where = _and_join(where, conflict.where)
        return ast.Select(
            projections=projections,
            from_sources=[excluded, target],
            where=where,
        )
    return query_of(statement)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _iter_sources(source):
    """Yield ``(default_name, sql_text)`` pairs from the supported inputs."""
    if isinstance(source, str):
        if _looks_like_path(source):
            yield from _iter_path(source)
        else:
            yield None, source
        return
    if isinstance(source, os.PathLike):
        yield from _iter_path(os.fspath(source))
        return
    if isinstance(source, dict):
        for name, sql in source.items():
            yield normalize_name(str(name)), sql
        return
    if isinstance(source, (list, tuple)):
        for item in source:
            yield from _iter_item(item)
        return
    try:
        iterator = iter(source)
    except TypeError:
        raise TypeError(
            "unsupported source type for preprocess(): expected str, path, "
            f"iterable or dict, got {type(source).__name__}"
        ) from None
    # any other iterable — a generator, most usefully: fragments stream
    # through preprocessing one prefetch window at a time
    for item in iterator:
        yield from _iter_item(item)


def _iter_item(item):
    """One streamed fragment: a SQL string or a ``(name, sql)`` pair."""
    if isinstance(item, tuple) and len(item) == 2:
        name, sql = item
        yield (None if name is None else normalize_name(str(name))), sql
    else:
        yield None, item


def _looks_like_path(text):
    """Heuristic: treat short, existing filesystem paths as paths, not SQL."""
    if "\n" in text or ";" in text:
        return False
    if text.strip().upper().startswith(("SELECT", "CREATE", "INSERT", "WITH", "DROP")):
        return False
    return os.path.exists(text)


def _iter_path(path):
    if os.path.isdir(path):
        for filename in sorted(os.listdir(path)):
            if filename.endswith(".sql"):
                yield (
                    normalize_name(os.path.splitext(filename)[0]),
                    read_sql_file(os.path.join(path, filename)),
                )
        return
    yield None, read_sql_file(path)


def _classify(statement):
    """Map a statement to (kind, identifier, declared column names)."""
    if isinstance(statement, ast.CreateView):
        return "view", created_name(statement), list(statement.column_names)
    if isinstance(statement, ast.CreateTableAs):
        return "table", created_name(statement), []
    if isinstance(statement, ast.InsertStatement):
        if statement.query is None:
            # INSERT ... VALUES carries no column lineage from other relations
            return "skip", None, []
        return "insert", created_name(statement), list(statement.columns)
    if isinstance(statement, ast.UpdateStatement):
        return "update", statement.table.dotted(), []
    if isinstance(statement, ast.DeleteStatement):
        return "delete", statement.table.dotted(), []
    if isinstance(statement, ast.MergeStatement):
        return "merge", statement.target.dotted(), []
    if isinstance(statement, ast.QueryStatement):
        return "select", None, []
    if isinstance(statement, (ast.CreateTable, ast.DropStatement)):
        return "ddl", None, []
    return "skip", None, []


def _statement_sql(statement):
    return to_sql(statement)
