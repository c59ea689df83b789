"""The lineage graph data model.

Following Section II of the paper, the lineage of a query ``Q`` producing a
relation ``V`` consists of:

* ``T`` -- the *table lineage*: which input relations contribute to ``V``;
* ``C`` -- the *column lineage*: for every output column ``c_out`` of ``V``,
  the set ``C_con(c_out)`` of input columns that directly contribute to its
  values;
* ``C_ref`` -- the set of input columns *referenced* by ``Q`` (join
  predicates, WHERE/HAVING filters, set-operation comparisons, GROUP BY
  keys, ...): a change in any of them may change which rows appear in ``V``,
  hence it potentially affects *every* output column;
* ``C_both`` -- columns appearing both in some ``C_con`` set and in
  ``C_ref``.

:class:`TableLineage` stores the lineage of a single relation;
:class:`LineageGraph` collects the lineage of a whole warehouse (one entry
per Query Dictionary item plus the inferred base tables) and exposes the
combined column-edge view used by the visualizer and the impact analysis.
"""

import weakref
from collections import namedtuple
from dataclasses import dataclass, field

from .column_refs import ColumnName
from .errors import LineageRecordError


#: Edge kinds, ordered so that "both" wins when merging.
EDGE_CONTRIBUTE = "contribute"
EDGE_REFERENCE = "reference"
EDGE_BOTH = "both"

#: Version of the :meth:`TableLineage.to_record` serialisation format.
#: Bump whenever the record shape changes; :meth:`TableLineage.from_record`
#: rejects records of any other version, which the persistent store turns
#: into a silent cold miss (re-extraction) instead of loading skewed data.
LINEAGE_RECORD_VERSION = 1


@dataclass(frozen=True, order=True)
class ColumnEdge:
    """A directed column-level lineage edge ``source -> target`` with a kind."""

    source: ColumnName
    target: ColumnName
    kind: str = EDGE_CONTRIBUTE


#: What a graph index needs of one entry (see :meth:`TableLineage._record`):
#: its edges in :meth:`TableLineage.edges` order, its sorted source tables,
#: whether it is a base table, and its output column count.
EntryRecord = namedtuple("EntryRecord", "edges sources is_base columns")


@dataclass
class TableLineage:
    """Lineage of a single output relation (view, table, or ad-hoc query)."""

    name: str
    output_columns: list = field(default_factory=list)
    contributions: dict = field(default_factory=dict)   # column -> set[ColumnName]
    referenced: set = field(default_factory=set)          # set[ColumnName]
    source_tables: set = field(default_factory=set)       # set[str]
    expressions: dict = field(default_factory=dict)        # column -> defining SQL text
    is_base_table: bool = False
    sql: str = ""
    #: mutation counter; kept for observability, but index invalidation now
    #: flows through the observer hooks (see :meth:`_bump`), so graphs never
    #: have to re-sum the counters of every entry per traversal.
    _version: int = field(default=0, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Mutation notification
    # ------------------------------------------------------------------
    def _bump(self):
        """Record a mutation and notify every graph holding this entry.

        Entries can be mutated *after* being added to a graph (base tables
        gain columns from usage) and one entry may live in several graphs at
        once (incremental splicing shares :class:`TableLineage` objects
        between the previous and the new result).  Each mutation pushes an
        O(1) invalidation to every subscribed graph family instead of
        graphs polling every entry's counter on each traversal.
        """
        self._version += 1
        observers = self.__dict__.get("_observers")
        if observers:
            alive = [ref for ref in observers if ref() is not None]
            for ref in alive:
                ref().entry_changed(self)
            if len(alive) != len(observers):
                self.__dict__["_observers"] = alive

    def _subscribe(self, family):
        """Register a graph ``family`` for mutation notifications (weakly,
        once).

        A family is every live graph derived from one another, so an entry
        spliced into each refresh's graph subscribes once, when it first
        joins.  References to families that no longer exist are dropped on
        the way.
        """
        observers = self.__dict__.setdefault("_observers", [])
        stale = False
        for ref in observers:
            target = ref()
            if target is family:
                return
            if target is None:
                stale = True
        if stale:
            observers[:] = [ref for ref in observers if ref() is not None]
        observers.append(weakref.ref(family))

    def _record(self):
        """This entry's :data:`EntryRecord`, cached per ``_version``.

        A new record object is made only when the entry changed, so a graph
        index patch skips entries whose record it already holds (see
        :meth:`_GraphIndex.patched`).  This is sound only because entries
        change through the ``add_*`` methods, which bump ``_version``; code
        that assigns fields directly must do so before anything reads them.
        """
        cached = self.__dict__.get("_record_cache")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        record = EntryRecord(
            tuple(self._derive_edges()),
            tuple(sorted(self.source_tables)),
            self.is_base_table,
            len(self.output_columns),
        )
        self.__dict__["_record_cache"] = (self._version, record)
        return record

    def __getstate__(self):
        # weak observer references are neither picklable nor meaningful in
        # another process; an unpickled copy starts unsubscribed (and
        # re-derives its record on first use)
        state = dict(self.__dict__)
        state.pop("_observers", None)
        state.pop("_record_cache", None)
        return state

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_output_column(self, column):
        """Register an output column (keeps first-seen order, no duplicates)."""
        if column not in self.output_columns:
            self.output_columns.append(column)
        self.contributions.setdefault(column, set())
        self._bump()

    def add_contribution(self, column, source):
        """Record that ``source`` contributes to output ``column``."""
        self.add_output_column(column)
        self.contributions[column].add(source)
        self.source_tables.add(source.table)
        self._bump()

    def add_reference(self, source):
        """Record that the defining query references ``source``."""
        self.referenced.add(source)
        self.source_tables.add(source.table)
        self._bump()

    def add_source_table(self, table):
        """Record a table-level dependency without a column edge."""
        self.source_tables.add(table)
        self._bump()

    # ------------------------------------------------------------------
    # Views over the stored lineage
    # ------------------------------------------------------------------
    @property
    def contributing_columns(self):
        """The union of all per-column contribution sets (``C_con``)."""
        result = set()
        for sources in self.contributions.values():
            result |= sources
        return result

    @property
    def both_columns(self):
        """Columns in both ``C_con`` and ``C_ref`` (``C_both``)."""
        return self.contributing_columns & self.referenced

    @property
    def referenced_only_columns(self):
        """Columns referenced but not contributing to any output column."""
        return self.referenced - self.contributing_columns

    def column_names(self):
        """Qualified :class:`ColumnName` objects for this relation's outputs."""
        return [ColumnName.of(self.name, column) for column in self.output_columns]

    def edges(self):
        """Yield the :class:`ColumnEdge` set implied by this lineage.

        Contribution edges connect a source column to the specific output
        column it feeds.  Reference edges connect a referenced source column
        to *every* output column (a change in the referenced column can alter
        which rows appear, affecting all outputs).  When a pair has both
        kinds, a single edge of kind ``"both"`` is produced.  Edges come in
        sorted order and are derived once per version of the entry.
        """
        yield from self._record().edges

    def _derive_edges(self):
        edge_kinds = {}
        for column, sources in self.contributions.items():
            target = ColumnName.of(self.name, column)
            for source in sources:
                edge_kinds[(source, target)] = EDGE_CONTRIBUTE
        for source in self.referenced:
            for column in self.output_columns:
                target = ColumnName.of(self.name, column)
                key = (source, target)
                if key in edge_kinds:
                    edge_kinds[key] = EDGE_BOTH
                else:
                    edge_kinds[key] = EDGE_REFERENCE
        for (source, target), kind in sorted(edge_kinds.items()):
            yield ColumnEdge(source=source, target=target, kind=kind)

    def to_dict(self):
        """Serialise to plain data for JSON output."""
        return {
            "name": self.name,
            "is_base_table": self.is_base_table,
            "columns": list(self.output_columns),
            "tables": sorted(self.source_tables),
            "column_lineage": {
                column: sorted(str(source) for source in sources)
                for column, sources in self.contributions.items()
            },
            "referenced_columns": sorted(str(source) for source in self.referenced),
            "column_expressions": dict(self.expressions),
            "sql": self.sql,
        }

    # ------------------------------------------------------------------
    # Loss-free record round-trip (persistent lineage store)
    # ------------------------------------------------------------------
    def to_record(self):
        """Serialise to a versioned plain-data record.

        Unlike :meth:`to_dict` (a display shape that renders column names as
        dotted strings), the record keeps every :class:`ColumnName` as an
        explicit ``[table, column]`` pair and is guaranteed loss-free:
        ``TableLineage.from_record(t.to_record()) == t`` for any entry.
        The persistent lineage store serialises exactly this shape.
        """
        return {
            "record_version": LINEAGE_RECORD_VERSION,
            "name": self.name,
            "is_base_table": self.is_base_table,
            "sql": self.sql,
            "output_columns": list(self.output_columns),
            "contributions": {
                column: sorted(source.to_record() for source in sources)
                for column, sources in self.contributions.items()
            },
            "referenced": sorted(source.to_record() for source in self.referenced),
            "source_tables": sorted(self.source_tables),
            "expressions": dict(self.expressions),
        }

    @classmethod
    def from_record(cls, record):
        """Rebuild a :class:`TableLineage` from :meth:`to_record` output.

        Raises :class:`~repro.core.errors.LineageRecordError` when the
        record is malformed or its ``record_version`` does not match — the
        store treats either as a cold miss and re-extracts.
        """
        if not isinstance(record, dict):
            raise LineageRecordError(f"not a lineage record: {type(record).__name__}")
        version = record.get("record_version")
        if version != LINEAGE_RECORD_VERSION:
            raise LineageRecordError(
                f"unsupported lineage record version {version!r} "
                f"(expected {LINEAGE_RECORD_VERSION})"
            )
        try:
            entry = cls(
                name=record["name"],
                is_base_table=bool(record["is_base_table"]),
                sql=record["sql"],
            )
            if not isinstance(entry.name, str) or not isinstance(entry.sql, str):
                raise LineageRecordError("name and sql must be strings")
            entry.output_columns = [str(column) for column in record["output_columns"]]
            entry.contributions = {
                str(column): {ColumnName.from_record(source) for source in sources}
                for column, sources in record["contributions"].items()
            }
            entry.referenced = {
                ColumnName.from_record(source) for source in record["referenced"]
            }
            entry.source_tables = {str(table) for table in record["source_tables"]}
            entry.expressions = {
                str(column): str(text) for column, text in record["expressions"].items()
            }
        except LineageRecordError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise LineageRecordError(f"malformed lineage record: {error}") from None
        return entry


_NO_RECORD = EntryRecord((), (), False, 0)

#: positions in ``_GraphIndex.counts`` (what ``LineageGraph.stats`` reports)
_COUNT_KEYS = (
    "num_relations", "num_views", "num_base_tables", "num_view_columns",
    "num_base_columns", "num_column_edges", "num_contribute_edges",
    "num_reference_edges", "num_table_edges",
)


def _count(counts, record, sign):
    """Add (``sign=1``) or take away (``-1``) one record's relation, column
    and table-edge counts (its column edges are counted with its rows)."""
    if record is _NO_RECORD:
        return
    counts[0] += sign
    if record.is_base:
        counts[2] += sign
        counts[4] += sign * record.columns
    else:
        counts[1] += sign
        counts[3] += sign * record.columns
    counts[8] += sign * len(record.sources)


def _patch_rows(table, dropped, gained):
    """``table`` with the entries ``dropped`` (key -> [other]) taken out of
    their rows and ``gained`` (key -> {other: kind}) put in.  Touched rows
    are copies; every other row is shared, and so is ``table`` itself when
    nothing is touched."""
    if not dropped and not gained:
        return table
    if not table:
        return gained  # a build from empty: the new rows are the table
    table = table.copy()
    for key, others in dropped.items():
        row = dict(table[key])
        for other in others:
            row.pop(other, None)
        row.update(gained.pop(key, ()))
        if row:
            table[key] = row
        else:
            del table[key]
    for key, row in gained.items():
        old = table.get(key)
        table[key] = row if old is None else {**old, **row}
    return table


class _GraphIndex:
    """Adjacency structures derived from a :class:`LineageGraph`'s entries.

    Shared by every traversal consumer: ``edges()``, ``table_edges()``,
    ``neighbors()``, the impact analysis, the dependency-ordering reports
    and the reachability index.  An index is immutable once built.  The
    index of the next graph state is this one :meth:`patched` with the
    names the graph recorded as changed: only their rows are replaced, and
    every other row is shared with this index (copy-on-write).  A full
    build is the same patch applied to the empty index.
    """

    __slots__ = (
        "records",          # relation name -> EntryRecord, in relation order
        "position",         # relation name -> rank in relation order
        "forward",          # ColumnName -> {ColumnName: kind} (source -> targets)
        "reverse",          # ColumnName -> {ColumnName: kind} (target -> sources)
        "table_forward",    # table -> [downstream tables], in relation order
        "table_reverse",    # table -> [upstream tables], sorted
        "counts",           # tuple of the _COUNT_KEYS statistics
        "base_records",     # the ``records`` this index was patched from
        "changed",          # names whose record differs from base_records'
        "_next",            # the next free ``position``
        "_edges",           # list[ColumnEdge], built on first read
        "_table_edges",     # list[(source_table, target_table)], likewise
    )

    def __init__(self):
        self.records = {}
        self.position = {}
        self.forward = {}
        self.reverse = {}
        self.table_forward = {}
        self.table_reverse = {}
        self.counts = (0,) * len(_COUNT_KEYS)
        self.base_records = None
        self.changed = ()
        self._next = 0
        self._edges = None
        self._table_edges = None

    @property
    def edges(self):
        """Every column edge, entry by entry in relation order."""
        edges = self._edges
        if edges is None:
            edges = self._edges = [
                edge for record in self.records.values() for edge in record.edges
            ]
        return edges

    @property
    def table_edges(self):
        """Every ``(source_table, target_table)`` pair, in relation order."""
        pairs = self._table_edges
        if pairs is None:
            pairs = self._table_edges = [
                (source, name)
                for name, record in self.records.items()
                for source in record.sources
            ]
        return pairs

    def patched(self, relations, changes):
        """The index of ``relations``, derived from this one.

        ``changes`` maps every name added, replaced, removed or mutated
        since this index to ``True`` when it left ``relations`` and came
        back (it then sits at the end of the relation order), else
        ``False``; no other entry is looked at.  For the names whose record
        changed, the column rows their old and new edges touch and the
        table rows their old and new sources touch are copied and edited;
        all other rows are shared.  Readers in a table row follow relation
        order, so the rows of a name that moved are re-sorted too.
        """
        base = self.records
        records = base.copy()
        position = None
        changed = []
        moved = []
        next_position = self._next
        for name, came_back in changes.items():
            entry = relations.get(name)
            old = base.get(name)
            if entry is None:
                if old is not None:
                    del records[name]
                    changed.append(name)
                continue
            record = entry._record()
            if old is not None and not came_back:
                if record is not old:
                    records[name] = record
                    changed.append(name)
                continue
            if position is None:
                position = self.position.copy()
            if old is not None:
                del records[name]  # re-appended: it moved to the end
                moved.append(name)
            records[name] = record
            position[name] = next_position
            next_position += 1
            if record is not old:
                changed.append(name)

        counts = list(self.counts)
        dropped, gained = ({}, {}), ({}, {})  # (forward, reverse) row edits
        dirty_rows = set()
        readers_changed = {}  # name -> its new sources, in relation order
        for name in changed:
            old = base.get(name, _NO_RECORD)
            record = records.get(name, _NO_RECORD)
            _count(counts, old, -1)
            _count(counts, record, 1)
            if old.edges is not record.edges and old.edges != record.edges:
                counts[5] += len(record.edges) - len(old.edges)
                for edge in old.edges:
                    counts[6] -= edge.kind != EDGE_REFERENCE
                    counts[7] -= edge.kind != EDGE_CONTRIBUTE
                    dropped[0].setdefault(edge.source, []).append(edge.target)
                    dropped[1].setdefault(edge.target, []).append(edge.source)
                for edge in record.edges:
                    counts[6] += edge.kind != EDGE_REFERENCE
                    counts[7] += edge.kind != EDGE_CONTRIBUTE
                    gained[0].setdefault(edge.source, {})[edge.target] = edge.kind
                    gained[1].setdefault(edge.target, {})[edge.source] = edge.kind
            if old.sources != record.sources:
                readers_changed[name] = record.sources
                dirty_rows.update(old.sources)
                dirty_rows.update(record.sources)
        for name in moved:
            dirty_rows.update(records[name].sources)

        if position is None:
            position = self.position
        for name in changed:
            if name not in records:
                if position is self.position:
                    position = position.copy()
                del position[name]
        table_forward, table_reverse = self.table_forward, self.table_reverse
        if dirty_rows:
            table_forward, table_reverse = table_forward.copy(), table_reverse.copy()
            arriving = {}
            for name, sources in readers_changed.items():
                for source in sources:
                    arriving.setdefault(source, []).append(name)
                if sources:
                    table_reverse[name] = list(sources)
                else:
                    table_reverse.pop(name, None)
            for source in dirty_rows:
                row = [
                    reader for reader in self.table_forward.get(source, ())
                    if reader not in readers_changed
                ]
                row.extend(arriving.get(source, ()))
                if row:
                    row.sort(key=position.__getitem__)
                    table_forward[source] = row
                else:
                    table_forward.pop(source, None)

        index = _GraphIndex()
        index.records = records
        index.position = position
        index._next = next_position
        index.forward = _patch_rows(self.forward, dropped[0], gained[0])
        index.reverse = _patch_rows(self.reverse, dropped[1], gained[1])
        index.table_forward = table_forward
        index.table_reverse = table_reverse
        index.counts = tuple(counts)
        index.base_records = base
        index.changed = changed
        return index


#: the index of a graph with no entries: the base of every full build
_EMPTY_INDEX = _GraphIndex()


class _Family:
    """The live graphs derived from one another (see
    :meth:`LineageGraph.derive`); they share most of their entries.

    An entry subscribes to the family once, and a mutation of it reaches
    every member graph that holds it, however many graphs the entry has
    been spliced into.
    """

    __slots__ = ("graphs", "__weakref__")

    def __init__(self):
        self.graphs = weakref.WeakSet()

    def entry_changed(self, entry):
        for graph in list(self.graphs):
            if graph.relations.get(entry.name) is entry:
                graph._note(entry.name)


def _mark(changes, name, moved):
    """Record ``name`` in a change set; a moved name goes to its end."""
    if moved:
        changes.pop(name, None)
        changes[name] = True
    else:
        changes.setdefault(name, False)


class LineageGraph:
    """The combined lineage of a set of queries (one warehouse).

    Besides the per-relation lineage entries, the graph maintains a cached
    forward/reverse column adjacency index.  The index is built lazily on
    the first traversal and invalidated automatically on mutation — both
    structural mutation (:meth:`add`, :meth:`ensure_base_table`) and
    in-place mutation of an already-added :class:`TableLineage` (which
    notifies its graphs) — after which the next traversal patches it for
    the names the graph recorded as changed.  Hot-path consumers
    (``edges()``, ``neighbors()``, the impact analysis, dependency
    ordering) therefore never re-derive the edge set per call.

    An incremental refresh does not rebuild the graph: :meth:`derive`
    copies the relation map (one C-level dict copy) and the refresh
    replaces only the entries it changed, which the new graph records.
    """

    def __init__(self):
        self.relations = {}
        self._mutations = 0
        self._index = None
        self._index_token = None
        #: name -> moved flag for everything changed since ``_index`` (see
        #: :meth:`_GraphIndex.patched`); unused while there is no index
        self._pending = {}
        self._family = None
        self._reach = None
        self._reach_token = None

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _note(self, name, moved=False):
        """Record that the relation ``name`` changed (``moved``: it left the
        relation map and came back, to its end)."""
        if self._index is not None:
            _mark(self._pending, name, moved)
        self._mutations += 1

    def _state_token(self):
        """An O(1) fingerprint of the graph's mutable state.

        Structural mutations bump ``_mutations`` directly; in-place entry
        mutations arrive through the entries' observer notifications
        (:meth:`TableLineage._bump`), so the token is a single counter read
        instead of a per-traversal sweep over every entry's version.
        """
        return self._mutations

    def _ensure_index(self):
        token = self._state_token()
        if self._index is None or self._index_token != token:
            # a stale index is still a valid base: it is never edited in place
            if self._index is None:
                self._index = _EMPTY_INDEX.patched(
                    self.relations, dict.fromkeys(self.relations, False)
                )
            else:
                self._index = self._index.patched(self.relations, self._pending)
            self._index_token = token
            self._pending = {}
        return self._index

    def _family_of(self):
        family = self._family
        if family is None:
            family = self._family = _Family()
            family.graphs.add(self)
        return family

    def derive(self):
        """A new graph holding the same entries, to apply a delta to.

        The relation map is copied (C-level) and the entries are shared by
        reference, as is this graph's index; the new graph records every
        name changed from here on, so its index (and its snapshot's) is
        patched for those names only.
        """
        graph = LineageGraph.__new__(LineageGraph)
        graph.relations = self.relations.copy()
        graph._mutations = 0
        graph._index = self._index
        graph._index_token = 0
        graph._pending = self._pending.copy()
        if self._index is not None and self._index_token != self._mutations:
            graph._index_token = None  # stale here already: patch it on use
        graph._family = self._family_of()
        graph._family.graphs.add(graph)
        graph._reach = None
        graph._reach_token = None
        return graph

    def reachability(self, build=True):
        """The version-stamped :class:`~repro.analysis.reach.ReachabilityIndex`.

        With ``build=True`` (default) a current index is computed if the
        cached one is missing or stale — incrementally when the graph only
        grew since the last build (the common refresh shape), from scratch
        otherwise.  With ``build=False`` the call never does work: it
        returns the cached index when it matches the current state token
        and ``None`` otherwise, which is how consumers ask "is an index
        already paid for?" without triggering a build on a cold graph.
        """
        token = self._state_token()
        if self._reach is not None and self._reach_token == token:
            return self._reach
        if not build:
            return None
        from ..analysis.reach import ReachabilityIndex

        index = None
        if self._reach is not None:
            index = self._reach.refreshed(self)
        if index is None:
            index = ReachabilityIndex.build(self)
        self._reach = index
        self._reach_token = self._state_token()
        return index

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add(self, lineage):
        """Add (or replace) the lineage entry for one relation."""
        name = lineage.name
        moved = name not in self.relations and name in self._pending
        self.relations[name] = lineage
        lineage._subscribe(self._family_of())
        self._note(name, moved)
        return lineage

    def discard(self, name):
        """Remove the entry of relation ``name``, if any."""
        if self.relations.pop(name, None) is not None:
            self._note(name)

    def ensure_base_table(self, name, columns=()):
        """Ensure a base-table node exists, adding any newly seen columns."""
        entry = self.relations.get(name)
        if entry is None:
            entry = self.add(TableLineage(name=name, is_base_table=True))
        for column in columns:
            entry.add_output_column(column)
        return entry

    def register_usage(self, column_name):
        """Record that ``column_name`` of an (external) relation was used.

        Base tables are not defined by any query in the Query Dictionary, so
        their visible column set is accumulated from usage across queries —
        this is how the ``web`` node of Example 1 obtains its columns.  When
        the relation is already present as a *view* (defined by a query),
        that entry is returned unchanged: a view's column set comes from its
        defining query, never from usage.
        """
        entry = self.relations.get(column_name.table)
        if entry is not None and not entry.is_base_table:
            return entry
        entry = self.ensure_base_table(column_name.table)
        entry.add_output_column(column_name.column)
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name):
        return name in self.relations

    def __getitem__(self, name):
        return self.relations[name]

    def get(self, name, default=None):
        return self.relations.get(name, default)

    def __iter__(self):
        return iter(self.relations.values())

    def __len__(self):
        return len(self.relations)

    @property
    def views(self):
        """Relations defined by queries (non-base-table nodes)."""
        return [entry for entry in self.relations.values() if not entry.is_base_table]

    @property
    def base_tables(self):
        """Relations only ever used as sources (base-table nodes)."""
        return [entry for entry in self.relations.values() if entry.is_base_table]

    def columns_of(self, name):
        """Known output columns of a relation (empty list if unknown)."""
        entry = self.relations.get(name)
        if entry is None:
            return []
        return list(entry.output_columns)

    # ------------------------------------------------------------------
    # Edge / graph views (all backed by the cached adjacency index)
    # ------------------------------------------------------------------
    def edges(self):
        """Yield every column-level edge in the graph."""
        yield from self._ensure_index().edges

    def table_edges(self):
        """Yield table-level edges ``(source_table, target_table)``."""
        yield from self._ensure_index().table_edges

    def neighbors(self, column, direction="downstream"):
        """Adjacent columns of ``column`` with their edge kinds.

        Returns a sorted list of ``(ColumnName, kind)`` pairs: the columns
        directly fed by ``column`` (``direction="downstream"``) or directly
        feeding it (``direction="upstream"``).  A column with no edges in
        the requested direction — or absent from the graph — yields ``[]``.
        """
        adjacency = self.column_adjacency(direction)
        if not isinstance(column, ColumnName):
            column = ColumnName.parse(column)
        return sorted((adjacency.get(column) or {}).items())

    def column_adjacency(self, direction="downstream"):
        """The raw cached adjacency mapping for ``direction``.

        ``{ColumnName: {ColumnName: kind}}`` — the traversal substrate used
        by :mod:`repro.analysis.impact`.  Treat as read-only: it is a shared
        cache, and its rows are shared with other versions of the graph.
        """
        index = self._ensure_index()
        if direction == "downstream":
            return index.forward
        if direction == "upstream":
            return index.reverse
        raise ValueError(
            f"direction must be 'downstream' or 'upstream', got {direction!r}"
        )

    def table_successors(self):
        """Cached ``{table: [downstream tables]}`` adjacency (read-only)."""
        return self._ensure_index().table_forward

    def table_predecessors(self):
        """Cached ``{table: [upstream tables]}`` adjacency (read-only)."""
        return self._ensure_index().table_reverse

    def contribution_edges(self):
        """Only the edges whose kind is ``contribute`` or ``both``."""
        for edge in self.edges():
            if edge.kind in (EDGE_CONTRIBUTE, EDGE_BOTH):
                yield edge

    def reference_edges(self):
        """Only the edges whose kind is ``reference`` or ``both``."""
        for edge in self.edges():
            if edge.kind in (EDGE_REFERENCE, EDGE_BOTH):
                yield edge

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self):
        """Serialise the whole graph to plain data (JSON document shape)."""
        return {
            "relations": {
                name: entry.to_dict() for name, entry in sorted(self.relations.items())
            },
            "table_edges": [list(edge) for edge in sorted(self.table_edges())],
            "column_edges": [
                {
                    "source": str(edge.source),
                    "target": str(edge.target),
                    "kind": edge.kind,
                }
                for edge in sorted(self.edges())
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a :class:`LineageGraph` from :meth:`to_dict` output."""
        graph = cls()
        for name, payload in data.get("relations", {}).items():
            entry = TableLineage(
                name=name,
                is_base_table=payload.get("is_base_table", False),
                sql=payload.get("sql", ""),
            )
            for column in payload.get("columns", []):
                entry.add_output_column(column)
            for column, sources in payload.get("column_lineage", {}).items():
                for source in sources:
                    entry.add_contribution(column, ColumnName.parse(source))
            for source in payload.get("referenced_columns", []):
                entry.add_reference(ColumnName.parse(source))
            for table in payload.get("tables", []):
                entry.add_source_table(table)
            entry.expressions = dict(payload.get("column_expressions", {}))
            graph.add(entry)
        return graph

    def subgraph(self, tables):
        """Restrict the graph to ``tables`` and the edges among them.

        Used to zoom the visualization onto a region of interest (the
        "explore" workflow): relations outside the set are dropped, and
        lineage entries are filtered to sources inside the set.
        """
        wanted = {str(name) for name in tables}
        restricted = LineageGraph()
        for name, entry in self.relations.items():
            if name not in wanted:
                continue
            clone = TableLineage(
                name=entry.name,
                is_base_table=entry.is_base_table,
                sql=entry.sql,
                expressions=dict(entry.expressions),
            )
            for column in entry.output_columns:
                clone.add_output_column(column)
                for source in entry.contributions.get(column, set()):
                    if source.table in wanted:
                        clone.add_contribution(column, source)
            for source in entry.referenced:
                if source.table in wanted:
                    clone.add_reference(source)
            clone.source_tables = {t for t in entry.source_tables if t in wanted}
            restricted.add(clone)
        return restricted

    def stats(self):
        """Summary statistics used by the benchmarks and the README.

        The counts live in the adjacency index, which keeps them up to date
        as it is patched, so this is O(1) once the index exists.
        """
        return dict(zip(_COUNT_KEYS, self._ensure_index().counts))

    # ------------------------------------------------------------------
    # Freezing (lock-free concurrent readers)
    # ------------------------------------------------------------------
    def freeze(self, reach_seed=None):
        """An immutable point-in-time view of this graph.

        The returned :class:`FrozenLineageGraph` supports every read
        operation of a live graph but rejects mutation, and its adjacency
        *and* reachability indexes are built eagerly here — concurrent
        readers therefore never trigger (or race) a lazy rebuild, which is
        what makes a published snapshot safe to traverse from many threads
        without any locking.  ``reach_seed`` may pass the previous
        generation's :class:`~repro.analysis.reach.ReachabilityIndex`:
        the adjacency index is then patched from the one the seed labels,
        re-deriving only the entries this graph does not share with that
        generation, and when this graph is an append-only successor (the
        serving daemon's batch-ingest steady state) the reachability index
        is patched from the seed as well instead of rebuilt.
        """
        return FrozenLineageGraph(self, reach_seed=reach_seed)


class FrozenGraphError(TypeError):
    """A mutation was attempted on a frozen lineage graph."""


class FrozenLineageGraph(LineageGraph):
    """A read-only point-in-time view over a :class:`LineageGraph`.

    Construction copies the relation *mapping* (not the entries: the
    engine's no-in-place-mutation discipline — every run assembles a fresh
    graph and every incremental refresh derives a new one, sharing
    unmodified entries by reference — makes sharing :class:`TableLineage`
    objects safe) and builds the adjacency index eagerly.  The index is
    pinned: a frozen view joins no graph family, so mutations of shared
    entries never reach it, and every traversal a reader starts completes
    against the exact edge set that existed when the snapshot was taken.

    All mutating methods raise :class:`FrozenGraphError`.  Derived views
    (:meth:`LineageGraph.subgraph`) return ordinary mutable graphs.
    """

    def __init__(self, graph, reach_seed=None):
        from ..analysis.reach import ReachabilityIndex

        self.relations = graph.relations.copy()
        self._mutations = 0
        # the source graph's index, patched for what changed since it was
        # built (a derived graph starts from its parent's, which the
        # previous snapshot's freeze built); both index classes are
        # replaced wholesale on mutation, never edited in place, so sharing
        # the objects is safe
        token = graph._state_token()
        self._index = graph._ensure_index()
        self._index_token = 0
        reach = None
        if graph._reach is not None and graph._reach_token == token:
            reach = graph._reach
        if reach is None and reach_seed is not None:
            reach = reach_seed.refreshed(self)
        if reach is None:
            reach = ReachabilityIndex.build(self)
        self._reach = reach
        self._reach_token = 0

    # reads bypass the token dance entirely: the index is pinned
    def _ensure_index(self):
        return self._index

    def reachability(self, build=True):
        return self._reach

    def freeze(self):
        return self

    def derive(self):
        raise FrozenGraphError(
            "cannot derive from a frozen lineage graph (snapshot view)"
        )

    def add(self, lineage):
        raise FrozenGraphError(
            "cannot add to a frozen lineage graph (snapshot view)"
        )

    def discard(self, name):
        raise FrozenGraphError(
            "cannot remove from a frozen lineage graph (snapshot view)"
        )

    def ensure_base_table(self, name, columns=()):
        raise FrozenGraphError(
            "cannot add base tables to a frozen lineage graph (snapshot view)"
        )

    def register_usage(self, column_name):
        raise FrozenGraphError(
            "cannot register usage on a frozen lineage graph (snapshot view)"
        )
