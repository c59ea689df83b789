"""The relation dependency DAG — a cheap pre-pass over parsed statements.

The Table/View Auto-Inference stack (Section III of the paper) discovers
dependencies *reactively*: it starts extracting a query, hits an unknown
relation, and defers.  For whole-warehouse extraction the dependency
structure is static and can be read directly off the parsed statements: the
relations a query reads are exactly the ``FROM`` / ``JOIN`` / set-operation
sources appearing anywhere in its AST (minus the CTE names it defines
itself).

:class:`DependencyDAG` materialises that structure once, in a pass that is
orders of magnitude cheaper than full extraction.  It backs two features:

* the scheduler's *plan-first* mode — topologically sort the Query
  Dictionary into :meth:`waves` and extract in dependency order, so the
  deferral stack is only ever needed for references the pre-pass cannot see;
* incremental re-extraction — ``readers`` names who must look again when a
  relation's column list changes, and :meth:`transitive_dependents` is the
  eager dirty set of the stack-less ablation.

An incremental run patches the previous DAG instead of rebuilding it
(:meth:`DependencyDAG.from_query_dictionary` with ``previous``): the rows
of the changed entries are replaced copy-on-write, and only the nodes
downstream of a changed dependency row get a new :attr:`level`, so the
patch costs what the delta touches; :meth:`waves` is derived from the
levels only when asked for.

The pre-pass deliberately over-approximates (it collects every table
reference under a statement, including those inside subqueries); an
over-approximation can only make the plan more conservative, never wrong,
and any reference it *misses* is still recovered by the stack fallback.
"""

from ..sqlparser import ast
from ..sqlparser.dialect import normalize_name

#: node classes that can never contain a TableRef below them — the
#: reference walk skips their child enumeration outright.
_ATOMIC_NODES = frozenset(
    (
        ast.ColumnRef,
        ast.Star,
        ast.Literal,
        ast.Parameter,
        ast.QualifiedName,
        ast.ColumnDef,
        ast.WindowFrame,
    )
)


def _scoped_table_refs(node, active_ctes, referenced):
    """Collect table references, resolving CTE names *lexically*.

    A CTE name only shadows table references within the query expression
    that defines it (and nested subqueries) — exactly the scoping the
    extractor applies.  Stripping CTE names globally would hide a genuine
    dependency whenever a subquery-local CTE shares its name with a real
    relation, which is merely conservative for scheduling (the stack
    fallback recovers) but unsound for incremental invalidation.

    The common CTE-free path runs on an explicit stack — this pre-pass
    walks every statement once per cold preprocess, and recursive generator
    descent was a measurable slice of it.  Scope sets are shared between
    siblings (they are only replaced, never mutated, when a CTE list forks
    a new scope), and ``referenced`` is an unordered set, so traversal
    order does not matter.
    """
    stack = [(node, active_ctes)]
    atomic = _ATOMIC_NODES
    while stack:
        node, scope = stack.pop()
        if node is None:
            continue
        cls = type(node)
        if cls in atomic:
            continue
        if cls is ast.TableRef:
            name = normalize_name(node.name.dotted())
            if name not in scope:
                referenced.add(name)
            continue
        if (cls is ast.Select or cls is ast.SetOperation) and node.ctes:
            forked = set(scope)
            for cte in node.ctes:
                # a CTE body sees the preceding CTEs and (if recursive) itself
                stack.append((cte.query, forked | {normalize_name(cte.name)}))
                forked = forked | {normalize_name(cte.name)}
            # walk the remaining children through Node.children() — it
            # knows about tuple-valued fields (e.g. named WINDOW clauses)
            # — skipping the CTE nodes handled above
            cte_ids = {id(cte) for cte in node.ctes}
            for child in node.children():
                if id(child) not in cte_ids:
                    stack.append((child, forked))
            continue
        for child in node.children():
            stack.append((child, scope))


def statement_table_refs(statement):
    """Every relation name referenced anywhere under ``statement``.

    CTE names are resolved lexically (matching the extractor) and excluded;
    the statement's own target relation is *not* excluded — callers that
    need dependencies subtract it (see
    :meth:`repro.core.preprocess.ParsedQuery.dependencies`).

    Statements whose lineage rewrite *binds* the written relation — UPDATE,
    DELETE, MERGE, and upserting INSERTs (``ON CONFLICT``) — include that
    target here even though it appears only as a bare name in the AST: the
    extraction resolves columns against it, so schema snapshots (the
    early-cutoff key) and store cache keys must see it.  ``dependencies()`` subtracts
    the entry's own identifier, so this never creates a self-dependency.
    """
    referenced = set()
    _scoped_table_refs(statement, frozenset(), referenced)
    target = _written_target(statement)
    if target is not None:
        referenced.add(target)
    return referenced


def _written_target(statement):
    """The written relation a statement's lineage rewrite binds, if any."""
    cls = type(statement)
    if cls is ast.UpdateStatement or cls is ast.DeleteStatement:
        return normalize_name(statement.table.dotted())
    if cls is ast.MergeStatement:
        return normalize_name(statement.target.dotted())
    if cls is ast.InsertStatement and statement.on_conflict is not None:
        return normalize_name(statement.table.dotted())
    return None


def statement_dependencies(entry):
    """Relations read by one Query Dictionary entry (CTE names excluded).

    Returns a set of normalised relation names referenced anywhere under the
    entry's statement, minus the names of CTEs in scope at the reference
    (lexical scoping, matching the extractor) and minus the entry's own
    identifier (a query reading the relation it writes — ``UPDATE ... FROM``,
    self-referencing ``INSERT`` — is not a dependency on another entry).
    The reference set is cached on the entry (and replayed from the parse
    cache for warm starts), so repeated DAG builds never re-walk the AST.
    """
    return set(entry.dependencies())


class DependencyDAG:
    """Dependency structure of a Query Dictionary.

    ``dependencies`` maps an identifier to the *internal* relations it reads
    (other Query Dictionary entries); ``readers`` maps every referenced
    relation name — internal or external base table — to the identifiers
    that read it.  The latter powers incremental invalidation: dependents of
    a *removed* relation still need re-extraction even though the relation
    is no longer a node.  ``level`` is each node's wave: 0 without internal
    dependencies, else one more than the deepest relation it reads; nodes on
    or downstream of a dependency cycle have none.  Ordering entries by
    ``(level, Query Dictionary position)`` is the order of :meth:`waves`.
    """

    def __init__(self):
        self.nodes = []            # QD identifiers, insertion order
        self.dependencies = {}     # identifier -> set of internal identifiers read
        self.dependents = {}       # identifier -> set of internal identifiers reading it
        self.readers = {}          # any relation name -> set of identifiers reading it
        self.references = {}       # identifier -> every relation name it reads
        self.level = {}            # identifier -> wave index (absent: cyclic)
        self._waves_cache = None   # memoized waves() result (the DAG is
                                   # immutable once built)

    # ------------------------------------------------------------------
    @classmethod
    def from_query_dictionary(cls, query_dictionary, previous=None, changed=()):
        """Build the DAG with one cheap AST walk per entry.

        With ``previous`` — the DAG of an earlier version of the dictionary
        — only the identifiers in ``changed`` (added, replaced or removed
        since) are walked: the result is ``previous`` with their rows, and
        the rows of the relations they read, replaced copy-on-write; every
        other row is shared, and only the levels of nodes downstream of a
        changed dependency row are recomputed.  DAGs are never edited once
        built, which is what makes the sharing sound.
        """
        if previous is not None:
            return previous._patched(query_dictionary, changed)
        dag = cls()
        dag.nodes = list(query_dictionary.entries)
        node_set = set(dag.nodes)
        for identifier in dag.nodes:
            dag.dependencies[identifier] = set()
            dag.dependents[identifier] = set()
        for identifier, entry in query_dictionary.items():
            referenced = statement_dependencies(entry)
            dag.references[identifier] = set(referenced)
            for name in referenced:
                dag.readers.setdefault(name, set()).add(identifier)
                if name in node_set:
                    dag.dependencies[identifier].add(name)
                    dag.dependents[name].add(identifier)
        dag.level = dag._levels()
        return dag

    def _patched(self, query_dictionary, changed):
        """This DAG re-read for the ``changed`` identifiers (see
        :meth:`from_query_dictionary`)."""
        entries = query_dictionary.entries
        dag = DependencyDAG()
        dag.nodes = list(entries)
        dag.references = references = self.references.copy()
        dag.readers = readers = self.readers.copy()
        dag.dependencies = dependencies = self.dependencies.copy()
        dag.dependents = dependents = self.dependents.copy()
        copied = set()  # reader rows this patch already copied

        def reader_row(name):
            if name not in copied:
                copied.add(name)
                readers[name] = set(readers.get(name, ()))
            return readers[name]

        # nodes whose dependency row, and relations whose dependent row,
        # may differ: the changed identifiers, and everything reading a
        # relation that became (or stopped being) a node
        stale_dependencies = set()
        stale_dependents = set()
        removed = []
        for identifier in changed:
            entry = entries.get(identifier)
            old = self.references.get(identifier, ())
            new = statement_dependencies(entry) if entry is not None else set()
            for name in old:
                if name not in new:
                    reader_row(name).discard(identifier)
            for name in new:
                if name not in old:
                    reader_row(name).add(identifier)
            stale_dependents.update(old)
            stale_dependents.update(new)
            was_node = identifier in self.dependencies
            if entry is None:
                references.pop(identifier, None)
                dependencies.pop(identifier, None)
                dependents.pop(identifier, None)
                if was_node:
                    removed.append(identifier)
            else:
                references[identifier] = new
                stale_dependencies.add(identifier)
                stale_dependents.add(identifier)
            if was_node != (entry is not None):
                stale_dependencies.update(readers.get(identifier, ()))
        for name in copied:
            if not readers[name]:
                del readers[name]
        moved = []  # nodes whose set of internal dependencies changed
        for identifier in stale_dependencies:
            if identifier in entries:
                row = {name for name in references[identifier] if name in entries}
                if row != self.dependencies.get(identifier):
                    moved.append(identifier)
                dependencies[identifier] = row
        for name in stale_dependents:
            if name in entries:
                dependents[name] = set(readers.get(name, ()))
        dag.level = self._relevelled(dag, moved, removed)
        return dag

    def _relevelled(self, dag, moved, removed):
        """``dag``'s levels, from this DAG's and the ``moved`` nodes.

        Only the moved nodes and what lies downstream of them can change
        level; they are re-layered by Kahn's algorithm over that region.
        A region that holds a cyclic node, reads one, or closes a new cycle
        touches a cycle, and the levels are then recomputed from scratch.
        """
        level = self.level
        if not moved and not removed:
            return level
        level = level.copy()
        for identifier in removed:
            level.pop(identifier, None)
        region = set()
        frontier = list(moved)
        while frontier:
            identifier = frontier.pop()
            if identifier in region:
                continue
            if identifier in self.dependencies and identifier not in level:
                return dag._levels()  # a node on or below a cycle
            region.add(identifier)
            frontier.extend(dag.dependents[identifier])
        indegree = {}
        ready = []
        for identifier in region:
            count = 0
            for name in dag.dependencies[identifier]:
                if name in region:
                    count += 1
                elif name not in level:
                    return dag._levels()  # reads a cyclic node
            indegree[identifier] = count
            if not count:
                ready.append(identifier)
        done = 0
        while ready:
            identifier = ready.pop()
            done += 1
            level[identifier] = 1 + max(
                (level[name] for name in dag.dependencies[identifier]), default=-1
            )
            for dependent in dag.dependents[identifier]:
                if dependent in indegree:
                    indegree[dependent] -= 1
                    if not indegree[dependent]:
                        ready.append(dependent)
        if done < len(region):
            return dag._levels()  # the change closed a cycle
        return level

    def _levels(self):
        """Every node's level, by Kahn's algorithm by level."""
        indegree = {
            identifier: len(dependencies)
            for identifier, dependencies in self.dependencies.items()
        }
        current = [identifier for identifier in self.nodes if not indegree[identifier]]
        level = {}
        depth = 0
        while current:
            ready = []
            for identifier in current:
                level[identifier] = depth
                for dependent in self.dependents[identifier]:
                    indegree[dependent] -= 1
                    if indegree[dependent] == 0:
                        ready.append(dependent)
            current = ready
            depth += 1
        return level

    # ------------------------------------------------------------------
    def waves(self):
        """Layer the DAG into dependency waves (Kahn's algorithm by level).

        Returns ``(waves, deferred)``: ``waves`` is a list of lists of
        identifiers — every entry in wave *k* depends only on entries in
        waves ``< k``, so entries within one wave are mutually independent;
        ``deferred`` holds the identifiers that could not be scheduled
        because they sit on (or downstream of) a dependency cycle.  Both are
        deterministic: Query Dictionary insertion order breaks all ties.

        Wave *k* holds the nodes of :attr:`level` *k*.  The layering is
        computed once and memoized (the DAG never changes after
        :meth:`from_query_dictionary`); callers get fresh outer lists, so
        mutating a returned plan cannot corrupt the memo.
        """
        if self._waves_cache is None:
            level = self.level
            waves = [[] for _ in range(1 + max(level.values(), default=-1))]
            deferred = []
            for identifier in self.nodes:
                depth = level.get(identifier)
                if depth is None:
                    deferred.append(identifier)
                else:
                    waves[depth].append(identifier)
            self._waves_cache = (waves, deferred)
        waves, deferred = self._waves_cache
        return [list(wave) for wave in waves], list(deferred)

    def topological_order(self):
        """A flat topological order (waves concatenated, cyclic leftovers last)."""
        waves, deferred = self.waves()
        order = [identifier for wave in waves for identifier in wave]
        order.extend(deferred)
        return order

    # ------------------------------------------------------------------
    def cycle(self, identifier):
        """The other nodes on a dependency cycle through ``identifier``
        (the rest of its strongly connected component); empty when it lies
        on none.  Every node on a cycle has no :attr:`level`, so the walk
        never leaves the level-less nodes."""
        level = self.level

        def reached(edges):
            seen = {identifier}
            frontier = [identifier]
            while frontier:
                for name in edges.get(frontier.pop(), ()):
                    if name not in seen and name not in level:
                        seen.add(name)
                        frontier.append(name)
            return seen

        members = reached(self.dependencies) & reached(self.dependents)
        members.discard(identifier)
        return members

    def transitive_dependents(self, names):
        """Every entry that transitively reads any relation in ``names``.

        ``names`` may include external relations or identifiers no longer
        present (removed entries): the first hop goes through ``readers``,
        which records every observed reference.  The result never contains
        members of ``names`` unless they also read another member.
        """
        result = set()
        frontier = list(names)
        while frontier:
            name = frontier.pop()
            for reader in self.readers.get(name, ()):
                if reader not in result:
                    result.add(reader)
                    frontier.append(reader)
        return result

    # ------------------------------------------------------------------
    def stats(self):
        """Summary counters (used by the CLI and the benchmarks)."""
        waves, deferred = self.waves()
        return {
            "num_nodes": len(self.nodes),
            "num_edges": sum(len(deps) for deps in self.dependencies.values()),
            "num_waves": len(waves),
            "max_wave_width": max((len(wave) for wave in waves), default=0),
            "num_cyclic": len(deferred),
        }

    def to_dict(self):
        """Plain-data form: ``{identifier: sorted dependencies}``."""
        return {
            identifier: sorted(self.dependencies[identifier])
            for identifier in self.nodes
        }
