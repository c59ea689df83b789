"""Precomputed reachability index over the column lineage graph.

The interactive workflows of Section IV — impact analysis from a column,
dependency ordering, explore — are all transitive-closure questions.  The
kind-tracking BFS in :mod:`repro.analysis.impact` answers them in
O(traversal): every query walks every edge it can reach, which on the
100k-statement tier means a single ``/impact`` call touches hundreds of
thousands of edges while the serving daemon holds that work on its read
path.

:class:`ReachabilityIndex` precomputes, once per graph version, enough
structure to answer the same queries in O(answer size):

* **SCC condensation** (iterative Tarjan, cycle- and self-read-safe): the
  column graph collapses to a DAG of strongly connected components.
* **Interval-labelled spanning forests**, one per direction.  A DFS over
  the condensation assigns each component a contiguous preorder interval
  ``[pre, post)`` covering exactly its tree descendants, so the bulk of a
  closure is read off as a slice of the preorder array; the non-tree
  condensation edges become per-component *exception lists* followed at
  query time.  Memory stays O(V + E) — sub-quadratic by construction.
* **Kind purity classes** per node and direction, so the
  contributed/referenced/both partition of an answer is resolved without
  re-walking paths: a reached node whose in-edges are all one kind is
  classified by a table lookup, and only genuinely mixed nodes pay a
  short in-edge scan (matching the BFS semantics exactly: a reached
  node's kinds are the kinds of its in-edges from reached predecessors).
* **Position-domain arrays** per direction (numpy), so the query-time
  forest walk claims a whole subtree with one slice assignment and
  classifies an answer with a few mask-gathers.
* **Table-level orders** (the exact Kahn order of
  :mod:`repro.analysis.ordering`, cached) so ``/ordering`` readers answer
  from the snapshot without re-traversing.

Indexes are immutable once built; a graph swaps in a fresh instance when
its state token moves.  :meth:`ReachabilityIndex.refreshed` patches the
append-only case (new relations reading existing ones — the serving
daemon's steady state) from the rows of the entries the graph's
adjacency index reports as changed: new nodes get their own appended
forest and old→new edges become exception entries, leaving the existing
labelling untouched.  Anything else falls back to a full build.
"""

import numpy as _np

from ..core.lineage import EDGE_BOTH, EDGE_CONTRIBUTE, EDGE_REFERENCE
from ..core.errors import CyclicDependencyError

_DOWN = "downstream"
_UP = "upstream"

#: kind bitmasks used by the partition walk
_KIND_BITS = {EDGE_CONTRIBUTE: 1, EDGE_REFERENCE: 2, EDGE_BOTH: 3}

#: bound on memoised (start, direction) partitions per index instance
_RESULT_CACHE_LIMIT = 4096


class NameSet:
    """An immutable set of column names materialised as a plain list.

    Building a real ``frozenset`` hashes every element through a
    Python-level ``__hash__`` — on a 100k-tier impact answer that costs
    more than computing the answer itself.  The serving and rendering
    paths only *iterate* and *count*, so the index hands out this view:
    length, iteration, and truthiness are O(1)/O(n) with no hashing, and
    the first operation that genuinely needs hash-set semantics
    (membership, set algebra, comparison) materialises a ``frozenset``
    once and caches it.  The wrapped list is duplicate-free by
    construction and must never be mutated.
    """

    __slots__ = ("_names", "_frozen")

    def __init__(self, names):
        self._names = names
        self._frozen = None

    def _materialise(self):
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = frozenset(self._names)
        return frozen

    @staticmethod
    def _coerce(other):
        if isinstance(other, NameSet):
            return other._materialise()
        if isinstance(other, (set, frozenset)):
            return other
        return None

    def __len__(self):
        return len(self._names)

    def __iter__(self):
        return iter(self._names)

    def __contains__(self, item):
        return item in self._materialise()

    def __hash__(self):
        return hash(self._materialise())

    def __repr__(self):
        return f"NameSet({self._materialise()!r})"

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() == coerced

    def __lt__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() < coerced

    def __le__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() <= coerced

    def __gt__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() > coerced

    def __ge__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() >= coerced

    def __or__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() | coerced

    __ror__ = __or__

    def __and__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() & coerced

    __rand__ = __and__

    def __sub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() - coerced

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced - self._materialise()

    def __xor__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._materialise() ^ coerced

    __rxor__ = __xor__


class _Vectors:
    """One direction's position-domain arrays for the forest walk."""

    __slots__ = (
        "ones",          # \x01 template for claiming slices of the seen map
        "post_ints",     # position -> end of descendant slice (plain list)
        "indptr_ints",   # position -> exception CSR offset (plain list)
        "exc_data",      # exception target positions, CSR data (int64)
        "exc_ints",      # the same data as a plain list (small batches)
        "cls_pos",       # position -> singleton purity class, -1 multi (int8)
        "names_pos",     # position -> singleton member's name or None
        "sole_pos",      # position -> singleton member's node id or -1
        "names_np",      # node id -> column name (object)
        "mixed_ptr",     # node id -> row in the mixed CSRs, or -1 (int64)
        "mixed_rows",    # number of mixed-purity nodes
        "mb_indptr", "mb_data",   # in-edge sources of kind "both"
        "mc_indptr", "mc_data",   # ... of kind "contribute"
        "mr_indptr", "mr_data",   # ... of kind "reference"
        "mixed_indptr_ints",      # the three indptrs as plain lists
        "mixed_data_ints",        # the three data rows as plain lists
    )


class _Forest:
    """One direction's interval-labelled spanning forest over components."""

    __slots__ = ("pre", "post", "order", "exceptions")

    def __init__(self, pre, post, order, exceptions):
        self.pre = pre                  # comp id -> preorder position
        self.post = post                # comp id -> end of descendant slice
        self.order = order              # preorder position -> comp id
        self.exceptions = exceptions    # comp id -> tuple of comp ids

    def exception_count(self):
        return sum(len(entry) for entry in self.exceptions)


def _tarjan(n, out):
    """Iterative Tarjan SCC over ``out`` (int adjacency lists).

    Returns ``(comp_of, members)``: component id per node and a list of
    member tuples (node ids).  Deterministic for a fixed adjacency.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack = []
    comp_of = [-1] * n
    members = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            adjacency = out[v]
            for i in range(edge_pos, len(adjacency)):
                w = adjacency[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and low[w] < low[v]:
                    low[v] = low[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                group = []
                comp = len(members)
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_of[w] = comp
                    group.append(w)
                    if w == v:
                        break
                members.append(tuple(group))
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return comp_of, members


def _comp_targets(comp, members, comp_of, out):
    """Deduplicated condensation successors of ``comp`` (deterministic)."""
    seen = {comp}
    result = []
    for v in members[comp]:
        for w in out[v]:
            d = comp_of[w]
            if d not in seen:
                seen.add(d)
                result.append(d)
    return result


def _grow_forest(pre, post, order, exceptions, roots, members, comp_of, out,
                 appendable):
    """DFS ``roots``, assigning intervals; edges leaving ``appendable`` or
    hitting visited components become exceptions.  Mutates the arrays in
    place (callers pass fresh copies for copy-on-write refreshes)."""
    visited = set()
    touched = []
    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        pre[root] = len(order)
        order.append(root)
        stack = [(root, iter(_comp_targets(root, members, comp_of, out)))]
        extra = {}
        while stack:
            comp, targets = stack[-1]
            descended = False
            for d in targets:
                if d in visited or d not in appendable:
                    extra.setdefault(comp, []).append(d)
                    continue
                visited.add(d)
                pre[d] = len(order)
                order.append(d)
                stack.append((d, iter(_comp_targets(d, members, comp_of, out))))
                descended = True
                break
            if descended:
                continue
            post[comp] = len(order)
            stack.pop()
        for comp, targets in extra.items():
            touched.append(comp)
            existing = exceptions[comp]
            if existing:
                merged = list(existing)
                known = set(existing)
                merged.extend(d for d in targets if d not in known)
                exceptions[comp] = tuple(merged)
            else:
                exceptions[comp] = tuple(targets)
    # an exception into the component's own descendant slice is redundant:
    # the interval already covers the target, and the closure walk scans
    # every slice member's exceptions anyway.  Dropping them turns DAG
    # forward/cross edges into free riders and keeps exception lists to
    # the edges that genuinely escape the spanning tree.  Only the lists
    # this growth extended can hold new redundancies: a refresh appends
    # components after every existing interval, so older lists stay pruned.
    for comp in touched:
        extra = exceptions[comp]
        lo, hi = pre[comp], post[comp]
        kept = tuple(d for d in extra if not lo <= pre[d] < hi)
        if len(kept) != len(extra):
            exceptions[comp] = kept


def _kind_class(kinds):
    """Purity class of an in-edge kind collection: 1/2/3 pure, 0 mixed."""
    first = None
    for kind in kinds:
        if first is None:
            first = kind
        elif kind != first:
            return 0
    if first is None:
        return 0
    return _KIND_BITS[first]


class ReachabilityIndex:
    """Immutable per-version reachability labels for one lineage graph."""

    __slots__ = (
        "revision",
        "_graph_index",
        "_forward", "_reverse",
        "_names", "_ids",
        "_comp_of", "_members", "_cyclic",
        "_forests",
        "_pure",
        "_vector",
        "_cache",
        "_table_cache",
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph):
        """Full build from ``graph``'s cached adjacency index."""
        index = graph._ensure_index()
        self = cls.__new__(cls)
        self.revision = 0
        self._graph_index = index
        self._table_cache = {}
        forward, reverse = index.forward, index.reverse
        self._forward = forward
        self._reverse = reverse

        ids = {}
        names = []
        for node in forward:
            if node not in ids:
                ids[node] = len(names)
                names.append(node)
        for node in reverse:
            if node not in ids:
                ids[node] = len(names)
                names.append(node)
        self._names = names
        self._ids = ids
        n = len(names)

        out = [()] * n
        inn = [()] * n
        self_loops = set()
        for node, targets in forward.items():
            v = ids[node]
            row = [ids[t] for t in targets]
            out[v] = row
            if v in row:
                self_loops.add(v)
        for node, sources in reverse.items():
            inn[ids[node]] = [ids[s] for s in sources]

        comp_of, members = _tarjan(n, out)
        self._comp_of = comp_of
        self._members = members
        self._cyclic = [
            len(group) > 1 or group[0] in self_loops for group in members
        ]

        comp_count = len(members)
        everything = range(comp_count)
        # Tarjan completes components in reverse topological order of the
        # forward graph; seeding each forest's DFS in that direction's
        # topological order grows maximal trees (a deep chain becomes one
        # slice, not a ladder of single-component exceptions)
        roots_by_direction = {
            _DOWN: range(comp_count - 1, -1, -1),
            _UP: everything,
        }
        forests = {}
        for direction, adjacency in ((_DOWN, out), (_UP, inn)):
            pre = [0] * comp_count
            post = [0] * comp_count
            order = []
            exceptions = [()] * comp_count
            _grow_forest(pre, post, order, exceptions,
                         roots_by_direction[direction],
                         members, comp_of, adjacency, everything)
            forests[direction] = _Forest(pre, post, order, exceptions)
        self._forests = forests

        self._pure = {
            _DOWN: self._purity(reverse, ids, n),
            _UP: self._purity(forward, ids, n),
        }
        self._cache = {}
        self._vector = {}
        # eager: a frozen snapshot's first /impact reader must not pay
        # the position-array derivation inside its own latency
        self._vectors(_DOWN)
        self._vectors(_UP)
        return self

    @staticmethod
    def _purity(in_adjacency, ids, n):
        pure = [0] * n
        for node, sources in in_adjacency.items():
            pure[ids[node]] = _kind_class(sources.values())
        return pure

    # ------------------------------------------------------------------
    # Incremental refresh (append-only fast path)
    # ------------------------------------------------------------------
    def refreshed(self, graph):
        """A new index for ``graph`` reusing this one's labelling, or ``None``.

        Applicable exactly when the graph grew append-only relative to the
        graph this index was built from: every old node kept its edges and
        kinds, gained edges (if any) point at brand-new nodes, and new
        nodes only point at new nodes.  That is the steady state of the
        serving daemon (each batch adds views reading existing relations).
        Only the rows of the entries that changed are compared: the graph's
        adjacency index names them when it was patched from the one this
        index labels, and its rows are shared copy-on-write, so no other
        row can differ.  The check and the new labels cost O(delta); the
        existing labelling is copied, not recomputed.  Returns ``None``
        whenever the delta is not append-only — the caller falls back to
        :meth:`build`.
        """
        index = graph._ensure_index()
        previous = self._graph_index
        if index is previous:
            return self
        old_records, new_records = previous.records, index.records
        if index.base_records is old_records:
            changed = index.changed
        else:
            changed = [
                name for name, record in new_records.items()
                if old_records.get(name) is not record
            ]
            changed.extend(name for name in old_records if name not in new_records)
        new_forward, new_reverse = index.forward, index.reverse
        old_forward = self._forward
        ids = self._ids
        names = self._names
        n_old = len(names)

        # the forward rows the change can touch, and the nodes it adds
        touched = {}
        new_ids = {}
        new_nodes = []
        for name in changed:
            old = old_records.get(name)
            if old is not None:
                for edge in old.edges:
                    touched[edge.source] = None
            record = new_records.get(name)
            if record is None:
                continue
            for edge in record.edges:
                touched[edge.source] = None
                for node in (edge.source, edge.target):
                    if node not in ids and node not in new_ids:
                        new_ids[node] = n_old + len(new_nodes)
                        new_nodes.append(node)

        gained = {}  # old node id -> added {target: kind}
        for node in touched:
            targets = new_forward.get(node)
            old_id = ids.get(node)
            if old_id is None:
                # brand-new node: appending is only sound if it cannot
                # reach back into the labelled region (no new→old edges,
                # which could close cycles through old components)
                for target in targets or ():
                    if target in ids:
                        return None
                continue
            old_targets = old_forward.get(node)
            if targets is old_targets or targets == old_targets:
                continue
            if targets is None:
                return None  # every previously indexed out-edge must survive
            if old_targets is None:
                added = targets
            else:
                if len(targets) < len(old_targets):
                    return None
                added = {}
                for target, kind in targets.items():
                    old_kind = old_targets.get(target)
                    if old_kind is None:
                        added[target] = kind
                    elif old_kind != kind:
                        return None
                if len(added) != len(targets) - len(old_targets):
                    return None
            for target in added:
                if target not in new_ids:
                    return None
            gained[old_id] = added

        clone = ReachabilityIndex.__new__(ReachabilityIndex)
        clone.revision = self.revision + 1
        clone._graph_index = index
        clone._table_cache = {}
        clone._forward = new_forward
        clone._reverse = new_reverse
        clone._cache = {}
        n_new = len(new_nodes)
        if not n_new and not gained:
            # identical edge set (rows rebuilt, content unchanged): the
            # labelling, and the memos derived from it, carry over untouched
            for slot in ("_names", "_ids", "_comp_of", "_members", "_cyclic",
                         "_forests", "_pure", "_vector"):
                setattr(clone, slot, getattr(self, slot))
            return clone

        # position arrays are derived lazily on the clone: the refresh
        # itself stays delta-sized, and the first query per direction
        # re-derives in vectorised time
        clone._vector = {}

        clone._names = names + new_nodes
        merged_ids = dict(ids)
        merged_ids.update(new_ids)
        clone._ids = merged_ids

        n_total = n_old + n_new
        out_new = [()] * n_new
        self_loops = set()
        for local, node in enumerate(new_nodes):
            targets = new_forward.get(node)
            if targets:
                row = [new_ids[t] - n_old for t in targets]
                out_new[local] = row
                if local in row:
                    self_loops.add(local)

        local_comp_of, local_members = _tarjan(n_new, out_new)
        comp_base = len(self._members)
        comp_of = list(self._comp_of)
        comp_of.extend(local_comp_of[i] + comp_base for i in range(n_new))
        members = list(self._members)
        cyclic = list(self._cyclic)
        for group in local_members:
            members.append(tuple(n_old + v for v in group))
            cyclic.append(len(group) > 1 or group[0] in self_loops)
        clone._comp_of = comp_of
        clone._members = members
        clone._cyclic = cyclic

        comp_count = len(members)
        new_comp_range = range(comp_base, comp_count)
        appendable = set(new_comp_range)

        # global int adjacency for just the appended region
        out = [()] * n_total
        inn = [()] * n_total
        for node in new_nodes:
            v = merged_ids[node]
            targets = new_forward.get(node)
            if targets:
                out[v] = [merged_ids[t] for t in targets]
            sources = new_reverse.get(node)
            if sources:
                inn[v] = [merged_ids[s] for s in sources]

        roots_by_direction = {
            _DOWN: range(comp_count - 1, comp_base - 1, -1),
            _UP: new_comp_range,
        }
        forests = {}
        for direction, adjacency in ((_DOWN, out), (_UP, inn)):
            old = self._forests[direction]
            pre = old.pre + [0] * (comp_count - comp_base)
            post = old.post + [0] * (comp_count - comp_base)
            order = list(old.order)
            exceptions = list(old.exceptions) + [()] * (comp_count - comp_base)
            _grow_forest(pre, post, order, exceptions,
                         roots_by_direction[direction],
                         members, comp_of, adjacency, appendable)
            forests[direction] = _Forest(pre, post, order, exceptions)

        # old→new edges enter the downstream forest as exceptions on the
        # (already labelled) source components
        down_exceptions = forests[_DOWN].exceptions
        for old_id, added in gained.items():
            comp = comp_of[old_id]
            existing = down_exceptions[comp]
            known = set(existing)
            merged = list(existing)
            for target in added:
                target_comp = comp_of[merged_ids[target]]
                if target_comp not in known:
                    known.add(target_comp)
                    merged.append(target_comp)
            down_exceptions[comp] = tuple(merged)
        clone._forests = forests

        # purity: downstream in-edges (reverse adjacency) of old nodes are
        # untouched by an append; upstream in-edges (forward adjacency)
        # changed exactly for the nodes that gained out-edges
        pure_down = self._pure[_DOWN] + [0] * n_new
        pure_up = self._pure[_UP] + [0] * n_new
        for node in new_nodes:
            node_id = merged_ids[node]
            sources = new_reverse.get(node)
            if sources:
                pure_down[node_id] = _kind_class(sources.values())
            targets = new_forward.get(node)
            if targets:
                pure_up[node_id] = _kind_class(targets.values())
        for old_id in gained:
            pure_up[old_id] = _kind_class(new_forward[names[old_id]].values())
        clone._pure = {_DOWN: pure_down, _UP: pure_up}
        return clone

    # ------------------------------------------------------------------
    # Column-level queries
    # ------------------------------------------------------------------
    def closure(self, column, direction=_DOWN):
        """Node ids strictly reachable from ``column`` (BFS-equivalent set).

        The start itself is included exactly when it can reach itself —
        i.e. it sits in a cyclic component (self-read or larger cycle) —
        matching the BFS, which only reports re-reached starts.  Unlike
        :meth:`partition` it memoises no answer.
        """
        start_id = self._ids.get(column)
        if start_id is None:
            return ()
        start_comp = self._comp_of[start_id]
        _, seen_raw, seen_u8, p0 = self._walk(start_comp, direction)
        if not self._cyclic[start_comp]:
            seen_raw[p0] = 0
        order = self._forests[direction].order
        members = self._members
        reached = []
        for pos in _np.flatnonzero(seen_u8).tolist():
            reached.extend(members[order[pos]])
        return reached

    def partition(self, column, direction=_DOWN):
        """``(contributed, referenced, both)`` :class:`NameSet` views.

        Byte-identical in content to the kind-tracking BFS partition: a
        reached column's kinds are the union of the kinds of its in-edges
        whose source is the start or itself reached.  Each partition is a
        duplicate-free :class:`NameSet` — iteration and counting never
        hash; hash-set semantics materialise lazily.  Results are
        memoised per (start, direction) — an index belongs to exactly one
        graph version, so cached partitions can never go stale.
        """
        start_id = self._ids.get(column)
        if start_id is None:
            return (NameSet([]), NameSet([]), NameSet([]))
        key = (start_id, direction)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        parts = self._partition_vector(start_id, direction)
        result = tuple(NameSet(names) for names in parts)
        if len(self._cache) >= _RESULT_CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = result
        return result

    def _vectors(self, direction):
        """Position-domain arrays for the forest walk (memoised).

        Everything is re-indexed from component ids to *preorder
        positions* so the walk operates on contiguous slices of flat
        arrays: ``post_ints[i]`` is the end of the descendant slice of the
        component at position ``i``; the CSR pair ``indptr_ints``/
        ``exc_data`` holds every exception target (as a position) for the
        component at each position, so one slice fetches the exceptions
        of an entire subtree; ``cls_pos`` is the purity class of the sole
        member of a singleton component (``-1`` flags multi-member
        components, resolved member-by-member in Python — they are rare);
        ``names_pos``/``sole_pos`` carry the singleton's column name and
        node id.
        """
        forest = self._forests[direction]
        order = forest.order
        pre = forest.pre
        n_comp = len(order)
        vec = _Vectors()
        vec.ones = b"\x01" * n_comp
        # scalar-indexed arrays stay plain lists: the walk reads them one
        # int at a time, where list indexing beats numpy scalar boxing
        vec.post_ints = [forest.post[comp] for comp in order]

        data = []
        exceptions = forest.exceptions
        indptr_ints = [0] * (n_comp + 1)
        for pos, comp in enumerate(order):
            extra = exceptions[comp]
            if extra:
                data.extend(pre[d] for d in extra)
            indptr_ints[pos + 1] = len(data)
        vec.indptr_ints = indptr_ints
        vec.exc_data = _np.array(data, dtype=_np.int64)
        # list twin for the walk's small-batch path: slicing a list is a
        # straight copy, where the numpy slice + tolist pays ~0.5 us of
        # fixed overhead per pop — the dominant cost on fragmented
        # (hub-heavy) closures with tens of thousands of tiny batches
        vec.exc_ints = data

        members = self._members
        pure = self._pure[direction]
        names = self._names
        n = len(names)
        cls_list = [0] * n_comp
        names_pos = _np.empty(n_comp, dtype=object)
        sole_pos = _np.full(n_comp, -1, dtype=_np.int64)
        for pos, comp in enumerate(order):
            group = members[comp]
            if len(group) == 1:
                node_id = group[0]
                bits = pure[node_id]
                cls_list[pos] = bits
                sole_pos[pos] = node_id
                if bits:
                    names_pos[pos] = names[node_id]
            else:
                cls_list[pos] = -1
        vec.cls_pos = _np.array(cls_list, dtype=_np.int8)
        vec.names_pos = names_pos
        vec.sole_pos = sole_pos
        vec.names_np = _np.fromiter(names, dtype=object, count=n)

        # mixed-purity in-edge sources as kind-grouped CSRs over source
        # *positions*: one reduceat over the whole population classifies
        # every reached mixed node per query
        in_adjacency = self._reverse if direction == _DOWN else self._forward
        ids = self._ids
        comp_of = self._comp_of
        mixed_ids = sorted(
            node_id for node_id in range(n) if not pure[node_id]
            and names[node_id] in in_adjacency
        )
        mixed_ptr = _np.full(n, -1, dtype=_np.int64)
        rows = ([], [], [])        # both / contribute / reference data
        indptrs = ([0], [0], [0])
        for row, node_id in enumerate(mixed_ids):
            mixed_ptr[node_id] = row
            for source, kind in in_adjacency[names[node_id]].items():
                bits = _KIND_BITS[kind]
                rows[0 if bits == 3 else bits].append(
                    pre[comp_of[ids[source]]]
                )
            for group, data in zip(indptrs, rows):
                group.append(len(data))
        vec.mixed_ptr = mixed_ptr
        vec.mixed_rows = len(mixed_ids)
        vec.mb_indptr = _np.array(indptrs[0], dtype=_np.int64)
        vec.mb_data = _np.array(rows[0], dtype=_np.int64)
        vec.mc_indptr = _np.array(indptrs[1], dtype=_np.int64)
        vec.mc_data = _np.array(rows[1], dtype=_np.int64)
        vec.mr_indptr = _np.array(indptrs[2], dtype=_np.int64)
        vec.mr_data = _np.array(rows[2], dtype=_np.int64)
        # plain-list twins for the sparse per-node path: small queries
        # resolve only the mixed rows they actually reached instead of
        # paying a whole-population reduceat
        vec.mixed_indptr_ints = indptrs
        vec.mixed_data_ints = rows

        self._vector[direction] = vec
        return vec

    def _walk(self, start_comp, direction):
        """The forest walk from ``start_comp``: ``(vec, seen_raw, seen_u8, p0)``.

        The walk is slice arithmetic over the position-domain arrays:
        each stack pop claims one subtree's worth of unseen positions in
        a single slice assignment and batch-filters that whole subtree's
        exception targets.  ``seen_raw`` (a bytearray) and ``seen_u8``
        (its numpy view) mark exactly the positions reached from the
        start's position ``p0``, which is marked whether or not the start
        can reach itself.  Nothing is memoised but the position arrays.
        """
        vec = self._vector.get(direction)
        if vec is None:
            vec = self._vectors(direction)
        p0 = self._forests[direction].pre[start_comp]

        post_ints = vec.post_ints
        indptr_ints = vec.indptr_ints
        exc_data = vec.exc_data
        exc_ints = vec.exc_ints
        ones = vec.ones
        # the seen map lives in a bytearray (C-speed scalar reads and
        # slice claims) with a shared-memory numpy view for the batched
        # operations — both see every write instantly
        seen_raw = bytearray(len(post_ints))
        seen_u8 = _np.frombuffer(seen_raw, dtype=_np.uint8)
        stack = [p0]
        pop = stack.pop
        push = stack.append
        extend = stack.extend
        while stack:
            p = pop()
            if seen_raw[p]:
                continue
            hi = post_ints[p]
            seen_raw[p:hi] = ones[p:hi]
            lo_e = indptr_ints[p]
            hi_e = indptr_ints[hi]
            if hi_e == lo_e:
                continue
            if hi_e - lo_e <= 64:
                # tiny exception batches (the common case) are cheaper as
                # a plain loop over the list twin than as a numpy gather
                for q in exc_ints[lo_e:hi_e]:
                    if not seen_raw[q]:
                        push(q)
            else:
                cand = exc_data[lo_e:hi_e]
                new = cand[seen_u8[cand] == 0]
                if new.size:
                    extend(new.tolist())
        return vec, seen_raw, seen_u8, p0

    def _partition_vector(self, start_id, direction):
        """Partition of the positions :meth:`_walk` reaches from ``start_id``.

        Classification is three mask-gathers over the singleton purity
        array; only multi-member components and genuinely mixed-kind
        nodes drop back to per-node Python.
        """
        start_comp = self._comp_of[start_id]
        vec, seen_raw, seen_u8, p0 = self._walk(start_comp, direction)

        # ``seen`` is now exactly the closure's position set; an acyclic
        # start is excluded from its own answer (matching the BFS, which
        # only reports re-reached starts) but restored below, because the
        # mixed-kind membership tests count edges from the start
        cyclic_start = self._cyclic[start_comp]
        if not cyclic_start:
            seen_raw[p0] = 0
        allpos = _np.nonzero(seen_u8)[0]
        if not cyclic_start:
            seen_raw[p0] = 1
        seen = seen_u8.view(_np.bool_)
        cls_pos = vec.cls_pos
        names_pos = vec.names_pos
        cls = cls_pos[allpos]
        contributed = names_pos[allpos[cls == 1]].tolist()
        referenced = names_pos[allpos[cls == 2]].tolist()
        both = names_pos[allpos[cls == 3]].tolist()

        slow = allpos[cls <= 0]
        if slow.size:
            names_np = vec.names_np
            sole_pos = vec.sole_pos
            mixed_ptr = vec.mixed_ptr
            slow_cls = cls[cls <= 0]
            singles = slow[slow_cls == 0]
            multis = slow[slow_cls < 0]
            # the whole-population reduceat costs O(mixed population) no
            # matter how small the answer; below ~1/8 of the population
            # the per-row scans win and keep tiny queries O(answer-size)
            dense = slow.size * 8 >= vec.mixed_rows
            bits_arr = self._mixed_bits(vec, seen) if dense else None
            if singles.size:
                # a reached mixed singleton always has in-edges in this
                # direction, so its mixed row is guaranteed to exist
                node_ids = sole_pos[singles]
                if dense:
                    bits = bits_arr[mixed_ptr[node_ids]]
                    contributed.extend(names_np[node_ids[bits == 1]].tolist())
                    referenced.extend(names_np[node_ids[bits == 2]].tolist())
                    both.extend(names_np[node_ids[bits == 3]].tolist())
                else:
                    rows_l = mixed_ptr[node_ids].tolist()
                    names_l = names_np[node_ids].tolist()
                    for row, name in zip(rows_l, names_l):
                        bits = self._mixed_bits_one(vec, seen_raw, row)
                        if bits == 1:
                            contributed.append(name)
                        elif bits == 2:
                            referenced.append(name)
                        elif bits == 3:
                            both.append(name)
            if multis.size:
                members = self._members
                pure = self._pure[direction]
                names = self._names
                order = self._forests[direction].order
                for pos in multis.tolist():
                    for node_id in members[order[pos]]:
                        bits = pure[node_id]
                        if not bits:
                            if dense:
                                bits = int(bits_arr[mixed_ptr[node_id]])
                            else:
                                bits = self._mixed_bits_one(
                                    vec, seen_raw, int(mixed_ptr[node_id])
                                )
                        if bits == 1:
                            contributed.append(names[node_id])
                        elif bits == 2:
                            referenced.append(names[node_id])
                        elif bits == 3:
                            both.append(names[node_id])
        return contributed, referenced, both

    @staticmethod
    def _mixed_bits_one(vec, seen_raw, row):
        """Kind bits of one mixed row via plain-list scans of ``seen_raw``.

        The sparse twin of :meth:`_mixed_bits`: per-group early-exit scans
        over the row's source positions, reading the walk's bytearray
        directly.  Cost is O(row in-degree) — what small answers need.
        """
        b_ind, c_ind, r_ind = vec.mixed_indptr_ints
        b_dat, c_dat, r_dat = vec.mixed_data_ints
        for q in b_dat[b_ind[row]:b_ind[row + 1]]:
            if seen_raw[q]:
                return 3
        bits = 0
        for q in c_dat[c_ind[row]:c_ind[row + 1]]:
            if seen_raw[q]:
                bits = 1
                break
        for q in r_dat[r_ind[row]:r_ind[row + 1]]:
            if seen_raw[q]:
                bits |= 2
                break
        return bits

    @staticmethod
    def _mixed_bits(vec, seen):
        """Kind bits of every mixed-purity node against the ``seen`` mask.

        One ``logical_or.reduceat`` per kind group over the whole mixed
        population: a node's answer class is 3 when any "both"-kind
        in-edge source is reached, else the OR of 1 (any reached
        contribute source) and 2 (any reached reference source) —
        identical to :meth:`_mixed_bits_one`'s per-row early-exit scans.
        """
        rows = vec.mixed_rows

        def any_reached(indptr, data):
            hit = _np.zeros(rows, dtype=bool)
            if data.size:
                counts = _np.diff(indptr)
                nonempty = counts > 0
                # empty CSR segments occupy zero data, so the nonempty
                # segment starts are valid reduceat boundaries
                hit[nonempty] = _np.logical_or.reduceat(
                    seen[data], indptr[:-1][nonempty]
                )
            return hit

        has_both = any_reached(vec.mb_indptr, vec.mb_data)
        has_contribute = any_reached(vec.mc_indptr, vec.mc_data)
        has_reference = any_reached(vec.mr_indptr, vec.mr_data)
        bits = (
            has_contribute.astype(_np.int8)
            | (has_reference.astype(_np.int8) << 1)
        )
        bits[has_both] = 3
        return bits

    def knows(self, column):
        """Whether ``column`` is a node of the indexed edge set."""
        return column in self._ids

    def deep_starts(self, direction=_DOWN, limit=20):
        """Columns with the largest spanning-subtree spans, deepest first.

        A component's preorder interval width is a cheap lower bound on
        its closure size, so these are worst-case query starts — the
        benchmark measures indexed-vs-BFS latency on them without paying
        an O(nodes x answer) sweep to find them.  Deterministic: ties
        break on component id, and each component is represented by its
        first member.
        """
        forest = self._forests[direction]
        pre, post = forest.pre, forest.post
        spans = sorted(
            ((post[comp] - pre[comp], comp) for comp in range(len(self._members))),
            key=lambda item: (-item[0], item[1]),
        )
        return [
            self._names[self._members[comp][0]]
            for _, comp in spans[: max(0, int(limit))]
        ]

    # ------------------------------------------------------------------
    # Table-level queries (the /ordering read path)
    # ------------------------------------------------------------------
    def table_order(self):
        """All relations in the exact Kahn order of ``_topological_tables``.

        Memoised, including the cyclic outcome: repeated ``/ordering``
        reads against one snapshot re-raise an equivalent
        :class:`~repro.core.errors.CyclicDependencyError` without
        re-running Kahn.
        """
        cached = self._table_cache.get("order")
        if cached is None:
            from .ordering import _kahn_order
            index = self._graph_index
            try:
                cached = ("ok", _kahn_order(
                    list(index.records), index.table_forward, index.table_reverse
                ))
            except CyclicDependencyError as error:
                cached = ("cycle", list(error.cycle))
            self._table_cache["order"] = cached
        tag, value = cached
        if tag == "cycle":
            raise CyclicDependencyError(value)
        return value

    def terminal_views(self):
        cached = self._table_cache.get("terminal")
        if cached is None:
            index = self._graph_index
            successors = index.table_forward
            cached = sorted(
                name for name, record in index.records.items()
                if not record.is_base and not successors.get(name)
            )
            self._table_cache["terminal"] = cached
        return cached

    def root_tables(self):
        cached = self._table_cache.get("roots")
        if cached is None:
            index = self._graph_index
            successors = index.table_forward
            cached = sorted(
                name for name, record in index.records.items()
                if record.is_base and successors.get(name)
            )
            self._table_cache["roots"] = cached
        return cached

    def table_closure(self, table, direction=_DOWN):
        """All tables transitively reachable from ``table`` (memoised)."""
        key = (table, direction)
        cached = self._table_cache.get(key)
        if cached is None:
            index = self._graph_index
            adjacency = (
                index.table_forward if direction == _DOWN else index.table_reverse
            )
            reached = set()
            frontier = [table]
            while frontier:
                current = frontier.pop()
                for neighbor in adjacency.get(current, ()):
                    if neighbor != table and neighbor not in reached:
                        reached.add(neighbor)
                        frontier.append(neighbor)
            cached = frozenset(reached)
            self._table_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        """Size and shape summary (benchmarks and ``/stats``)."""
        down = self._forests[_DOWN]
        up = self._forests[_UP]
        return {
            "nodes": len(self._names),
            "components": len(self._members),
            "cyclic_components": sum(1 for flag in self._cyclic if flag),
            "exceptions_downstream": down.exception_count(),
            "exceptions_upstream": up.exception_count(),
            "revision": self.revision,
        }
