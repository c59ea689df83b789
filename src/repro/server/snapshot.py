"""Copy-on-write graph snapshots — the daemon's lock-free read side.

Reads and writes in the serving daemon never share a mutable graph.
The ingest loop owns the only :class:`~repro.session.LineageSession`;
after every successful extraction batch it freezes the session's graph
(:meth:`LineageSession.snapshot`) and hands the frozen view to the
:class:`SnapshotManager`, which publishes it by a single attribute
assignment.  Under CPython that assignment is an atomic reference swap,
so a reader either sees the old snapshot or the new one — never a
half-built graph — and holds whichever it grabbed for as long as it
likes: a slow ``/render/html`` over snapshot N cannot block (or be
corrupted by) the ingest loop publishing N+1.

This works because the extraction stack never mutates a published
graph: every run and refresh assembles a *new* ``LineageGraph`` (reused
view entries are spliced in by reference, not edited), so freezing it
pins a consistent generation forever.
"""

import time


class Snapshot:
    """One immutable published generation of the lineage graph.

    ``stats`` and the sorted ``statement_names`` are derived on first
    read: publishing only copies the names.
    """

    __slots__ = ("version", "graph", "published_at", "_stats", "_names", "_sorted")

    def __init__(self, version, graph, statement_names=()):
        self.version = version
        self.graph = graph
        self.published_at = time.time()
        self._stats = None
        self._names = tuple(statement_names)
        self._sorted = None

    @property
    def stats(self):
        """The graph's summary statistics (``LineageGraph.stats``)."""
        stats = self._stats
        if stats is None:
            stats = self._stats = self.graph.stats()
        return stats

    @property
    def statement_names(self):
        """The applied statement names, sorted, as a tuple."""
        names = self._sorted
        if names is None:
            names = self._sorted = tuple(sorted(self._names))
        return names

    def describe(self):
        """A JSON-friendly summary (served by ``/stats`` and ``/health``)."""
        return {
            "version": self.version,
            "published_at": self.published_at,
            "statements": len(self._names),
            "graph": dict(self.stats),
        }


class SnapshotManager:
    """Publishes immutable snapshots; readers take them without locking.

    Only the ingest loop calls :meth:`publish`; any number of reader
    tasks/threads call :meth:`current`.  No synchronisation is needed on
    the read path — ``self._current`` is replaced wholesale, never
    mutated.
    """

    def __init__(self, initial_graph):
        self._current = Snapshot(0, initial_graph.freeze())

    def prepare(self, graph, statement_names=()):
        """Freeze ``graph`` into the next generation WITHOUT publishing.

        The freeze copies the relation map and eagerly builds the
        adjacency *and reachability* indexes, so the ingest loop calls this
        from its worker thread and only does the cheap :meth:`install` swap
        on the event loop.  Safe off-thread because the single ingest loop
        is the only generation producer: nobody else can move ``version``
        between prepare and install.  The previous generation seeds the
        new one: the adjacency index is patched for just the entries the
        batch changed (every other row is shared with the previous
        generation), and because batch ingest grows the graph append-only,
        the reachability labels are usually patched for just the new
        relations instead of re-labelling the whole graph.
        """
        previous = self._current.graph.reachability(build=False)
        frozen = graph.freeze(reach_seed=previous)
        return Snapshot(self._current.version + 1, frozen, statement_names)

    def install(self, snapshot):
        """Make a prepared snapshot the current generation."""
        self._current = snapshot  # atomic reference swap: the publish point
        return snapshot

    def publish(self, graph, statement_names=()):
        """Freeze ``graph`` and make it the current generation."""
        return self.install(self.prepare(graph, statement_names))

    def current(self):
        """The latest published :class:`Snapshot` (never ``None``)."""
        return self._current

    @property
    def version(self):
        return self._current.version
