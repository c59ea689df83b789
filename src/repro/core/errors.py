"""Exception types raised by the lineage extraction core."""


class LineageError(Exception):
    """Base class for all lineage extraction errors."""


class UnknownRelationError(LineageError):
    """Raised when a query references a relation whose columns are unknown.

    The Table/View Auto-Inference scheduler catches this error: when the
    missing relation is itself defined by a later entry of the Query
    Dictionary, the current extraction is deferred onto the stack and the
    dependency is processed first (Section III of the paper).

    Attributes
    ----------
    relation:
        Normalised name of the relation whose metadata is missing.
    reason:
        Human-readable explanation of why the metadata was needed (for
        example ``"SELECT * requires the column list of webact"``).
    """

    def __init__(self, relation, reason=None):
        self.relation = relation
        self.reason = reason
        message = f"unknown relation {relation!r}"
        if reason:
            message += f": {reason}"
        super().__init__(message)

    def __reduce__(self):
        # default exception pickling would re-init with the formatted message
        # as ``relation``: a round trip would silently give an error whose
        # attributes are wrong
        return (type(self), (self.relation, self.reason))


class AmbiguousColumnError(LineageError):
    """Raised when a column reference cannot be attributed to a single source.

    The extractor only raises this in ``strict`` mode; by default it follows
    the paper's conservative policy and attributes the column to every
    candidate source.

    Attributes
    ----------
    column:
        The unqualified column name.
    candidates:
        The source names that expose a column with that name.
    """

    def __init__(self, column, candidates):
        self.column = column
        self.candidates = sorted(candidates)
        super().__init__(
            f"column {column!r} is ambiguous among sources: {', '.join(self.candidates)}"
        )

    def __reduce__(self):
        return (type(self), (self.column, self.candidates))


class UnknownColumnError(LineageError, KeyError):
    """An impact query started from a column the graph has never seen.

    Derives from :class:`KeyError` so library callers can treat a failed
    lookup like a mapping miss.  ``hint`` optionally carries the nearest
    known name (the serving daemon surfaces it in the 404 body).
    """

    def __init__(self, column, hint=None):
        self.column = str(column)
        self.hint = hint
        message = f"unknown column {self.column!r}"
        if hint:
            message += f" (did you mean {hint!r}?)"
        # bypass KeyError.__str__'s repr-of-args formatting
        LineageError.__init__(self, message)
        self.args = (message,)

    def __str__(self):
        return self.args[0]


class CyclicDependencyError(LineageError):
    """Raised when query definitions form a dependency cycle.

    Attributes
    ----------
    cycle:
        The list of relation names forming the cycle, in discovery order.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cyclic dependency among queries: " + " -> ".join(self.cycle))

    def __reduce__(self):
        return (type(self), (self.cycle,))


class DeferralLimitExceededError(CyclicDependencyError):
    """Raised when the auto-inference stack exceeds its deferral budget.

    Distinguishes "the scheduler gave up after ``max_deferrals`` stack
    operations" from a genuine dependency cycle (which is detected eagerly
    when a relation re-enters the stack).  Subclasses
    :class:`CyclicDependencyError` so existing ``except`` clauses keep
    working.

    Attributes
    ----------
    stack:
        The deferral stack at the moment the limit was hit (outermost
        first).
    limit:
        The deferral budget that was exceeded.
    """

    def __init__(self, stack, limit):
        self.stack = list(stack)
        self.limit = limit
        LineageError.__init__(
            self,
            f"deferral limit of {limit} exceeded; stack at limit: "
            + " -> ".join(self.stack),
        )
        self.cycle = list(stack)

    def __reduce__(self):
        return (type(self), (self.stack, self.limit))


class SessionClosedError(LineageError):
    """An extraction was attempted on (or raced) a closed session.

    :meth:`repro.session.LineageSession.close` releases the persistent
    store; an ``extract()``/``refresh()`` that starts after the close — or
    is in flight when the close lands — must fail loudly rather than
    silently adopting a result whose store writes were dropped mid-flush.
    The serving daemon's shutdown path relies on this: a racing refresher
    gets a clear error instead of a half-written cache.

    Attributes
    ----------
    operation:
        The session method that was refused (``"extract"`` / ``"refresh"``).
    """

    def __init__(self, operation="operation"):
        self.operation = operation
        super().__init__(
            f"session is closed: {operation}() after close() "
            "(or close() landed while it was in flight)"
        )

    def __reduce__(self):
        return (type(self), (self.operation,))


class LineageRecordError(LineageError):
    """A serialized lineage record is malformed or of an unsupported version.

    Raised by :meth:`repro.core.lineage.TableLineage.from_record` and
    :meth:`repro.core.column_refs.ColumnName.from_record`.  The persistent
    lineage store catches it and treats the entry as a cold miss, so a
    corrupted or version-skewed cache degrades to re-extraction instead of
    failing the run.
    """
