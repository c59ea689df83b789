"""The ingest core: one batch of definitions into a session, poison isolated.

Both write front ends, the serving daemon's
:class:`~repro.server.batcher.IngestBatcher` and the query-log
:class:`~repro.streaming.QueryLogStreamer`, hand their batches to
:func:`apply`.  The :class:`~repro.session.LineageSession` is the only
record of which text is applied under each name
(:attr:`~repro.session.LineageSession.statements`); the front ends keep
none of their own.

What a batch goes through:

* :func:`pending` drops the ``(name, text)`` pairs the session already
  holds;
* the rest refresh the session **once**.  A refresh that fails is split in
  half and each half refreshed on its own, down to single statements, so
  one poison statement among ``n`` costs at most ``2·⌈log₂ n⌉ + 1``
  refreshes.  A statement that fails alone is recorded in the
  :class:`~repro.quarantine.Quarantine` with a ``{"type", "message"}``
  error record and a backoff; everything else lands;
* a name whose newest version quarantined falls back to its previous
  version, and so on.  A durable prefix applied as one batch (daemon boot,
  stream resume) therefore converges on each name's last good definition,
  the one an uninterrupted run kept;
* store records of the definitions the batch replaced are marked
  superseded, so ``store.gc(max_entries=...)`` evicts them first.

Statements are hashed (for the quarantine key) only when they fail, or
when they land while the quarantine holds entries.
"""

from .core.errors import SessionClosedError
from .sources.base import content_hash


def pending(session, statements):
    """The part of ``{name: sql}`` the session has not applied yet.

    A ``None`` value removes the name, so it is pending only while the
    name is applied.
    """
    applied = session.statements
    return {
        name: sql for name, sql in statements.items()
        if (name in applied if sql is None else applied.get(name) != sql)
    }


def apply(session, versions, quarantine):
    """Apply the newest of each name's ``versions`` (``{name: [sql, ...]}``,
    oldest first) to ``session``, falling back past quarantined ones.

    A name whose every version quarantined keeps the text the session
    already had.  Returns ``(failed, superseded)``: ``failed`` maps
    ``(name, content hash)`` to ``{"error": {"type", "message"},
    "retry_after_seconds": s}`` for every version that quarantined, and
    ``superseded`` counts the store records marked superseded.
    """
    previous = session.result
    stacks = {name: list(texts) for name, texts in versions.items()}
    failed = {}
    batch = {name: stack.pop() for name, stack in stacks.items()}
    while batch:
        poisoned = _refresh(session, list(pending(session, batch).items()))
        for name, sql, error in poisoned:
            digest = content_hash(sql)
            backoff = quarantine.record(name, digest, error)
            failed[(name, digest)] = {
                "error": error, "retry_after_seconds": round(backoff, 3),
            }
        batch = {name: stacks[name].pop() for name, _, _ in poisoned if stacks[name]}
    if len(quarantine):
        applied = session.statements
        for name, texts in versions.items():
            if name in applied and applied[name] in texts:
                quarantine.clear(name, content_hash(applied[name]))
    return failed, _mark_superseded(session, previous, versions)


def _refresh(session, items):
    """Refresh ``[(name, sql)]`` as one batch, bisecting a failure down to
    the statements that fail alone; returns ``[(name, sql, error)]``."""
    if not items:
        return []
    try:
        session.refresh(dict(items))
        return []
    except SessionClosedError:
        raise
    except Exception as error:  # noqa: BLE001 - this IS the isolation
        if len(items) == 1:
            name, sql = items[0]
            return [(name, sql, {"type": type(error).__name__, "message": str(error)})]
    middle = len(items) // 2
    return _refresh(session, items[:middle]) + _refresh(session, items[middle:])


def _mark_superseded(session, previous, names):
    """Flag the store records of the definitions ``names`` replaced."""
    store = session.store
    result = session.result
    if store is None or previous is None or result is previous:
        return 0
    before, after = previous.source_hashes, result.source_hashes
    stale = {
        before[name] for name in names
        if name in before and after.get(name) != before[name]
    }
    if stale:
        stale -= set(after.values())
    return store.mark_superseded(stale) if stale else 0
