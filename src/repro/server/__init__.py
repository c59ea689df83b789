"""Lineage-as-a-service: the asyncio serving daemon.

Start it from the command line::

    python -m repro serve --cache-dir .lineage-cache \
        --journal-dir .lineage-journal

or embed it::

    from repro.server import LineageApp

    app = LineageApp(cache_dir=".lineage-cache", journal_dir=".lineage-journal")
    app.run(host="127.0.0.1", port=8765)

Design in one paragraph: all writes (``POST /extract``) funnel through a
single group-commit ingest loop (a batch starts as soon as the loop is
idle and holds every request that queued while the previous batch ran;
after a batch that answered n clients it waits, at most that batch's
duration, for n again)
that dedupes statements against the session's applied text before
parsing, journals every accepted novel statement (fsync'd, once per
batch) before extraction, and hands each batch to the
shared ingest core (:mod:`repro.ingest`: one incremental ``refresh()``
when the batch is clean, bisection when it is not) on a worker thread;
after each successful batch an immutable frozen graph
snapshot is published by an atomic reference swap, and every read
endpoint (``/impact``, ``/ordering``, ``/render/{fmt}``, ``/stats``,
``/health``, ``/quarantine``) serves from the snapshot it grabbed with
no locks — a slow render can neither block nor observe a half-applied
ingest.  Poison statements quarantine individually instead of failing
their batch, overload sheds with 503 + Retry-After, and a SIGKILL'd
daemon replays its journal on restart to a byte-identical graph.
"""

from .app import LineageApp
from .batcher import ExtractionFailed, IngestBatcher, OverloadedError
from .http import Request, Response
from .journal import IngestJournal, JournalError, JournalWriteError
from ..quarantine import Quarantine
from .snapshot import Snapshot, SnapshotManager

__all__ = [
    "ExtractionFailed",
    "IngestBatcher",
    "IngestJournal",
    "JournalError",
    "JournalWriteError",
    "LineageApp",
    "OverloadedError",
    "Quarantine",
    "Request",
    "Response",
    "Snapshot",
    "SnapshotManager",
]
