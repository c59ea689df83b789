"""The serving daemon: one session, one ingest loop, many lock-free readers.

:class:`LineageApp` wires the pieces together:

* a sourceless :class:`~repro.session.LineageSession` (optionally backed
  by a persistent store via ``cache_dir``) owned exclusively by the
  ingest loop;
* an :class:`~repro.server.batcher.IngestBatcher` that dedupes every
  ``POST /extract`` and group-commits them: a batch holds whatever queued
  while the previous one ran, waiting only for as many requests as that
  one answered and never longer than it took; each goes to the shared
  ingest core (:mod:`repro.ingest`);
* a :class:`~repro.server.snapshot.SnapshotManager` publishing an
  immutable graph generation after each successful batch, which every
  read endpoint serves from without locking;
* the minimal asyncio HTTP layer in :mod:`repro.server.http`.

Durability (PR 9): pass ``journal_dir`` and every accepted novel
statement is written to an :class:`~repro.server.journal.IngestJournal`
before extraction; :meth:`start` replays the journal through the normal
batching path before binding the socket, so a SIGKILL'd daemon restarts
to the graph it would have had uninterrupted.  Boot order is **preload
first, then replay**: journal entries postdate any corpus the daemon was
originally started with, so replay must win name redefinitions.

``python -m repro serve`` builds one of these and calls :meth:`run`,
which blocks until SIGINT/SIGTERM and then shuts down cleanly: stop
accepting connections, drain the ingest queue, release the store.  A
SIGTERM that lands *during* preload aborts the load and still exits 0 —
preload is never journaled (the corpus lives on disk already), so an
aborted load leaves no journal entry behind.
"""

import asyncio
import contextlib
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .batcher import IngestBatcher
from .http import serve_connection
from .journal import IngestJournal
from .routes import dispatch
from .snapshot import SnapshotManager
from ..core.lineage import LineageGraph
from ..session import LineageSession


class LineageApp:
    """The daemon's application object (transport-independent)."""

    def __init__(
        self,
        session=None,
        *,
        cache_dir=None,
        catalog=None,
        strict=False,
        journal_dir=None,
        journal_fsync=True,
        max_pending=0,
        request_timeout=None,
        max_batch_statements=0,
        quarantine=None,
    ):
        if session is None:
            session = LineageSession(
                catalog=catalog,
                strict=strict,
                cache_dir=cache_dir,
            )
        self.session = session
        # reads already extracted state if the caller handed over a warm
        # session; otherwise start from an empty generation-0 graph so
        # every endpoint works before the first ingest
        initial = (
            session.result.graph if session.result is not None else LineageGraph()
        )
        self.snapshots = SnapshotManager(initial)
        # renders and refreshes both run here, off the event loop; two
        # extra threads keep a long render from queueing behind ingest
        self.executor = ThreadPoolExecutor(
            max_workers=3, thread_name_prefix="lineage-serve"
        )
        self.journal = (
            IngestJournal(journal_dir, fsync=journal_fsync)
            if journal_dir else None
        )
        self.request_timeout = (
            float(request_timeout) if request_timeout else None
        )
        self.batcher = IngestBatcher(
            session, self.snapshots, executor=self.executor,
            journal=self.journal,
            quarantine=quarantine,
            max_pending=max_pending,
            max_batch_statements=max_batch_statements,
        )
        self._started = time.monotonic()
        self._server = None
        self._recovered = False

    def uptime(self):
        return time.monotonic() - self._started

    async def handle(self, request):
        """Dispatch one parsed request (the HTTP layer's callback)."""
        return await dispatch(self, request)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host="127.0.0.1", port=8765):
        """Start the ingest loop and bind the listening socket.

        Returns the bound ``(host, port)`` — pass ``port=0`` to let the
        OS pick a free one (tests and benchmarks do).  Journal recovery
        runs *before* the socket binds: a client can never observe the
        daemon missing statements it already acknowledged.
        """
        self.batcher.start()
        await self.recover()
        self._server = await asyncio.start_server(
            self._on_connection, host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def recover(self):
        """Replay the journal through the normal ingest path (idempotent).

        Returns the number of statements replayed.  Replay submissions
        carry ``journal=False`` — the entries are already durable.
        """
        if self.journal is None or self._recovered:
            return 0
        self._recovered = True
        self.batcher.start()
        entries = await asyncio.get_running_loop().run_in_executor(
            self.executor, self.journal.replay_entries
        )
        if not entries:
            return 0
        return await self.batcher.replay(entries)

    async def _on_connection(self, reader, writer):
        await serve_connection(reader, writer, self.handle)

    async def preload(self, statements):
        """Ingest ``{name: sql}`` through the normal batching path.

        Used by ``serve INPUT`` to warm the daemon before it announces
        readiness; the statements register in the dedupe index exactly as
        if a client had POSTed them.  Preload is **not journaled**
        (``journal=False``): the corpus already lives on disk, so
        re-serving it after a crash is the caller's restart command, not
        the journal's job.
        """
        if statements:
            await self.batcher.submit(dict(statements), journal=False)

    async def stop(self):
        """Graceful shutdown: close the socket, drain ingest, release stores."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        self.executor.shutdown(wait=True)
        if self.journal is not None:
            self.journal.close()
        self.session.close()

    # ------------------------------------------------------------------
    # blocking entry point (the CLI's `serve` subcommand)
    # ------------------------------------------------------------------
    def run(self, host="127.0.0.1", port=8765, preload=None, out=None):
        """Serve until SIGINT/SIGTERM, then shut down cleanly."""
        out = out if out is not None else sys.stdout
        return asyncio.run(self._run(host, port, preload, out))

    async def _run(self, host, port, preload, out):
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops: Ctrl-C still raises KeyboardInterrupt
        try:
            self.batcher.start()
            if preload:
                count = len(preload)
                # race the load against shutdown: a SIGTERM mid-preload
                # must abort the load and still exit 0 (and since preload
                # is unjournaled, it leaves no journal entry behind)
                load = asyncio.ensure_future(self.preload(preload))
                interrupted = asyncio.ensure_future(stop_event.wait())
                await asyncio.wait(
                    {load, interrupted}, return_when=asyncio.FIRST_COMPLETED
                )
                interrupted.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await interrupted
                if stop_event.is_set() and not load.done():
                    load.cancel()
                    with contextlib.suppress(asyncio.CancelledError, Exception):
                        await load
                    print("shutting down", file=out, flush=True)
                    return 0
                await load  # done: propagate any preload error
                print(f"preloaded {count} statements", file=out, flush=True)
            bound_host, bound_port = await self.start(host, port)
            # the readiness line: tests and scripts parse the bound port
            # from it, so keep the shape stable
            print(
                f"serving on http://{bound_host}:{bound_port}", file=out, flush=True
            )
            await stop_event.wait()
            print("shutting down", file=out, flush=True)
        finally:
            for signum in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(signum)
            await self.stop()
        return 0
