"""Continuous query-log streaming: the firehose ingest mode.

:class:`QueryLogStreamer` tails a JSONL query log into a
:class:`~repro.session.LineageSession` in micro-batches:

* each batch consumes only the bytes appended since the last poll
  (:class:`~repro.sources.query_log.LogTailer` — torn final lines are left
  for the next poll, rotation/truncation restarts clean);
* statements are checked against the session's record of applied text
  (:attr:`~repro.session.LineageSession.statements`) before they reach
  the engine: a re-executed statement whose text is unchanged is absorbed
  by a string comparison — most production log traffic never touches the
  parser, and only changed statements are ever hashed;
* genuinely changed definitions go through the shared ingest core
  (:func:`repro.ingest.apply`), so only the dirty set is re-extracted per
  batch: the changed names, plus those of their transitive DAG dependents
  for which a relation they read changed its column list;
* a poison statement is **quarantined** the way ``POST /extract``
  quarantines it: the batch is bisected down to the statement, which gets
  the same ``{"type", "message"}`` error record and backoff; the rest of
  the batch lands, the offset advances, and the name keeps its previous
  definition (the batch's next-newest version of it, or what the session
  already had);
* after every applied batch the **resume offset** (byte offset + line
  count + prefix digest) is saved to ``<log>.offset.json``, a durable
  cursor (:mod:`repro.cursor`): one CRC'd record appended and fsync'd.  A
  restarted streamer verifies the digest by replaying the consumed prefix,
  re-applies it as *one* bootstrap batch (warm-spliced from the store; a
  name whose latest definition quarantines falls back past it, as in an
  uninterrupted run), and continues from the offset.  A log that was
  rotated or truncated fails the digest check and is re-ingested from
  scratch;
* when a name's definition changes, the **superseded** canonical content
  hashes are flagged in the store
  (:meth:`~repro.store.LineageStore.mark_superseded`), making the stale
  records preferential eviction candidates for ``store.gc(max_entries=…)``
  — optionally run in-line every ``compact_every`` batches.

Crash-safety contract: the offset is written *after* the refresh that
consumed the batch, so a crash between the two replays the batch on
resume.  Replays are idempotent — re-applying a statement whose text is
already current is a no-op, and the store absorbs re-extractions as warm
hits — so the end-state graph after SIGKILL + resume is byte-identical to
an uninterrupted run (and, without poison, to a one-shot batch load of
the same log).
"""

import os
import time

from . import cursor, ingest
from .quarantine import Quarantine
from .sources.query_log import LogTailer, _replay_order, _timestamp_key

#: schema version of the persisted offset file.
OFFSET_VERSION = 1


def default_offset_path(log_path):
    """Where the resume offset lives by default: next to the log."""
    return os.fspath(log_path) + ".offset.json"


def load_offset(path):
    """The resume offset last saved at ``path`` (``byte_offset``,
    ``line_count``, ``prefix_sha256``), or ``None``: a missing, unreadable
    or version-skewed cursor just means a cold start."""
    payload = cursor.load(path)
    if isinstance(payload, dict) and payload.get("version") == OFFSET_VERSION:
        return payload
    return None


class QueryLogStreamer:
    """Stream a JSONL query log into a session, micro-batch by micro-batch.

    Parameters
    ----------
    session:
        The :class:`~repro.session.LineageSession` to feed.  A sourceless
        session is the natural shape (the first batch bootstraps it); a
        session with prior state is refreshed incrementally.
    log:
        Path of the JSONL log file to tail.
    batch_statements:
        Maximum raw log lines consumed per :meth:`step` (default 1000).
    offset_path:
        Where to persist the resume offset (default:
        ``<log>.offset.json``).
    resume:
        Load and verify the persisted offset on the first step, replaying
        the consumed prefix as one bootstrap batch (default True).
    compact_max_entries:
        When set (and the session has a store), run
        ``store.gc(max_entries=compact_max_entries)`` every
        ``compact_every`` applied batches — superseded-definition records
        are evicted ahead of the LRU cutoff.
    compact_every:
        Batch interval of the in-line compaction (default 50).
    """

    def __init__(self, session, log, *, batch_statements=1000,
                 offset_path=None, resume=True,
                 compact_max_entries=None, compact_every=50):
        path = os.fspath(log)
        if not isinstance(path, str) or "\n" in path:
            raise ValueError("stream_log() takes a log file path, not inline text")
        self.session = session
        self.log_path = path
        self.batch_statements = max(1, int(batch_statements))
        self.offset_path = (
            os.fspath(offset_path) if offset_path is not None
            else default_offset_path(path)
        )
        self.resume_enabled = bool(resume)
        self.compact_max_entries = compact_max_entries
        self.compact_every = max(1, int(compact_every))
        self._tailer = LogTailer(path)
        #: name -> (ts_key, line_number, sql) of the chronologically-latest
        #: definition seen (ties broken by line number)
        self._winner_ts = {}
        #: name -> (line_number, sql) of the file-order-latest definition
        self._winner_line = {}
        #: False once any record's timestamp failed to parse — from then on
        #: (and retroactively) file order decides, matching parse_query_log
        self._all_keyed = True
        #: poisoned (name, hash) pairs, shared semantics with the daemon
        self.quarantine = Quarantine()
        self._saved_offset = None   # byte_offset last persisted
        self._resume_checked = False
        # counters (exposed via .stats)
        self.batches = 0
        self.statements = 0
        self.applied_statements = 0
        self.skipped_statements = 0
        self.quarantined_statements = 0
        self.resets = 0
        self.resumed_lines = 0
        self.compactions = 0
        self.superseded_marked = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def result(self):
        """The session's current extraction result (``None`` before any)."""
        return self.session.result

    @property
    def stats(self):
        elapsed = max(time.monotonic() - self._started, 1e-9)
        total = self.statements
        return {
            "batches": self.batches,
            "statements": total,
            "applied": self.applied_statements,
            "skipped": self.skipped_statements,
            "warm_hit_ratio": round(self.skipped_statements / total, 4) if total else 0.0,
            "quarantined": self.quarantined_statements,
            "resets": self.resets,
            "resumed_lines": self.resumed_lines,
            "compactions": self.compactions,
            "superseded_marked": self.superseded_marked,
            "elapsed_s": round(elapsed, 3),
            "stmt_per_s": round(total / elapsed, 1),
            "byte_offset": self._tailer.position.byte_offset,
            "line_count": self._tailer.position.line_count,
            "offset_path": self.offset_path,
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _maybe_resume(self):
        if self._resume_checked:
            return
        self._resume_checked = True
        if not self.resume_enabled:
            return
        payload = load_offset(self.offset_path)
        if payload is None:
            return
        try:
            byte_offset = int(payload["byte_offset"])
            line_count = int(payload["line_count"])
            prefix_sha256 = str(payload["prefix_sha256"])
        except (KeyError, TypeError, ValueError):
            return
        if byte_offset <= 0 or line_count <= 0:
            return
        # verify by replay: re-read exactly the consumed prefix and compare
        # the running digest — a rotated/truncated/rewritten log cannot
        # match, and the replayed records double as the bootstrap corpus
        records, _reset = self._tailer.read(max_lines=line_count)
        position = self._tailer.position
        if (
            position.byte_offset != byte_offset
            or position.line_count != line_count
            or position.prefix_sha256 != prefix_sha256
        ):
            self._tailer.reset()
            return
        self._ingest(records, self._absorb(records))
        self.resumed_lines = line_count
        self._saved_offset = byte_offset

    # ------------------------------------------------------------------
    # Batch mechanics
    # ------------------------------------------------------------------
    def _absorb(self, records):
        """Fold ``records`` into the per-name winner maps; returns the set
        of names whose effective definition may have changed."""
        dirty = set()
        for record in records:
            key = _timestamp_key(record.timestamp)
            if key is None and self._all_keyed:
                # one unparseable timestamp flips the whole log to file
                # order (parse_query_log parity) — every name's effective
                # winner may change, so mark them all dirty
                self._all_keyed = False
                dirty.update(self._winner_line)
                dirty.update(self.session.statements)
            name = record.name
            self._winner_line[name] = (record.line_number, record.sql)
            if key is not None:
                best = self._winner_ts.get(name)
                if best is None or (key, record.line_number) >= (best[0], best[1]):
                    self._winner_ts[name] = (key, record.line_number, record.sql)
            dirty.add(name)
        return dirty

    def _effective_sql(self, name):
        if self._all_keyed:
            winner = self._winner_ts.get(name)
            if winner is not None:
                return winner[2]
        winner = self._winner_line.get(name)
        return winner[1] if winner is not None else None

    def _ingest(self, records, names):
        """Apply the names whose effective definition the session lacks.

        Each changed name goes in with its definitions from ``records`` in
        winner order, so a quarantined winner falls back to the next one.
        Returns ``(names changed, versions quarantined)``.
        """
        changes = ingest.pending(
            self.session, {name: self._effective_sql(name) for name in names}
        )
        if not changes:
            return 0, 0
        seen = [record for record in records if record.name in changes]
        if self._all_keyed:
            seen = _replay_order(seen)
        versions = {name: [] for name in changes}
        for record in seen:
            versions[record.name].append(record.sql)
        for name, sql in changes.items():
            # each text at its latest position, the winner last
            versions[name] = list(dict.fromkeys(reversed(versions[name] + [sql])))[::-1]
        failed, superseded = ingest.apply(self.session, versions, self.quarantine)
        self.superseded_marked += superseded
        self.quarantined_statements += len(failed)
        return len(changes), len(failed)

    def _save_offset(self):
        position = self._tailer.position
        if position.byte_offset == self._saved_offset:
            return
        payload = dict(position.to_dict())
        payload["version"] = OFFSET_VERSION
        payload["log"] = os.path.abspath(self.log_path)
        payload["saved_at"] = time.time()
        cursor.save(self.offset_path, payload)
        self._saved_offset = position.byte_offset

    def _maybe_compact(self):
        if self.compact_max_entries is None:
            return
        store = self.session.store
        if store is None:
            return
        if self.batches % self.compact_every == 0:
            store.gc(max_entries=self.compact_max_entries)
            self.compactions += 1

    def step(self, *, consume_tail=False):
        """Consume one micro-batch; returns a per-batch report dict.

        ``consume_tail`` additionally parses a final line without a
        trailing newline (quiescent-log replay; never used while a
        producer may still be appending to that line).  The resume offset
        is persisted *after* the refresh — an interrupted batch replays.
        """
        self._maybe_resume()
        records, reset = self._tailer.read(max_lines=self.batch_statements)
        dirty = set()
        if reset:
            # the log was rotated/truncated: the session must restart
            # clean — every previously applied name is a removal candidate
            # unless the new log (re-)defines it
            self.resets += 1
            dirty.update(self.session.statements)
            self._winner_ts = {}
            self._winner_line = {}
            self._all_keyed = True
        tail_consumed = 0
        if consume_tail and not records:
            tail = self._tailer.peek_tail()
            if tail is not None:
                records = [tail]
                tail_consumed = 1
        dirty |= self._absorb(records)
        consumed = len(records)
        applied, quarantined = self._ingest(records, dirty)
        self.statements += consumed
        self.applied_statements += applied
        self.skipped_statements += consumed - min(applied, consumed)
        if consumed or reset:
            self.batches += 1
        self._save_offset()
        if applied:
            self._maybe_compact()
        return {
            "consumed": consumed,
            "applied": applied,
            "quarantined": quarantined,
            "reset": reset,
            "tail": tail_consumed,
            "byte_offset": self._tailer.position.byte_offset,
            "line_count": self._tailer.position.line_count,
        }

    def run(self, *, follow=False, poll_interval=0.25, max_batches=None,
            stop=None, on_batch=None):
        """Drive :meth:`step` until the log is drained (or forever).

        ``follow=False`` (default) replays the log to EOF — including a
        final unterminated line — and returns; ``follow=True`` keeps
        polling every ``poll_interval`` seconds until ``stop`` (a
        ``threading.Event``) is set or ``max_batches`` productive batches
        have been consumed.  ``on_batch(report)`` is invoked after every
        productive batch.  Returns :attr:`stats`.
        """
        self._maybe_resume()
        while True:
            if stop is not None and stop.is_set():
                break
            report = self.step(consume_tail=not follow)
            if report["consumed"] or report["reset"]:
                if on_batch is not None:
                    on_batch(report)
                if max_batches is not None and self.batches >= max_batches:
                    break
                # an unterminated final line can never be committed to the
                # offset, so a tail-only batch is the end of the drain —
                # looping again would re-consume the same tail forever
                if not report["tail"]:
                    continue
            if not follow:
                break
            if stop is not None:
                if stop.wait(poll_interval):
                    break
            else:
                time.sleep(poll_interval)
        return self.stats
