"""The ingest write-ahead journal — what makes the daemon crash-safe.

The serving graph lives in memory; the persistent store is a *cache*
keyed by content hash, not a record of what the daemon has been asked to
serve.  Before this module, a SIGKILL mid-batch lost every accepted
statement since boot.  The journal closes that gap: every novel
statement an ``/extract`` batch accepts is appended here — name,
canonical text, content hash, a monotonic offset, and a CRC — flushed
and ``fsync``'d *before* extraction starts.  A restarted daemon replays
the journal through the normal batcher and arrives at a graph
byte-identical to an uninterrupted run (the store makes the replay warm,
so recovery is splice-speed, not parse-speed).

On-disk layout (inside ``--journal-dir``):

* ``segment-<start-offset>.jsonl`` — append-only entry files, one JSON
  object per line: ``{"o": offset, "n": name, "h": sha256, "c": crc32,
  "s": sql}``.  A new segment opens every ``segment_max_entries``
  entries.  A torn final line (the crash landed mid-append) fails its
  CRC/JSON check and is discarded at replay — by construction only the
  tail of the newest segment can be torn, because entries before it were
  fsync'd.
* ``checkpoint.json`` — a durable cursor (:mod:`repro.cursor`) whose
  newest record is ``{"applied": offset}``: one CRC'd line appended and
  fsync'd after each snapshot publish.  Entries at or below the
  checkpoint were *published* before the crash; entries above it are the
  unapplied suffix.  Replay runs the whole journal (the graph is
  memory-only), but the checkpoint is what compaction and the
  SIGTERM-during-preload guarantee are measured against.
* ``quarantined.jsonl`` — offset tombstones (``{"q": offset, "c":
  crc}``) for journaled statements that *quarantined* instead of
  publishing.  The batcher journals before extraction, so a poison
  redefinition of a healthy name lands in the journal; without the
  tombstone, replay's and compaction's latest-per-name selection would
  shadow the name's last *published* definition with text that never
  made it into the graph.  Marked offsets are excluded from replay and
  from compaction survivors, and ``next_offset`` accounts for them so a
  compacted-away mark can never collide with a reused offset.  Lines
  are independent records: a torn mark line is skipped, not
  segment-ending, and a lost mark only costs a redundant replay attempt
  (the batcher re-quarantines and falls back; see
  :meth:`~repro.server.batcher.IngestBatcher.replay`).

Compaction: once every offset of a closed segment is at or below the
checkpoint (published, hence its extraction durable in the store), the
applied prefix is rewritten as one segment holding only the *latest*
entry per name — replaying latest-per-name yields the same final graph,
so dead redefinitions stop costing replay time and disk.  The rewrite is
crash-safe: the compacted segment is staged under a temporary name,
renamed into place, and only then are the superseded segments unlinked;
a crash between rename and unlink leaves overlapping segments, which
replay tolerates by deduplicating on offset.

Failure semantics: an append that cannot be made durable raises
:class:`JournalWriteError`; the batcher fails that batch with a
*retryable* error (HTTP 503) and the daemon keeps serving — reads and
duplicate-answering never touch the journal.  A *partial* append
failure (ENOSPC mid-flush) may leave torn bytes inside the active
segment; because replay stops a segment at its first invalid line,
later durable entries written after that tear would be silently lost.
So a failed append repairs the segment before the journal accepts
anything else: the file is truncated back to its last fsync'd length,
and if even that fails the segment is abandoned (the next append
rotates) with ``next_offset`` advanced past every offset a torn line
could claim — an abandoned segment's completed-but-unacknowledged lines
may replay, which is sound because the client got a 503 and retries
(dedupe absorbs the overlap), while acknowledged entries always land in
a clean segment that replay reads in full.
"""

import json
import os
import zlib

from .. import cursor
from ..testing import faults

#: default entries per segment before rotation.
SEGMENT_MAX_ENTRIES = 1024

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
_CHECKPOINT = "checkpoint.json"
_QUARANTINED = "quarantined.jsonl"


class JournalError(Exception):
    """Base class for journal failures."""


class JournalWriteError(JournalError):
    """An append or checkpoint could not be made durable."""


def _entry_crc(offset, name, digest, sql):
    payload = f"{offset}\x00{name}\x00{digest}\x00{sql}".encode("utf-8")
    return zlib.crc32(payload) & 0xFFFFFFFF


def _mark_crc(offset):
    return zlib.crc32(str(int(offset)).encode("utf-8")) & 0xFFFFFFFF


def _segment_name(start_offset):
    return f"{_SEGMENT_PREFIX}{start_offset:016d}{_SEGMENT_SUFFIX}"


class IngestJournal:
    """Append-only, fsync'd, checkpointed record of accepted statements.

    Parameters
    ----------
    directory:
        Where segments and the checkpoint live (created if missing).
    segment_max_entries:
        Rotation threshold; small values are useful in tests.
    fsync:
        ``False`` skips the per-batch ``os.fsync`` of segments and
        checkpoint (benchmark ablation only — a journal that is not
        fsync'd does not survive power loss, though it still survives
        SIGKILL).
    """

    def __init__(self, directory, segment_max_entries=SEGMENT_MAX_ENTRIES,
                 fsync=True):
        self.directory = os.fspath(directory)
        self.segment_max_entries = max(1, int(segment_max_entries))
        self.use_fsync = bool(fsync)
        os.makedirs(self.directory, exist_ok=True)
        self._handle = None           # open append handle of the active segment
        self._segment_path = None
        self._tops = {}               # segment path -> highest offset (None: empty)
        self._segment_entries = 0     # entries in the active segment
        self._synced_size = 0         # fsync'd byte length of the active segment
        self.appended = 0             # entries appended by THIS process
        self.compactions = 0
        entries = self._scan()
        self._entries_on_disk = len(entries)
        self._quarantined = self._read_marks()
        # next_offset clears the marks too: a mark may outlive its entry
        # (compaction GC is best-effort), and a reused marked offset
        # would wrongly exclude a fresh entry from replay
        top = max(entries) if entries else -1
        if self._quarantined:
            top = max(top, max(self._quarantined))
        self.next_offset = top + 1
        self._checkpoint_path = os.path.join(self.directory, _CHECKPOINT)
        try:
            self.applied_offset = int(cursor.load(self._checkpoint_path)["applied"])
        except (KeyError, TypeError, ValueError):
            self.applied_offset = -1

    # ------------------------------------------------------------------
    # disk scanning
    # ------------------------------------------------------------------
    def _segment_paths(self):
        try:
            names = sorted(
                name
                for name in os.listdir(self.directory)
                if name.startswith(_SEGMENT_PREFIX)
                and name.endswith(_SEGMENT_SUFFIX)
            )
        except OSError:
            return []
        return [os.path.join(self.directory, name) for name in names]

    def _read_segment(self, path):
        """``{offset: (name, sql, hash)}`` for one segment file.

        A line that fails JSON or CRC validation ends the segment: only a
        torn tail can produce one, and nothing after a torn write is
        trustworthy.
        """
        entries = {}
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        offset = int(record["o"])
                        name = record["n"]
                        digest = record["h"]
                        sql = record["s"]
                        crc = int(record["c"])
                    except (ValueError, KeyError, TypeError):
                        break
                    if _entry_crc(offset, name, digest, sql) != crc:
                        break
                    entries[offset] = (name, sql, digest)
        except OSError:
            return {}
        return entries

    def _scan(self):
        """Every valid entry on disk: ``{offset: (name, sql, hash)}``.

        Offsets are deduplicated (first segment wins) so an interrupted
        compaction — compacted segment renamed in, old segments not yet
        unlinked — replays each offset exactly once.  Also records each
        segment's highest offset, which is all compaction needs to know
        about a segment until it folds it.
        """
        entries = {}
        self._tops = {}
        for path in self._segment_paths():
            segment = self._read_segment(path)
            self._tops[path] = max(segment) if segment else None
            for offset, entry in segment.items():
                entries.setdefault(offset, entry)
        return entries

    def _read_marks(self):
        """The persisted quarantined-offset set.

        Mark lines are independent records (order and gaps carry no
        meaning), so an invalid line is skipped rather than ending the
        file the way a torn segment line would.
        """
        marks = set()
        try:
            with open(
                os.path.join(self.directory, _QUARANTINED), "r",
                encoding="utf-8", errors="replace",
            ) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        offset = int(record["q"])
                        crc = int(record["c"])
                    except (ValueError, KeyError, TypeError):
                        continue
                    if _mark_crc(offset) == crc:
                        marks.add(offset)
        except OSError:
            pass
        return marks

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def _rotate(self):
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
        self._segment_path = os.path.join(
            self.directory, _segment_name(self.next_offset)
        )
        try:
            self._handle = open(self._segment_path, "a", encoding="utf-8")
            self._handle.seek(0, os.SEEK_END)
            self._synced_size = self._handle.tell()
        except OSError as error:
            self._handle = None
            raise JournalWriteError(
                f"cannot open journal segment {self._segment_path}: {error}"
            ) from error
        self._tops.setdefault(self._segment_path, None)
        self._segment_entries = 0

    def append_batch(self, statements):
        """Durably append ``[(name, sql, hash)]``; returns their offsets.

        The entries are written, flushed, and fsync'd as one batch —
        extraction must not start until this returns.  Raises
        :class:`JournalWriteError` if durability cannot be promised.
        """
        if not statements:
            return []
        if self._handle is None or self._segment_entries >= self.segment_max_entries:
            self._rotate()
        offsets = []
        lines = []
        for name, sql, digest in statements:
            offset = self.next_offset + len(offsets)
            lines.append(
                json.dumps(
                    {
                        "o": offset,
                        "n": name,
                        "h": digest,
                        "c": _entry_crc(offset, name, digest, sql),
                        "s": sql,
                    },
                    sort_keys=True,
                )
            )
            offsets.append(offset)
        try:
            self._handle.write("\n".join(lines) + "\n")
            self._handle.flush()
            faults.fire("journal.fsync")
            if self.use_fsync:
                os.fsync(self._handle.fileno())
            self._synced_size = self._handle.tell()
        except (OSError, ValueError, faults.InjectedFault) as error:
            self._discard_torn_tail(len(offsets))
            raise JournalWriteError(f"journal append failed: {error}") from error
        self.next_offset += len(offsets)
        self._tops[self._segment_path] = offsets[-1]
        self._segment_entries += len(offsets)
        self._entries_on_disk += len(offsets)
        self.appended += len(offsets)
        for _ in offsets:
            # one hit per durable entry: the crash suite kills the
            # process "at offset k" by counting these
            faults.fire("journal.append")
        return offsets

    def _discard_torn_tail(self, batch_size):
        """Repair the active segment after a failed append.

        The failed write may have left torn bytes in the file; durable
        entries appended after them would sit behind a line replay
        refuses, silently losing acknowledged work.  Truncating back to
        the last fsync'd length restores the "only the tail can be
        torn" invariant.  If even the truncate fails, the segment is
        abandoned — the handle is dropped so the next append rotates —
        and ``next_offset`` skips past every offset the failed batch
        could have written, so a torn-but-parseable line can never
        collide with a later acknowledged entry.
        """
        handle = self._handle
        if handle is None:
            return
        try:
            handle.truncate(self._synced_size)
            handle.flush()
            if self.use_fsync:
                os.fsync(handle.fileno())
        except (OSError, ValueError):
            try:
                handle.close()
            except (OSError, ValueError):
                pass
            self._handle = None
            self.next_offset += batch_size
            # a torn line of the abandoned segment may claim any skipped offset
            self._tops[self._segment_path] = self.next_offset - 1

    def mark_quarantined(self, offsets):
        """Durably tombstone journal offsets that quarantined instead of
        publishing; returns the offsets newly marked.

        Replay and compaction skip marked offsets, so a poison
        redefinition can never shadow a name's last *published*
        definition.  Raises :class:`JournalWriteError` when the marks
        cannot be made durable — the batcher then holds the checkpoint
        below the unmarked offsets so compaction cannot fold away the
        prior entry the name must fall back to.
        """
        fresh = sorted({int(offset) for offset in offsets} - self._quarantined)
        if not fresh:
            return []
        path = os.path.join(self.directory, _QUARANTINED)
        lines = [
            json.dumps({"c": _mark_crc(offset), "q": offset}, sort_keys=True)
            for offset in fresh
        ]
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
                if self.use_fsync:
                    os.fsync(handle.fileno())
        except (OSError, ValueError) as error:
            raise JournalWriteError(
                f"quarantine mark failed: {error}"
            ) from error
        self._quarantined.update(fresh)
        return fresh

    def quarantined_offsets(self):
        """The marked offsets (a copy; for stats and tests)."""
        return set(self._quarantined)

    def checkpoint(self, offset):
        """Record that every entry at or below ``offset`` was published."""
        if offset <= self.applied_offset:
            return
        try:
            cursor.save(
                self._checkpoint_path,
                {"version": 1, "applied": int(offset)},
                fsync=self.use_fsync,
            )
        except (OSError, faults.InjectedFault) as error:
            raise JournalWriteError(f"checkpoint failed: {error}") from error
        self.applied_offset = int(offset)
        self._maybe_compact()

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay_entries(self):
        """Every durable entry, offset order: ``[(offset, name, sql, hash)]``.

        The caller (daemon boot) feeds these through the normal batching
        path with journaling disabled — they are already durable.
        Offsets marked quarantined are excluded: those statements never
        published pre-crash, and replaying one would shadow the name's
        last good definition.
        """
        entries = self._scan()
        return [
            (offset, name, sql, digest)
            for offset, (name, sql, digest) in sorted(entries.items())
            if offset not in self._quarantined
        ]

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self):
        """Fold fully-applied closed segments into one latest-per-name segment.

        Runs after a checkpoint advance.  Only segments that are (a) not
        the active append segment and (b) entirely at or below the
        checkpoint are eligible, and compaction only pays off once there
        is more than one of them.  Eligibility comes from the in-memory
        segment tops, so a checkpoint with nothing to fold reads no file.
        """
        paths = sorted(
            path
            for path, top in self._tops.items()
            if path != self._segment_path
            and (top is None or top <= self.applied_offset)
        )
        if len(paths) < 2:
            return
        eligible = [(path, self._read_segment(path)) for path in paths]
        merged = {}
        for _, entries in eligible:
            for offset, entry in entries.items():
                merged.setdefault(offset, entry)
        # quarantined entries never published: dropping them here is what
        # lets the name's last *published* definition win latest-per-name
        for offset in self._quarantined:
            merged.pop(offset, None)
        # latest entry per name survives, keyed back by its offset
        latest = {}
        for offset in sorted(merged):
            name, sql, digest = merged[offset]
            latest[name] = (offset, sql, digest)
        survivors = sorted(
            (offset, name, sql, digest)
            for name, (offset, sql, digest) in latest.items()
        )
        if not survivors:
            for path in paths:
                self._unlink(path)
                del self._tops[path]
            return
        start = survivors[0][0]
        target = os.path.join(self.directory, _segment_name(start))
        staging = target + ".compact"
        try:
            with open(staging, "w", encoding="utf-8") as handle:
                for offset, name, sql, digest in survivors:
                    handle.write(
                        json.dumps(
                            {
                                "o": offset,
                                "n": name,
                                "h": digest,
                                "c": _entry_crc(offset, name, digest, sql),
                                "s": sql,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                handle.flush()
                if self.use_fsync:
                    os.fsync(handle.fileno())
            os.replace(staging, target)
        except OSError:
            self._unlink(staging)
            return  # compaction is an optimisation; failing it changes nothing
        for path, _ in eligible:
            if path != target:
                self._unlink(path)
        self.compactions += 1
        remaining = self._scan()
        self._entries_on_disk = len(remaining)
        self._gc_marks(remaining)

    def _gc_marks(self, entries_on_disk):
        """Drop marks whose offsets compaction removed (best-effort).

        A stale mark is harmless — ``next_offset`` accounts for marks,
        so a compacted-away marked offset is never reused — which is
        what makes a failed rewrite safe to ignore.
        """
        live = self._quarantined & set(entries_on_disk)
        if live == self._quarantined:
            return
        path = os.path.join(self.directory, _QUARANTINED)
        staging = path + ".tmp"
        try:
            with open(staging, "w", encoding="utf-8") as handle:
                for offset in sorted(live):
                    handle.write(
                        json.dumps(
                            {"c": _mark_crc(offset), "q": offset},
                            sort_keys=True,
                        )
                        + "\n"
                    )
                handle.flush()
                if self.use_fsync:
                    os.fsync(handle.fileno())
            os.replace(staging, path)
        except OSError:
            self._unlink(staging)
            return
        self._quarantined = live

    @staticmethod
    def _unlink(path):
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def stats(self):
        """Journal counters for ``/stats`` and the robustness benchmark."""
        return {
            "directory": self.directory,
            "next_offset": self.next_offset,
            "applied_offset": self.applied_offset,
            "entries_on_disk": self._entries_on_disk,
            "appended": self.appended,
            "segments": len(self._segment_paths()),
            "compactions": self.compactions,
            "quarantined_offsets": len(self._quarantined),
            "fsync": self.use_fsync,
        }

    def close(self):
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
