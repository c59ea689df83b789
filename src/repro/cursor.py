"""Durable cursors: a consumer's last finished position, cheap to move.

Two consumers remember how far they got: the serving journal's
``checkpoint.json`` (the highest published offset, see
:meth:`~repro.server.journal.IngestJournal.checkpoint`) and the query-log
streamer's resume offset (``<log>.offset.json``, see
:class:`~repro.streaming.QueryLogStreamer`).  Both are *hints*: replay
reads the whole journal, and re-applying a stream prefix is idempotent, so
losing the newest position costs repeated work, never data.  They are
saved after every batch, though, so a save has to be cheap.

A cursor file is append-only, one JSON line per save::

    {"c":<crc32 of the payload>,"r":<payload>}

and the last valid line wins.  A save opens the file in append mode,
writes one record, fsyncs and closes it: tens of microseconds on ext4,
where writing a temp file and renaming it over the old one costs tens of
milliseconds.  A line that fails its JSON or CRC check (a torn final
append, a damaged sector) is skipped, so the record before it wins.  A
save that would grow the file past :data:`MAX_BYTES` rewrites it to hold
only the new record (temp file, fsync, rename), which bounds the file
and the time to load it.

Torn bytes never prefix a later record: a save that fails after writing
cuts the file back to the length it found, and a save that finds a file
not ending in a whole line (a crash mid-append, or a cut that failed too)
rewrites it instead of appending.

A cursor written before this format (one bare JSON object, replaced
atomically) loads as the file's first record.
"""

import json
import os
import zlib

from .testing import faults

#: a save that would grow a cursor file past this size rewrites it to its
#: newest record: one rename per thousand or so stream-offset saves, and a
#: bound on what :func:`load` reads.
MAX_BYTES = 256 * 1024


def _body(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(body):
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF


def _record(payload):
    body = _body(payload)
    return f'{{"c":{_crc(body)},"r":{body}}}\n'.encode("utf-8")


def _payload(line, first):
    """The payload ``line`` carries, or ``None`` if it is not a valid record."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    if record.keys() == {"c", "r"}:
        return record["r"] if record["c"] == _crc(_body(record["r"])) else None
    # a file from before cursors: its one bare object is the first record
    return record if first else None


def load(path):
    """The payload of the newest valid record at ``path``, or ``None``.

    ``None`` also covers a missing or unreadable file: every caller
    treats that as "no position saved yet".
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except OSError:
        return None
    for index in range(len(lines) - 1, -1, -1):
        if lines[index]:
            payload = _payload(lines[index], first=index == 0)
            if payload is not None:
                return payload
    return None


def save(path, payload, fsync=True):
    """Make ``payload`` the newest record at ``path`` (created if missing).

    ``fsync=False`` skips the fsync (a benchmark ablation: the record then
    survives a process kill but not a power loss).  Raises ``OSError`` (or
    an injected fault) when the record could not be written; the previous
    record still loads.
    """
    record = _record(payload)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        appendable = end + len(record) <= MAX_BYTES and (
            end == 0 or os.pread(fd, 1, end - 1) == b"\n"
        )
        if appendable:
            try:
                _write(fd, record, fsync)
            except (OSError, faults.InjectedFault):
                try:
                    os.ftruncate(fd, end)
                except OSError:
                    pass  # the next save finds the torn tail and rewrites
                raise
    finally:
        os.close(fd)
    if not appendable:
        _rewrite(path, record, fsync)


def _write(fd, record, fsync):
    view = memoryview(record)
    while view:
        view = view[os.write(fd, view):]
    faults.fire("cursor.fsync")
    if fsync:
        os.fsync(fd)


def _rewrite(path, record, fsync):
    staging = path + ".tmp"
    fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write(fd, record, fsync)
    finally:
        os.close(fd)
    os.replace(staging, path)
