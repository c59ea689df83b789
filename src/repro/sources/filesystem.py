"""Filesystem-backed SQL input: one ``.sql`` file or a directory of them.

:class:`DirectorySource` is the adapter behind the session's rescan-based
``refresh()``: it reads every ``*.sql`` file into a ``{stem: sql}`` mapping
(the same shape and key normalisation :func:`repro.core.preprocess` uses
for directory paths), so a second scan can be content-hash-diffed against
the first and only the edited files re-extracted.
"""

import os

from .base import Source, read_sql_file, register_source
from ..sqlparser.dialect import normalize_name


def _is_pathlike(raw):
    return isinstance(raw, (str, os.PathLike))


def _fspath(raw):
    return os.fspath(raw) if isinstance(raw, os.PathLike) else raw


@register_source
class FileSource(Source):
    """A single ``.sql`` file."""

    kind = "file"
    priority = 40

    @classmethod
    def matches(cls, raw):
        if not _is_pathlike(raw):
            return False
        path = _fspath(raw)
        if "\n" in path or ";" in path:
            return False
        return os.path.isfile(path) and path.endswith(".sql")

    @property
    def path(self):
        return _fspath(self.raw)

    def load(self):
        # hand the path itself to preprocess() so identifier generation for
        # anonymous statements matches the historical file-input behaviour
        return self.path


@register_source
class DirectorySource(Source):
    """A directory of ``.sql`` files (non-recursive, sorted by filename)."""

    kind = "directory"
    priority = 30

    @classmethod
    def matches(cls, raw):
        if not _is_pathlike(raw):
            return False
        path = _fspath(raw)
        if "\n" in path or ";" in path:
            return False
        return os.path.isdir(path)

    @property
    def path(self):
        return _fspath(self.raw)

    def load(self):
        return self.scan()

    def scan(self):
        """``{normalized stem: text}`` for every ``*.sql`` file, sorted."""
        mapping = {}
        for filename in sorted(os.listdir(self.path)):
            if not filename.endswith(".sql"):
                continue
            mapping[normalize_name(os.path.splitext(filename)[0])] = read_sql_file(
                os.path.join(self.path, filename)
            )
        return mapping

    @property
    def supports_rescan(self):
        return True

    def rescan(self):
        return self.scan()
