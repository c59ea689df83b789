"""The source-adapter contract and the auto-detection registry.

A :class:`Source` adapts one kind of input — raw SQL text, a ``.sql`` file,
a directory of files, a dbt project, a JSONL query log — into the
``{name: sql}`` / text shape the preprocessing module consumes.  Adapters
register themselves with :func:`register_source`; :meth:`Source.detect`
walks the registry in priority order and returns the first adapter whose
:meth:`~Source.matches` accepts the raw input, so the session façade (and
the one-call API on top of it) can take "anything" without a mode flag.

Adapters that are backed by something re-scannable (a directory, a log
file) additionally support :meth:`~Source.rescan` and
:meth:`~Source.fingerprint`, which the session's ``refresh()`` uses for
content-hash change detection: re-scan, diff the per-name hashes against
the snapshot taken at extraction time, and feed only the delta into the
incremental layer.
"""

import hashlib


class SourceDetectionError(TypeError):
    """No registered adapter accepts the given raw input."""


class Source:
    """Base class for input adapters.

    Subclasses set :attr:`kind` (the registry name), :attr:`priority`
    (lower = consulted earlier during detection) and implement
    :meth:`matches` and :meth:`load`.
    """

    #: registry name, e.g. ``"directory"`` — also what ``detect`` reports.
    kind = "abstract"
    #: detection order; more specific adapters get lower numbers so the
    #: catch-all text adapter only fires when nothing else claims the input.
    priority = 100

    def __init__(self, raw):
        self.raw = raw

    # -- the adapter contract ------------------------------------------
    @classmethod
    def matches(cls, raw):
        """True when this adapter can ingest ``raw`` (used by ``detect``)."""
        return False

    def load(self):
        """The preprocess()-compatible payload (SQL text or ``{name: sql}``)."""
        raise NotImplementedError

    # -- refresh support (optional) ------------------------------------
    @property
    def supports_rescan(self):
        """Whether :meth:`rescan` re-reads the backing store."""
        return False

    def rescan(self):
        """Re-read the backing store and return a fresh ``{name: sql}`` map.

        Only meaningful when :attr:`supports_rescan` is true; the default
        raises so callers get a clear message instead of stale data.
        """
        raise SourceDetectionError(
            f"{self.kind!r} sources are not backed by a re-scannable store; "
            "pass the changes to refresh() explicitly"
        )

    def fingerprint(self):
        """``{name: sha256(text)}`` over the current payload, when mappable.

        Returns ``None`` for payloads without stable per-name addressing
        (raw scripts, lists) — the session then skips rescan-based change
        detection for this source.
        """
        payload = self.load()
        if isinstance(payload, dict):
            return fingerprint_mapping(payload)
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.raw!r})"


def content_hash(text):
    """sha256 hex digest of one raw source text: the rescan fingerprint,
    and the statement hash of ingest (quarantine key, journal entries)."""
    return hashlib.sha256(str(text).encode("utf-8")).hexdigest()


def read_sql_file(path):
    """The text of one ``.sql`` file.  A file that is not UTF-8 raises
    :class:`UnicodeDecodeError` with the file's path in ``filename``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as error:
            error.filename = path
            raise


def fingerprint_mapping(mapping):
    """Per-name content hashes for a ``{name: sql}`` payload."""
    return {name: content_hash(sql) for name, sql in mapping.items()}


def diff_fingerprints(old, new_mapping):
    """The ``{name: sql-or-None}`` delta between a snapshot and a re-scan.

    Names whose hash changed (or that are new) map to their current text;
    names that disappeared map to ``None`` — exactly the ``changes`` shape
    :meth:`repro.core.runner.LineageXResult.update` consumes.
    """
    new_hashes = fingerprint_mapping(new_mapping)
    changes = {
        name: new_mapping[name]
        for name, value in new_hashes.items()
        if old.get(name) != value
    }
    for name in old:
        if name not in new_hashes:
            changes[name] = None
    return changes


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_SOURCE_TYPES = []


def register_source(source_class):
    """Register an adapter class for auto-detection (usable as a decorator).

    Registration is idempotent per class; adapters are consulted in
    ascending :attr:`Source.priority` order (registration order breaks
    ties).
    """
    if source_class not in _SOURCE_TYPES:
        _SOURCE_TYPES.append(source_class)
        _SOURCE_TYPES.sort(key=lambda cls: cls.priority)
    return source_class


def registered_sources():
    """The registered adapter classes in detection order."""
    return list(_SOURCE_TYPES)


def detect(raw):
    """Dispatch ``raw`` to the first adapter that claims it.

    A :class:`Source` instance passes through unchanged, so callers can
    always force a specific adapter by constructing it themselves.
    """
    if isinstance(raw, Source):
        return raw
    for source_class in _SOURCE_TYPES:
        if source_class.matches(raw):
            return source_class(raw)
    raise SourceDetectionError(
        "no source adapter accepts input of type "
        f"{type(raw).__name__}; expected SQL text, a {{name: sql}} mapping, "
        "a .sql file or directory path, a dbt project, or a JSONL query log"
    )


# give Source itself the registry entry point
Source.detect = staticmethod(detect)
