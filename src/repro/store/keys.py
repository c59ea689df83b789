"""Cache-key anatomy for the persistent lineage store.

A stored :class:`~repro.core.lineage.TableLineage` record is addressed by
four components, combined into one content-addressed key:

``content_hash``
    The statement's semantic fingerprint
    (:attr:`~repro.core.preprocess.ParsedQuery.content_hash` — sha256 of
    the canonically printed statement plus its kind, so whitespace and
    comment edits do not invalidate).
``dialect``
    The SQL dialect the statement was parsed under; identifier folding
    differs across dialects, so records never cross them.
``extractor_version``
    :data:`~repro.core.extractor.EXTRACTOR_VERSION` — bumped whenever the
    extraction rules change, turning every existing record into a cold
    miss.
``schema_fingerprint``
    A digest of everything *outside* the statement that shaped its
    extraction: for every relation the statement references, the column
    list it resolved against (an upstream view's output columns, a catalog
    table's schema, or "unknown external"), plus the ``strict`` resolution
    flag.  An upstream schema change therefore invalidates every dependent
    record even though the dependents' SQL is unchanged.

All four must match for a warm hit; any mismatch is simply a miss, never
an error.
"""

import hashlib

#: marker digested for a relation whose columns are unknown (an external
#: base table with no catalog entry) — distinct from an empty column list.
_UNKNOWN = "\x00?"


def schema_fingerprint(dependency_schemas, strict=False):
    """Digest the schemas visible to one statement's extraction.

    ``dependency_schemas`` is an iterable of ``(relation_name, columns)``
    pairs where ``columns`` is an ordered list of column names or ``None``
    when the relation's schema was unknown at extraction time.  The pairs
    are sorted here, so callers may pass them in any order.
    """
    digest = hashlib.sha256()
    digest.update(b"strict" if strict else b"lenient")
    for name, columns in sorted(
        dependency_schemas, key=lambda pair: str(pair[0])
    ):
        digest.update(b"\x00r")
        digest.update(str(name).encode("utf-8"))
        if columns is None:
            digest.update(_UNKNOWN.encode("utf-8"))
        else:
            for column in columns:
                digest.update(b"\x00c")
                digest.update(str(column).encode("utf-8"))
    return digest.hexdigest()


def make_key(content_hash, dialect, extractor_version, schema_fingerprint):
    """Combine the four key components into one content-addressed key."""
    payload = "\x00".join(
        [str(content_hash), str(dialect), str(extractor_version), str(schema_fingerprint)]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def source_key(text, dialect, parse_record_version):
    """The parse-cache key of one raw source fragment.

    Keyed on the *raw* text (not the canonical print — producing the
    canonical print requires the very parse the cache avoids), the dialect,
    and the parse-record format version.
    """
    digest = hashlib.sha256()
    digest.update(b"parse\x00")
    digest.update(str(dialect).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(parse_record_version).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(text).encode("utf-8"))
    return digest.hexdigest()
