"""Persistent, content-addressed storage for extraction results.

The store is the warm-start layer of the stack: extraction results keyed by
``(content_hash, dialect, extractor_version, schema_fingerprint)`` survive
the process in an SQLite file, so a fresh :class:`~repro.session.LineageSession`
over an unchanged corpus splices every entry from disk instead of
re-extracting it — the on-disk analogue of what the incremental layer does
in memory with ``prev_result``.

>>> from repro import LineageSession
>>> LineageSession("models/", cache_dir=".lineage-cache").extract()  # cold
>>> LineageSession("models/", cache_dir=".lineage-cache").extract()  # warm

See :mod:`repro.store.keys` for the cache-key anatomy and invalidation
rules, and :class:`repro.store.store.LineageStore` for the backend.
"""

from .keys import make_key, schema_fingerprint
from .store import STORE_FILENAME, LineageStore

__all__ = [
    "LineageStore",
    "STORE_FILENAME",
    "make_key",
    "schema_fingerprint",
]
