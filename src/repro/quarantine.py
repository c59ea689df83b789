"""Poison-statement quarantine: bounded, backed-off, inspectable.

Both ingest front ends (the serving daemon's ``/extract`` and ``repro
stream``) share one failure domain through :mod:`repro.ingest`: when a
statement fails to parse or extract, its ``(name, content-hash)`` pair
lands here with a structured error and an exponential backoff, the
*rest* of the batch lands normally, and the statement is reported as
``quarantined`` instead of failing its whole batch.

Semantics:

* the key is the ``(name, hash)`` pair — ingest's ``(name, text)``
  dedupe key, hashed.  Fixing the SQL changes the hash, so a corrected
  resubmission is a fresh pair and extracts immediately; the daemon
  rejects the *same* broken text inside the backoff window up front
  (status ``quarantined``, with ``retry_after_seconds``) without burning
  a parse;
* backoff doubles per failure (``base * 2**(failures-1)``, capped), so a
  client hammering a poison statement converges to the cap instead of
  re-parsing on every batch.  After the window expires the pair may try
  again — a transiently failing statement (injected fault, store hiccup)
  clears itself on its first success;
* the table is bounded: beyond ``max_entries`` the entry with the oldest
  failure is evicted (its statement simply gets a fresh trial on
  resubmission), so hostile input cannot grow daemon memory;
* ``GET /quarantine`` renders :meth:`rows` — everything an operator
  needs to see what is stuck and why.

Writes come from one ingest step at a time (the daemon runs its steps
one after another, on the loop and in one worker thread), and reads
copy what they iterate — no lock needed.
"""

import time

#: first-failure backoff, seconds.
BACKOFF_BASE = 1.0
#: backoff ceiling, seconds.
BACKOFF_CAP = 60.0
#: default table bound.
MAX_ENTRIES = 256


class QuarantineEntry:
    """One poisoned ``(name, hash)`` pair and its failure history."""

    __slots__ = ("name", "digest", "error", "failures", "first_failure",
                 "last_failure", "blocked_until")

    def __init__(self, name, digest, error, now):
        self.name = name
        self.digest = digest
        self.error = error            # {"type": ..., "message": ...}
        self.failures = 0
        self.first_failure = now
        self.last_failure = now
        self.blocked_until = now


class Quarantine:
    """Bounded table of poisoned statements with exponential backoff."""

    def __init__(self, max_entries=MAX_ENTRIES, backoff_base=BACKOFF_BASE,
                 backoff_cap=BACKOFF_CAP, clock=time.monotonic):
        self.max_entries = max(1, int(max_entries))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._clock = clock
        self._entries = {}   # (name, digest) -> QuarantineEntry
        self.counters = {"recorded": 0, "blocked": 0, "cleared": 0, "evicted": 0}

    def __len__(self):
        return len(self._entries)

    def get(self, name, digest):
        return self._entries.get((name, digest))

    # ------------------------------------------------------------------
    def blocked_for(self, name, digest, now=None):
        """Seconds until ``(name, digest)`` may retry, or ``None`` if free.

        Free means unknown *or* backoff expired — an expired entry stays
        in the table (its failure count keeps compounding if it fails
        again) but no longer blocks submission.
        """
        entry = self._entries.get((name, digest))
        if entry is None:
            return None
        now = self._clock() if now is None else now
        remaining = entry.blocked_until - now
        if remaining <= 0:
            return None
        self.counters["blocked"] += 1
        return remaining

    def record(self, name, digest, error, now=None):
        """Register a failure; returns the backoff applied (seconds)."""
        now = self._clock() if now is None else now
        key = (name, digest)
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.max_entries:
                self._evict_oldest()
            entry = self._entries[key] = QuarantineEntry(name, digest, error, now)
        entry.failures += 1
        entry.error = error
        entry.last_failure = now
        backoff = min(
            self.backoff_base * (2 ** (entry.failures - 1)), self.backoff_cap
        )
        entry.blocked_until = now + backoff
        self.counters["recorded"] += 1
        return backoff

    def clear(self, name, digest):
        """Drop the pair after a successful extraction (no-op if unknown)."""
        if self._entries.pop((name, digest), None) is not None:
            self.counters["cleared"] += 1

    def _evict_oldest(self):
        oldest = min(self._entries.values(), key=lambda entry: entry.last_failure)
        del self._entries[(oldest.name, oldest.digest)]
        self.counters["evicted"] += 1

    # ------------------------------------------------------------------
    def rows(self, now=None):
        """The table as JSON-ready rows (``GET /quarantine``)."""
        now = self._clock() if now is None else now
        rows = []
        for entry in sorted(
            self._entries.values(), key=lambda item: (item.name, item.digest)
        ):
            rows.append(
                {
                    "name": entry.name,
                    "hash": entry.digest[:12],
                    "error": entry.error,
                    "failures": entry.failures,
                    "retry_after_seconds": round(
                        max(0.0, entry.blocked_until - now), 3
                    ),
                    "age_seconds": round(max(0.0, now - entry.first_failure), 3),
                }
            )
        return rows

    def stats(self):
        payload = dict(self.counters)
        payload["entries"] = len(self._entries)
        payload["max_entries"] = self.max_entries
        return payload
