"""Deterministic fault injection — seedable failures at named sites.

Robustness claims are only worth something when they are *demonstrated
against real faults*, and faults must be reproducible to be debuggable.
This module gives production code cheap named injection points::

    from repro.testing import faults
    ...
    faults.fire("store.read")   # no-op unless a plan is active

and gives tests/benchmarks a :class:`FaultPlan` that decides — from a
seed, deterministically, independently per site — what each ``fire``
call does:

* **error rates** — ``rates={"store.read": 0.3}`` makes 30% of hits
  raise :class:`InjectedFault`.  Each site draws from its own
  ``random.Random`` seeded by ``(seed, site)``, so adding a new site (or
  reordering calls across sites) never perturbs another site's
  sequence — the fault schedule of a seed is stable across refactors;
* **delays** — ``delays={"batcher.refresh": 0.5}`` sleeps at the site
  (slow-parse / slow-batch scenarios);
* **process kills** — ``kill={"site": "journal.append", "after": 3}``
  SIGKILLs the *current process* on the third hit of the site: the
  crash-recovery suite uses this to die at an exact journal offset.

Site naming: ``<component>.<operation>`` (``store.read``,
``journal.append``, ``batcher.refresh``, ...); a rate applies to every
hit of its site.

Plans install process-globally (:func:`install` / :func:`reset`) because
the code under test — the daemon's store threads, the journal, worker
pools — spans threads that cannot thread a plan argument through.  The
crash suite configures subprocess daemons through the ``REPRO_FAULTS``
environment variable (a JSON plan; see :func:`install_from_env`), which
``python -m repro serve`` reads at boot.

With no plan installed every ``fire`` is a dict lookup and a ``None``
check — cheap enough to leave the hooks in production paths.
"""

import json
import os
import random
import signal
import threading
import time

#: environment variable holding a JSON plan for subprocess daemons, e.g.
#: ``{"seed": 7, "rates": {"store.read": 0.3}, "kill": {"site": "journal.append", "after": 5}}``
ENV_VAR = "REPRO_FAULTS"


class InjectedFault(Exception):
    """A deliberately injected failure (never raised by real code paths).

    Attributes
    ----------
    site:
        The injection-site name that fired.
    """

    def __init__(self, site):
        self.site = site
        super().__init__(f"injected fault at {site}")

    def __reduce__(self):
        return (type(self), (self.site,))


class FaultPlan:
    """One deterministic fault schedule.

    Parameters
    ----------
    seed:
        Root seed; each site derives its own independent RNG from it.
    rates:
        ``{site: probability}`` of raising :class:`InjectedFault` per hit.
    delays:
        ``{site: seconds}`` slept on every hit (before any error draw).
    kill:
        ``{"site": name, "after": n}`` — SIGKILL the process on the n-th
        hit of ``site`` (1-based).  ``{"signal": "SIGTERM"}`` selects a
        different signal.
    """

    def __init__(self, seed=0, rates=None, delays=None, kill=None):
        self.seed = int(seed)
        self.rates = dict(rates or {})
        self.delays = dict(delays or {})
        self.kill = dict(kill) if kill else None
        self._rngs = {}
        self._hits = {}
        self._lock = threading.Lock()

    @classmethod
    def from_dict(cls, payload):
        return cls(
            seed=payload.get("seed", 0),
            rates=payload.get("rates"),
            delays=payload.get("delays"),
            kill=payload.get("kill"),
        )

    def to_dict(self):
        payload = {"seed": self.seed, "rates": self.rates, "delays": self.delays}
        if self.kill:
            payload["kill"] = self.kill
        return payload

    def to_env(self):
        """The JSON value to put in :data:`ENV_VAR` for a subprocess."""
        return json.dumps(self.to_dict(), sort_keys=True)

    # ------------------------------------------------------------------
    def _rng(self, key):
        rng = self._rngs.get(key)
        if rng is None:
            # per-site stream: one site's draw count never shifts another's
            rng = self._rngs[key] = random.Random(f"{self.seed}:{key}")
        return rng

    def hits(self, site):
        """How many times ``site`` has fired under this plan."""
        return self._hits.get(site, 0)

    def fire(self, site):
        """Apply the plan at ``site``; raises :class:`InjectedFault` on a hit."""
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            delay = self.delays.get(site)
            kill_now = (
                self.kill is not None
                and self.kill.get("site") == site
                and count >= int(self.kill.get("after", 1))
            )
            failed = (
                site in self.rates
                and self._rng(site).random() < float(self.rates[site])
            )
        if delay:
            time.sleep(float(delay))
        if kill_now:
            signame = (self.kill or {}).get("signal", "SIGKILL")
            os.kill(os.getpid(), getattr(signal, signame))
            # SIGKILL never returns; a catchable signal (SIGTERM) does —
            # fall through so the site behaves normally while handlers run
        if failed:
            raise InjectedFault(site)


#: the process-global active plan (``None`` = every fire() is a no-op).
_active = None


def install(plan):
    """Activate ``plan`` process-wide; returns it (for chaining)."""
    global _active
    _active = plan
    return plan


def reset():
    """Deactivate fault injection (tests call this in teardown)."""
    global _active
    _active = None


def active():
    """The installed :class:`FaultPlan`, or ``None``."""
    return _active


def fire(site):
    """Production-side hook: apply the active plan at ``site`` (no-op otherwise)."""
    plan = _active
    if plan is not None:
        plan.fire(site)


def plan_from_env(environ=None):
    """Parse :data:`ENV_VAR` into a :class:`FaultPlan` (``None`` if unset/bad)."""
    raw = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not raw:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    return FaultPlan.from_dict(payload)


def install_from_env(environ=None):
    """Install the environment-configured plan, if any (daemon boot calls this)."""
    plan = plan_from_env(environ)
    if plan is not None:
        install(plan)
    return plan
