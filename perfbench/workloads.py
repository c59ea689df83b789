"""The benchmark's two workloads and the seeded inputs each run feeds them.

Every input derives from the run's seed through ``random.Random`` streams
named per purpose, so one seed always yields the same corpus, delta
sequence, ``/impact`` start list and log lines.  The corpus comes from
:func:`repro.datasets.workload.generate_warehouse` with N/50 base tables;
inputs that need lineage facts read them from the program's output: a
relation's columns and a view's dependents from the first cold
extraction's graph (which the run checks against the warm one), answer
sizes for the ``/impact`` starts from the daemon's snapshot 1.

``pins.json`` holds a SHA-256 of each of the four inputs for
:data:`DEFAULT_SEED`; :func:`check_pins` fails a run whose generator output
no longer matches, so the measured workload cannot drift silently.
"""

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from repro.datasets import workload

DEFAULT_SEED = 1
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: transitive dependents a redefined ``deep_mesh`` view should have: every
#: redefinition re-extracts about this many entries, so the freshness
#: median and the stream's refresh cost measure one cost mode
BLAST_RADIUS = 500
#: ``GET /impact`` reads per run
READS = 2400
#: first timestamp of the generated query log (seconds since the epoch)
_LOG_EPOCH = 1_700_000_000


@dataclass(frozen=True)
class Spec:
    """One workload: its generator knobs and the size of every phase.

    A run is ``rounds`` rounds; each repeats every phase (a cold
    extraction, ``warm_reps`` warm ones, a daemon boot with its share of
    the ``deltas`` and groups of reads between them, a streamer bootstrap
    and ``stream_chunks`` chunk drains), so every metric samples the
    whole run.
    """

    name: str
    views: int
    delta_kind: str             # "append" or "redefine"
    rounds: int
    warm_reps: int              # warm extractions per round
    deltas: int                 # POST /extract calls per run, split evenly over the rounds
    stream_chunks: int          # log chunks per round, appended and drained one by one
    stream_chunk_lines: int
    redefine_every: int = 0     # one redefinition per this many stream lines
    knobs: dict = field(default_factory=dict)

    @property
    def stream_redefinitions(self):
        if not self.redefine_every:
            return 0
        per_chunk = self.stream_chunk_lines // self.redefine_every
        return self.rounds * self.stream_chunks * per_chunk


WORKLOADS = {
    "warehouse": Spec(
        name="warehouse", views=4000, delta_kind="append", rounds=3, warm_reps=2,
        deltas=20, stream_chunks=3, stream_chunk_lines=10_000,
    ),
    "deep_mesh": Spec(
        name="deep_mesh", views=2000, delta_kind="redefine", rounds=5, warm_reps=3,
        deltas=25, stream_chunks=2, stream_chunk_lines=2_000, redefine_every=2_000,
        knobs={
            "deep_chain_probability": 0.6,
            "fanout_probability": 0.05,
            "mesh_probability": 0.15,
        },
    ),
}


def _rng(seed, purpose):
    return random.Random(f"{purpose}:{seed}")


def generate(spec, seed):
    """The corpus: a :class:`~repro.datasets.workload.GeneratedWarehouse`."""
    return workload.generate_warehouse(
        num_base_tables=spec.views // 50, num_views=spec.views, seed=seed, **spec.knobs
    )


def redefine(sql):
    """A schema-preserving redefinition: same name and columns, new text."""
    head, body = sql.split(" AS ", 1)
    return f"{head} AS SELECT v.* FROM ({body}) v"


def _dependent_counts(graph, names):
    """``{name: number of transitive dependents}`` at table level."""
    successors = graph.table_successors()
    counts = {}
    for name in names:
        seen = set()
        pending = [name]
        while pending:
            for child in successors.get(pending.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    pending.append(child)
        counts[name] = len(seen)
    return counts


def redefinition_targets(spec, warehouse, graph, seed):
    """``(fresh targets, stream targets)`` for a ``redefine`` workload.

    Candidates are the earliest tenth of the views, ranked by how near
    their dependent count is to :data:`BLAST_RADIUS`.  The nearest ones
    are dealt to the two phases, the stream's spaced evenly among the
    fresh phase's, so both redefine views of the same blast radius; each
    list comes in seeded order.
    """
    early = list(warehouse.views)[: spec.views // 10]
    counts = _dependent_counts(graph, early)
    ranked = sorted(early, key=lambda name: (abs(counts[name] - BLAST_RADIUS), name))
    needed = spec.deltas + spec.stream_redefinitions
    if len(ranked) < needed:
        raise ValueError(f"{spec.name}: {len(ranked)} redefinition candidates, need {needed}")
    streamed = spec.stream_redefinitions
    stream_at = {(2 * k + 1) * needed // (2 * streamed) for k in range(streamed)}
    fresh = [name for k, name in enumerate(ranked[:needed]) if k not in stream_at]
    stream = [ranked[k] for k in sorted(stream_at)]
    rng = _rng(seed, "targets")
    rng.shuffle(fresh)
    rng.shuffle(stream)
    return fresh, stream


def deltas(spec, warehouse, graph, seed, targets=()):
    """The fresh phase's one-statement ``POST /extract`` bodies, in order."""
    if spec.delta_kind == "redefine":
        return [{name: redefine(warehouse.views[name])} for name in targets]
    rng = _rng(seed, "deltas")
    relations = sorted(graph.relations)
    out = []
    for index in range(spec.deltas):
        relation = rng.choice(relations)
        column = rng.choice(sorted(graph.columns_of(relation)))
        name = f"bench_append_{index}"
        out.append({name: f"CREATE VIEW {name} AS SELECT s.{column} AS appended FROM {relation} s"})
    return out


def impact_starts(graph, seed, count=READS):
    """``count`` distinct ``table.column`` starts, in seeded order.

    Candidates are every column with downstream edges, ranked by answer
    size (closure size in the frozen ``graph``'s reachability index) and
    cut into ``count`` equal bins; one seeded pick per bin makes the
    sample's answer sizes follow the population's.  A plain random sample
    of 2,000 moved the p99 answer size by 46% from seed to seed on
    ``warehouse``; the population's moved by 13%.  Starts are distinct,
    so the reachability memo never answers.
    """
    index = graph.reachability()
    adjacency = graph.column_adjacency("downstream")
    ranked = sorted(
        (len(index.closure(column)), str(column))
        for column, targets in adjacency.items() if targets
    )
    rng = _rng(seed, "starts")
    count = min(count, len(ranked))
    starts = [
        ranked[rng.randrange(len(ranked) * k // count, len(ranked) * (k + 1) // count)][1]
        for k in range(count)
    ]
    rng.shuffle(starts)
    return starts


@functools.lru_cache(maxsize=None)
def _line_head(name, sql):
    return json.dumps({"name": name, "sql": sql})[:-1] + ', "timestamp": '


def _log_line(name, sql, index):
    """``{"name": ..., "sql": ..., "timestamp": ...}`` and a newline."""
    return f"{_line_head(name, sql)}{_LOG_EPOCH + index}}}\n"


def stream_log(spec, warehouse, seed, targets=()):
    """``(initial lines, appended chunks)`` of the JSONL query log.

    The initial log is the corpus in generation order; every round starts
    a fresh copy of it.  The chunks come as ``(round, lines)`` pairs, the
    ``stream_chunks`` chunks of one round appended one after another to
    that round's log.  A chunk re-executes random statements of the
    round's current corpus verbatim, and a ``redefine`` workload replaces
    one line in every ``redefine_every`` (at a seeded position) by a
    redefinition of the next stream target.  Chunks are generated lazily,
    one list of lines at a time.
    """
    initial = [
        _log_line(name, sql, index) for index, (name, sql) in enumerate(warehouse.views.items())
    ]
    return initial, _chunks(spec, warehouse, seed, list(targets), len(initial))


def _chunks(spec, warehouse, seed, targets, first_index):
    names = list(warehouse.views)
    rng = _rng(seed, "stream")
    per_chunk = spec.stream_redefinitions // (spec.rounds * spec.stream_chunks)
    for round_index in range(spec.rounds):
        current = dict(warehouse.views)
        index = first_index
        for _ in range(spec.stream_chunks):
            pending, targets = targets[:per_chunk], targets[per_chunk:]
            redefine_at = set()
            if spec.redefine_every:
                for start in range(0, spec.stream_chunk_lines, spec.redefine_every):
                    redefine_at.add(start + rng.randrange(spec.redefine_every))
            lines = []
            for position in range(spec.stream_chunk_lines):
                if position in redefine_at and pending:
                    name = pending.pop(0)
                    current[name] = redefine(current[name])
                else:
                    name = rng.choice(names)
                lines.append(_log_line(name, current[name], index))
                index += 1
            yield round_index, lines


def digest(value):
    """SHA-256 of a JSON-serialisable input."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_digest(warehouse):
    return digest({"base_tables": warehouse.base_tables, "views": list(warehouse.views.items())})


def check_pins(spec, digests):
    """Names of the pinned inputs of ``spec`` whose digest differs."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)[spec.name]
    return sorted(key for key, value in digests.items() if pinned.get(key) != value)
