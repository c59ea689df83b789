"""Which layer entry points the traced run wraps, and the per-layer metrics.

Every callable is wrapped where the program looks it up: for example
``repro.core.preprocess.parse`` (the name the preprocessor calls), not
``repro.sqlparser.parse``.  Metric names follow ``phase.layer.stat``;
times are self times per unit of work (per extraction in ``cold`` and
``warm``, per delta in ``fresh``, per read in ``impact``, per 1,000 log
lines in ``stream``), taken from the traced units only.

Within a phase, a span's self time is charged to the nearest span, itself
or an ancestor, whose layer the phase reports (so ``stream.session.
refresh_s`` includes the engine work under the refresh, and the cold
phase's store reads count toward the preprocessor or the runner that made
them).  Whatever no reported span covers is the phase's
``unaccounted_s``.
"""

import importlib
import statistics

from tracer import charge, covered

#: per phase: span layer -> reported metric (without the phase prefix)
PHASE_LAYERS = {
    "cold": {
        "sqlparser.lex": "sqlparser.lex_s",
        "sqlparser.parse": "sqlparser.parse_s",
        "sqlparser.printer": "sqlparser.printer_s",
        "core.preprocess": "core.preprocess_s",
        "core.dag": "core.dag_s",
        "core.extractor": "core.extractor_s",
        "core.runner": "core.runner_s",
        "store.write": "store.write_s",
        "gc": "gc_s",
    },
    "warm": {
        "store.read": "store.read_s",
        "core.preprocess": "core.preprocess_s",
        "core.runner": "core.runner_s",
        "gc": "gc_s",
    },
    "fresh": {
        "core.lineage.freeze": "core.lineage.freeze_s",
        "analysis.reach.patch": "analysis.reach.patch_s",
        "analysis.reach.build": "analysis.reach.build_s",
        "core.dag": "core.dag_s",
        "core.runner": "core.runner_s",
        "core.extractor": "core.extractor_s",
        "server.journal": "server.journal_s",
        "store.read": "store_s",
        "store.write": "store_s",
        "gc": "gc_s",
    },
    "impact": {
        "analysis.reach.partition": "analysis.reach.partition_s",
        "analysis.impact": "analysis.impact_s",
        "server.encode": "server.encode_s",
        "gc": "gc_s",
    },
    "stream": {
        "sources.query_log.read": "sources.query_log.read_s",
        "streaming.absorb": "streaming.absorb_s",
        "streaming.offset": "streaming.offset_s",
        "session.refresh": "session.refresh_s",
        "gc": "gc_s",
    },
}


def targets(tracer):
    """``(owner, attribute, layer[, on_result])`` for :meth:`Tracer.install`."""
    # modules by import path: a package may export a function under a
    # submodule's name (``repro.core.preprocess``), which ``import ... as``
    # would pick up instead of the module
    parser = importlib.import_module("repro.sqlparser.parser")
    preprocess = importlib.import_module("repro.core.preprocess")
    runner = importlib.import_module("repro.core.runner")
    routes = importlib.import_module("repro.server.routes")
    from repro.analysis.impact import ImpactResult
    from repro.analysis.reach import ReachabilityIndex
    from repro.core.dag import DependencyDAG
    from repro.core.extractor import LineageExtractor
    from repro.core.lineage import LineageGraph
    from repro.core.scheduler import AutoInferenceScheduler
    from repro.server.http import Response
    from repro.server.journal import IngestJournal
    from repro.session import LineageSession
    from repro.sources.query_log import LogTailer
    from repro.store.store import LineageStore
    from repro.streaming import QueryLogStreamer

    def trace_parse_cache(cache):
        # the store hands out a parse-cache object per run: trace its reads
        # and writes on the instance
        if cache is not None:
            cache.prefetch = tracer.traced("store.read", cache.prefetch)
            cache.get = tracer.traced("store.read", cache.get)
            cache.put = tracer.traced("store.write", cache.put)

    return [
        (parser, "tokenize", "sqlparser.lex"),
        (preprocess, "parse", "sqlparser.parse"),
        (preprocess, "canonical_sql_and_hash", "sqlparser.printer"),
        (runner, "preprocess", "core.preprocess"),
        (DependencyDAG, "from_query_dictionary", "core.dag"),
        (AutoInferenceScheduler, "run", "core.extractor"),
        (LineageExtractor, "extract_statement", "core.extractor"),
        (runner.LineageXRunner, "run", "core.runner"),
        (runner.LineageXResult, "update", "core.runner"),
        (LineageStore, "prime", "store.read"),
        (LineageStore, "get", "store.read", lambda _result: tracer.count("store.get")),
        # the point query behind an LRU miss: counted for the hit ratio
        (LineageStore, "_fetch", "store.read", lambda _result: tracer.count("store.point_read")),
        (LineageStore, "put_many", "store.write"),
        (LineageStore, "flush", "store.write"),
        (LineageStore, "parse_cache", "store.read", trace_parse_cache),
        (LineageGraph, "freeze", "core.lineage.freeze"),
        (ReachabilityIndex, "build", "analysis.reach.build"),
        (ReachabilityIndex, "refreshed", "analysis.reach.patch"),
        (ReachabilityIndex, "partition", "analysis.reach.partition"),
        (routes, "impact_analysis", "analysis.impact"),
        (ImpactResult, "to_rows", "server.encode"),
        (Response, "json", "server.encode"),
        (IngestJournal, "append_batch", "server.journal"),
        (IngestJournal, "checkpoint", "server.journal"),
        (LogTailer, "read", "sources.query_log.read"),
        (QueryLogStreamer, "step", "streaming.absorb"),
        (QueryLogStreamer, "_save_offset", "streaming.offset"),
        (LineageSession, "refresh", "session.refresh"),
        (LineageSession, "extract", "session.extract"),
    ]


def _overhead(traced, plain):
    """Median traced over median untraced time per unit of work, minus 1.

    Stream batches that refreshed the session are left out: the few
    refreshes fall unevenly between traced and untraced batches and would
    swamp the comparison of the tailing path they share.
    """
    def median_rate(units):
        rates = [unit.elapsed / unit.work for unit in units if unit.work and not unit.refreshed]
        return statistics.median(rates)

    return median_rate(traced) / median_rate(plain) - 1


def percentile(values, q):
    """The ``q``-th percentile (1..99) of ``values``."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(run, tracer):
    """Every per-layer metric of a traced :class:`~harness.WorkloadRun`."""
    by_request = {}
    for span in tracer.spans:
        by_request.setdefault(span[4], []).append(span)
    metrics = {
        "setup.import_s": statistics.median(run.setup["import"]),
        "setup.boot_s": statistics.median(run.setup["boot"]),
        "setup.stream_bootstrap_s": statistics.median(run.setup["stream_bootstrap"]),
    }
    for phase, mapping in PHASE_LAYERS.items():
        units = run.phase_units(phase)
        traced = [unit for unit in units if unit.traced]
        plain = [unit for unit in units if not unit.traced]
        per = sum(unit.work for unit in traced) / (1000 if phase == "stream" else 1)
        spans = [span for unit in traced for span in by_request.get((phase, unit.index), ())]
        totals = dict.fromkeys(mapping.values(), 0.0)
        for layer, seconds in charge(spans, set(mapping)).items():
            if layer in mapping:
                totals[mapping[layer]] += seconds
        for name, seconds in totals.items():
            metrics[f"{phase}.{name}"] = seconds / per
        wall = sum(unit.elapsed for unit in traced)
        metrics[f"{phase}.unaccounted_s"] = (wall - sum(totals.values())) / per
        metrics[f"{phase}.trace_overhead"] = _overhead(traced, plain)
        if phase in ("fresh", "impact"):
            # latency minus every span of the request, on any thread
            gaps = [
                unit.elapsed - covered(by_request.get((phase, unit.index), ()))
                for unit in traced
            ]
            name = "fresh.server.wait_s" if phase == "fresh" else "impact.server.http_s"
            metrics[name] = statistics.fmean(gaps)

    cold_reps = sum(1 for unit in run.phase_units("cold") if unit.traced)
    metrics["cold.gc_gen2"] = sum(
        1 for span in tracer.spans
        if span[0] == "gc" and span[5] == 2 and span[4] and span[4][0] == "cold"
    ) / cold_reps
    gets = tracer.counts.get(("warm", "store.get"), 0)
    point_reads = tracer.counts.get(("warm", "store.point_read"), 0)
    metrics["warm.store.hit_ratio"] = 1 - point_reads / gets if gets else 0.0
    deltas = sum(1 for unit in run.phase_units("fresh") if unit.traced)
    metrics["fresh.reach_builds"] = sum(
        1 for span in tracer.spans
        if span[0] == "analysis.reach.build" and span[4] and span[4][0] == "fresh"
    ) / deltas
    metrics["fresh.dirty_entries"] = run.counts["fresh.dirty_entries"]
    # the read-latency tail, from the untraced reads; per-layer, as its
    # seed-to-seed spread on warehouse exceeds any end-to-end bound
    metrics["impact.latency_p99_ms"] = percentile(
        [unit.elapsed * 1000 for unit in run.phase_units("impact") if not unit.traced], 99
    )
    answers = run.counts["impact.answers"]
    metrics["impact.answer_p50"] = percentile(answers, 50)
    metrics["impact.answer_p99"] = percentile(answers, 99)
    plain_batches = [unit for unit in run.phase_units("stream") if not unit.traced]
    metrics["stream.lines_per_s"] = (
        sum(unit.work for unit in plain_batches) / sum(unit.elapsed for unit in plain_batches)
    )
    metrics["stream.absorbed_ratio"] = run.counts["stream.absorbed_ratio"]
    metrics["stream.applied"] = run.counts["stream.applied"]
    for phase, value in run.rss.items():
        metrics[f"{phase}.rss_mb"] = value
    return metrics
