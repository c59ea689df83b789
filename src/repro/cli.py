"""Command-line interface, rebuilt on the Session API.

Subcommand form (preferred):

.. code-block:: console

    $ python -m repro extract warehouse.sql --format markdown
    $ python -m repro extract logs/queries.jsonl --output out/
    $ python -m repro impact models/ web.page --catalog schema.sql
    $ python -m repro render models/ --format csv --out edges.csv
    $ python -m repro render --list-formats
    $ python -m repro refresh models/ --edit staging='CREATE VIEW staging AS ...'
    $ python -m repro extract models/ --cache-dir .lineage-cache
    $ python -m repro cache stats --cache-dir .lineage-cache
    $ python -m repro serve models/ --cache-dir .lineage-cache --port 8765

Every extraction subcommand accepts the shared extraction flags
(``--engine``, ``--catalog``, ``--strict``, ``--mode``, ``--cache-dir``,
...) and every ``--format`` value
resolves through the renderer registry, so formats added with
:func:`repro.output.register_renderer` are immediately available here.
The ``cache`` subcommand inspects and maintains a persistent lineage
store (``stats`` / ``clear`` / ``gc``).

The legacy flag form keeps working unchanged:

.. code-block:: console

    $ python -m repro warehouse.sql --output out/
    $ python -m repro models/ --catalog schema.sql --impact web.page
    $ python -m repro models/ --dbt --format json > lineage.json

Positional input: a ``.sql`` file, a directory of ``.sql`` files, a dbt
project, a ``.jsonl`` query log, or ``-`` for SQL on stdin (source kinds
are auto-detected; ``--dbt`` forces the dbt adapter).

Dispatch: a first argument equal to a subcommand name selects the
subcommand form; an input path that happens to be named like one can be
passed to the legacy form as ``./extract`` (any path spelling that is not
the bare name).
"""

import argparse
import json
import os
import sys

from . import __version__
from .analysis.impact import impact_report
from .analysis.selector import SelectorError, selector_impact
from .core.errors import CyclicDependencyError, UnknownColumnError
from .catalog.introspect import catalog_from_sql
from .output.registry import renderer_names
from .session import ENGINES, LineageSession, SessionConfig
from .sources import DbtSource, Source
from .sources.base import read_sql_file
from .sqlparser import SQLError

SUBCOMMANDS = ("extract", "impact", "render", "refresh", "cache", "serve", "stream")


def _positive_int(text):
    """argparse type for count flags: an integer >= 1.

    The messages leave out the flag: argparse prefixes them with it.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_version(parser):
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )


def _add_extraction_options(parser):
    """The shared extraction flags (identical across all command forms)."""
    parser.add_argument(
        "--catalog",
        metavar="DDL_FILE",
        help="CREATE TABLE script providing base-table schemas (optional)",
    )
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="static",
        help="extraction engine: 'static' AST pipeline (default) or 'plan' "
        "database-connection mode (simulated EXPLAIN; needs --catalog for "
        "the base tables)",
    )
    parser.add_argument(
        "--dbt",
        action="store_true",
        help="treat the input directory as a dbt project (resolve ref()/source())",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on ambiguous column references instead of resolving conservatively",
    )
    parser.add_argument(
        "--no-stack",
        action="store_true",
        help="disable the auto-inference stack (ablation / debugging)",
    )
    parser.add_argument(
        "--collect-traces",
        action="store_true",
        help="record per-query extraction traces (rule firings)",
    )
    parser.add_argument(
        "--mode",
        choices=["dag", "stack"],
        default="dag",
        help="scheduling mode: plan a dependency DAG and extract in "
        "topological waves (default) or use the purely reactive "
        "LIFO-deferral stack",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent lineage store: splice unchanged statements from "
        "this directory's cache and persist new extractions (warm starts "
        "across runs; see the 'cache' subcommand for maintenance)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="bounded-memory extraction for very large corpora: release "
        "each statement's AST as soon as it is no longer needed "
        "(byte-identical output)",
    )


def build_parser():
    """The legacy flag-form argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Extract column-level lineage from SQL query logs (LineageX reproduction).",
        epilog="Subcommand form: repro {extract,impact,render,refresh} ... "
        "(see 'repro extract --help').",
    )
    _add_version(parser)
    parser.add_argument(
        "input",
        help="a .sql file, a directory of .sql files, a .jsonl query log, "
        "or '-' to read SQL from stdin",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="write lineagex.json and lineagex.html into this directory",
    )
    parser.add_argument(
        "--format",
        choices=renderer_names(),
        default="text",
        help="what to print to stdout (default: text)",
    )
    parser.add_argument(
        "--impact",
        metavar="TABLE.COLUMN",
        help="print the downstream impact analysis of this column",
    )
    parser.add_argument(
        "--upstream",
        metavar="TABLE.COLUMN",
        help="print the upstream lineage of this column",
    )
    _add_extraction_options(parser)
    return parser


def build_subcommand_parser():
    """The subcommand parser (``repro extract|impact|render|refresh|cache``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Extract column-level lineage from SQL query logs (LineageX reproduction).",
    )
    _add_version(parser)
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser(
        "extract", help="extract lineage and print/save it"
    )
    extract.add_argument("input", help="SQL file/dir, dbt project, .jsonl log, or '-'")
    extract.add_argument(
        "--format", choices=renderer_names(), default="text",
        help="what to print to stdout (default: text)",
    )
    extract.add_argument(
        "--output", metavar="DIR",
        help="write lineagex.json and lineagex.html into this directory",
    )
    _add_extraction_options(extract)
    extract.set_defaults(handler=_cmd_extract)

    impact = commands.add_parser(
        "impact", help="transitive impact analysis of one column or selector"
    )
    impact.add_argument("input", help="SQL file/dir, dbt project, .jsonl log, or '-'")
    impact.add_argument(
        "column", metavar="SELECTOR",
        help="a starting TABLE.COLUMN, or an InfoTracker-style selector: "
             "+name (upstream), name+ (downstream), +name+ (both), "
             "schema.table.* (every column of a relation)",
    )
    impact.add_argument(
        "--direction", choices=["downstream", "upstream"], default="downstream",
        help="traversal direction for plain TABLE.COLUMN starts "
             "(default: downstream; selectors encode their own direction)",
    )
    impact.add_argument(
        "--max-depth", type=_positive_int, metavar="N", default=None,
        help="limit the traversal to N hops from the start",
    )
    _add_extraction_options(impact)
    impact.set_defaults(handler=_cmd_impact)

    render = commands.add_parser(
        "render", help="render the lineage graph in any registered format"
    )
    render.add_argument(
        "input", nargs="?",
        help="SQL file/dir, dbt project, .jsonl log, or '-'",
    )
    render.add_argument(
        "--format", choices=renderer_names(), default="text",
        help="output format (default: text)",
    )
    render.add_argument(
        "--out", metavar="FILE",
        help="write the rendered document to FILE instead of stdout",
    )
    render.add_argument(
        "--list-formats", action="store_true",
        help="list the registered output formats and exit",
    )
    _add_extraction_options(render)
    render.set_defaults(handler=_cmd_render)

    refresh = commands.add_parser(
        "refresh",
        help="extract, apply query edits, and incrementally re-extract",
    )
    refresh.add_argument("input", help="SQL file/dir, dbt project, .jsonl log, or '-'")
    refresh.add_argument(
        "--edit", metavar="NAME=SQL", action="append", default=[],
        help="replace the named query with new SQL (prefix the value with @ "
        "to read it from a file; an empty value removes the query); "
        "repeatable",
    )
    refresh.add_argument(
        "--format", choices=renderer_names(), default="stats",
        help="what to print after the refresh (default: stats)",
    )
    _add_extraction_options(refresh)
    refresh.set_defaults(handler=_cmd_refresh)

    cache = commands.add_parser(
        "cache", help="inspect or maintain a persistent lineage store"
    )
    cache.add_argument(
        "action", choices=["stats", "clear", "gc"],
        help="stats: print store counters; clear: delete every record; "
        "gc: evict stale records",
    )
    cache.add_argument(
        "--cache-dir", metavar="DIR", required=True,
        help="the store directory (as passed to extract/refresh)",
    )
    cache.add_argument(
        "--max-age-days", type=float, metavar="DAYS", default=None,
        help="gc: drop records not used within this many days",
    )
    cache.add_argument(
        "--max-entries", type=_positive_int, metavar="N", default=None,
        help="gc: keep only the N most recently used lineage records",
    )
    cache.set_defaults(handler=_cmd_cache)

    serve = commands.add_parser(
        "serve",
        help="run the lineage serving daemon (HTTP/JSON over asyncio)",
    )
    serve.add_argument(
        "input", nargs="?",
        help="optional corpus to preload before announcing readiness: a "
        "directory of .sql files, a dbt project, or a .jsonl query log "
        "(any name-addressable source)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="port to bind; 0 picks a free one and prints it (default: 8765)",
    )
    serve.add_argument(
        "--catalog", metavar="DDL_FILE",
        help="CREATE TABLE script providing base-table schemas (optional)",
    )
    serve.add_argument(
        "--strict", action="store_true",
        help="fail ingest batches on ambiguous column references",
    )
    serve.add_argument(
        "--dbt", action="store_true",
        help="treat the preload input directory as a dbt project",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent lineage store: ingest splices unchanged statements "
        "from it and persists new extractions (warm restarts)",
    )
    serve.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="ingest write-ahead journal: every accepted statement is "
        "fsync'd here before extraction, and a restarted daemon replays "
        "it to recover acknowledged-but-unpublished work (crash safety)",
    )
    serve.add_argument(
        "--no-journal-fsync", action="store_true",
        help="skip the per-batch fsync on the journal (benchmark ablation: "
        "still SIGKILL-safe, no longer power-loss-safe)",
    )
    serve.add_argument(
        "--max-pending", type=_positive_int, metavar="N", default=None,
        help="bound the ingest queue: beyond N pending /extract requests "
        "the daemon sheds with 503 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--request-timeout-ms", type=float, metavar="MS", default=None,
        help="per-request /extract deadline; past it the client gets 503 "
        "and may safely resubmit (default: none)",
    )
    serve.add_argument(
        "--max-batch-statements", type=_positive_int, metavar="N",
        default=None,
        help="split micro-batches beyond N statements into chunks that "
        "extract and publish separately (default: unbounded)",
    )
    serve.set_defaults(handler=_cmd_serve)

    stream = commands.add_parser(
        "stream",
        help="continuously stream a JSONL query log into a session "
        "(micro-batches, crash-safe resume offset, store compaction)",
    )
    stream.add_argument(
        "input",
        help="the JSONL query log file to tail (one JSON object per "
        "statement; see the query-log source docs)",
    )
    stream.add_argument(
        "--follow", action="store_true",
        help="keep polling for appended lines after reaching EOF "
        "(default: replay to EOF once and exit)",
    )
    stream.add_argument(
        "--batch-statements", type=_positive_int, metavar="N", default=1000,
        help="maximum log lines consumed per micro-batch (default: 1000)",
    )
    stream.add_argument(
        "--poll-interval-ms", type=float, metavar="MS", default=250.0,
        help="--follow: how long to sleep when no new lines arrived "
        "(default: 250 ms)",
    )
    stream.add_argument(
        "--max-batches", type=_positive_int, metavar="N", default=None,
        help="stop after N productive micro-batches (default: unbounded)",
    )
    stream.add_argument(
        "--offset-file", metavar="FILE", default=None,
        help="where the crash-safe resume offset is persisted "
        "(default: <log>.offset.json next to the log)",
    )
    stream.add_argument(
        "--no-resume", action="store_true",
        help="ignore a persisted resume offset and re-ingest from the "
        "start of the log",
    )
    stream.add_argument(
        "--compact-max-entries", type=_positive_int, metavar="N", default=None,
        help="with --cache-dir: run store gc down to N lineage records "
        "periodically; superseded definitions are evicted first",
    )
    stream.add_argument(
        "--compact-every", type=_positive_int, metavar="N", default=50,
        help="batch interval of the in-line compaction (default: 50)",
    )
    stream.add_argument(
        "--format", choices=renderer_names(), default="stats",
        help="what to print when the stream ends (default: stats)",
    )
    stream.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-batch progress lines on stderr",
    )
    _add_extraction_options(stream)
    stream.set_defaults(handler=_cmd_stream)

    return parser


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _load_source(path):
    if path == "-":
        return sys.stdin.read()
    return path


def _load_catalog(path):
    """The catalog a ``--catalog`` DDL file declares (``None`` without one);
    an error in the file names the file."""
    if not path:
        return None
    try:
        return catalog_from_sql(read_sql_file(path))
    except SQLError as error:
        error.filename = path
        raise


def _session_from_args(args):
    """Build a configured :class:`LineageSession` from parsed arguments."""
    catalog = _load_catalog(args.catalog)
    raw = _load_source(args.input)
    source = DbtSource(raw) if args.dbt else Source.detect(raw)
    config = SessionConfig(
        strict=args.strict,
        use_stack=not args.no_stack,
        collect_traces=args.collect_traces,
        mode=args.mode,
        engine=args.engine,
        cache_dir=args.cache_dir,
        stream=args.stream,
    )
    return LineageSession(source, catalog=catalog, config=config)


def _warn_unresolved(result):
    """Print unresolved-query warnings; the exit code they imply."""
    if result.report.unresolved:
        for identifier, reason in result.report.unresolved.items():
            print(f"warning: could not resolve {identifier}: {reason}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------
def _cmd_extract(args, stdout):
    with _session_from_args(args) as session:
        result = session.extract()
        if args.output:
            result.save(args.output)
        print(result.render(args.format), file=stdout)
        return _warn_unresolved(result)


def _looks_like_selector(text):
    """Selector syntax vs a plain TABLE.COLUMN start."""
    return "+" in text or text.endswith(".*") or "." not in text


def _cmd_impact(args, stdout):
    with _session_from_args(args) as session:
        result = session.extract()
        if _looks_like_selector(args.column):
            try:
                outcome = selector_impact(
                    result.graph, args.column, max_depth=args.max_depth
                )
            except (SelectorError, UnknownColumnError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            print(outcome.report(), file=stdout)
        else:
            print(
                impact_report(
                    result.graph, args.column,
                    direction=args.direction, max_depth=args.max_depth,
                ),
                file=stdout,
            )
        return _warn_unresolved(result)


def _cmd_render(args, stdout):
    if args.list_formats:
        print("\n".join(renderer_names()), file=stdout)
        return 0
    if args.input is None:
        print("error: an input is required unless --list-formats is given", file=sys.stderr)
        return 2
    with _session_from_args(args) as session:
        result = session.extract()
        rendered = result.render(args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        else:
            print(rendered, file=stdout)
        return _warn_unresolved(result)


def _parse_edits(pairs):
    changes = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise SystemExit(f"error: --edit expects NAME=SQL, got {pair!r}")
        if value.startswith("@"):
            with open(value[1:], "r", encoding="utf-8") as handle:
                value = handle.read()
        changes[name] = value if value else None
    return changes


def _cmd_refresh(args, stdout):
    with _session_from_args(args) as session:
        session.extract()
        try:
            result = session.refresh(_parse_edits(args.edit) or None)
        except ValueError as error:
            # e.g. a single-file or stdin source without --edit: nothing to rescan
            print(f"error: {error}", file=sys.stderr)
            return 2
        reused = len(getattr(result.report, "reused", ()))
        total = len(result.query_dictionary)
        print(
            f"refresh: re-extracted {total - reused} of {total} queries "
            f"({reused} reused)",
            file=sys.stderr,
        )
        print(result.render(args.format), file=stdout)
        return _warn_unresolved(result)


def _cmd_cache(args, stdout):
    from .store import STORE_FILENAME, LineageStore

    # maintenance never creates a store: a mistyped --cache-dir is an error
    if not os.path.isfile(os.path.join(args.cache_dir, STORE_FILENAME)):
        print(f"error: no lineage store at {args.cache_dir}", file=sys.stderr)
        return 2
    store = LineageStore(args.cache_dir)
    try:
        if args.action == "stats":
            for key, value in sorted(store.stats().items()):
                print(f"{key}: {value}", file=stdout)
        elif args.action == "clear":
            print(f"removed {store.clear()} records", file=stdout)
        else:  # gc
            if args.max_age_days is None and args.max_entries is None:
                print(
                    "error: cache gc needs --max-age-days and/or --max-entries",
                    file=sys.stderr,
                )
                return 2
            removed = store.gc(
                max_age_days=args.max_age_days, max_entries=args.max_entries
            )
            print(f"evicted {removed} records", file=stdout)
    finally:
        store.close()
    return 0


def _cmd_stream(args, stdout):
    if not os.path.isfile(args.input):
        print(f"error: {args.input!r} is not a query log file", file=sys.stderr)
        return 2
    catalog = _load_catalog(args.catalog)
    config = SessionConfig(
        strict=args.strict,
        use_stack=not args.no_stack,
        collect_traces=args.collect_traces,
        mode=args.mode,
        engine=args.engine,
        cache_dir=args.cache_dir,
        stream=args.stream,
    )

    def on_batch(report):
        if not args.quiet:
            print(
                f"stream: batch consumed={report['consumed']} "
                f"applied={report['applied']} quarantined={report['quarantined']} "
                f"offset={report['byte_offset']}"
                + (" (log rotated; restarted)" if report["reset"] else ""),
                file=sys.stderr,
            )

    # the session is deliberately sourceless: the streamer's batches ARE
    # the corpus, and a resumed prefix bootstraps it in one refresh
    with LineageSession(catalog=catalog, config=config) as session:
        streamer = session.stream_log(
            args.input,
            batch_statements=args.batch_statements,
            offset_path=args.offset_file,
            resume=not args.no_resume,
            compact_max_entries=args.compact_max_entries,
            compact_every=args.compact_every,
        )
        try:
            stats = streamer.run(
                follow=args.follow,
                poll_interval=args.poll_interval_ms / 1000.0,
                max_batches=args.max_batches,
                on_batch=on_batch,
            )
        except KeyboardInterrupt:
            stats = streamer.stats  # the last completed batch's offset is saved
        print(
            "stream: {statements} statements in {batches} batches "
            "({applied} applied, {skipped} absorbed, {quarantined} quarantined, "
            "warm-hit ratio {warm_hit_ratio}); offset saved to {offset_path}".format(
                **stats
            ),
            file=sys.stderr,
        )
        # the same rows GET /quarantine serves, error record included
        for row in streamer.quarantine.rows():
            print(
                f"stream: quarantined {row['name']} ({row['hash']}): "
                + json.dumps(row["error"]),
                file=sys.stderr,
            )
        result = session.result
        if result is None:
            return 0
        print(result.render(args.format), file=stdout)
        return _warn_unresolved(result)


def _cmd_serve(args, stdout):
    from .server import LineageApp
    from .testing import faults

    # a REPRO_FAULTS plan (the chaos/crash suites run daemons this way)
    # activates before anything that has injection sites is constructed
    faults.install_from_env()

    catalog = _load_catalog(args.catalog)
    preload = None
    if args.input:
        raw = _load_source(args.input)
        source = DbtSource(raw) if args.dbt else Source.detect(raw)
        payload = source.load()
        if not isinstance(payload, dict):
            print(
                "error: serve preload needs a name-addressable source "
                "(a directory of .sql files, a dbt project, or a .jsonl "
                f"query log); got a {source.kind!r} source",
                file=sys.stderr,
            )
            return 2
        preload = payload
    app = LineageApp(
        cache_dir=args.cache_dir,
        catalog=catalog,
        strict=args.strict,
        journal_dir=args.journal_dir,
        journal_fsync=not args.no_journal_fsync,
        max_pending=args.max_pending or 0,
        request_timeout=(
            args.request_timeout_ms / 1000.0 if args.request_timeout_ms else None
        ),
        max_batch_statements=args.max_batch_statements or 0,
    )
    return app.run(host=args.host, port=args.port, preload=preload, out=stdout)


# ----------------------------------------------------------------------
# Legacy flag form
# ----------------------------------------------------------------------
def _legacy_run(args, stdout):
    with _session_from_args(args) as session:
        result = session.extract()
        if args.output:
            result.save(args.output)

        if args.impact:
            print(impact_report(result.graph, args.impact, direction="downstream"), file=stdout)
        elif args.upstream:
            print(impact_report(result.graph, args.upstream, direction="upstream"), file=stdout)
        else:
            print(result.render(args.format), file=stdout)
        return _warn_unresolved(result)


def run(argv=None, stdout=None):
    """Entry point; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        args = build_subcommand_parser().parse_args(argv)
        handler = args.handler
    else:
        args = build_parser().parse_args(argv)
        handler = _legacy_run
    try:
        return handler(args, stdout)
    except CyclicDependencyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (SQLError, UnicodeDecodeError) as error:
        # input the parser or the UTF-8 decoder refuses: name the file or
        # statement it came from, else the input as given
        where = (
            getattr(error, "filename", None)
            or getattr(error, "source_name", None)
            or getattr(args, "input", None)
        )
        print(f"error: {where}: {error}", file=sys.stderr)
        return 2


def main():  # pragma: no cover - thin wrapper
    sys.exit(run())
