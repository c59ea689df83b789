"""Endpoint handlers — every route reads a snapshot or submits a batch.

The dispatch table is deliberately flat: the daemon serves a handful of
endpoints and nothing here knows about sockets or wire format beyond the
:class:`~repro.server.http.Request`/``Response`` pair.  Read endpoints
(``/impact``, ``/ordering``, ``/render/{fmt}``, ``/stats``, ``/health``,
``/quarantine``) grab the current
:class:`~repro.server.snapshot.Snapshot` once and work only on that
frozen graph — a concurrent ingest publishing a newer generation cannot
change what an in-flight read observes.  The only write endpoint,
``POST /extract``, funnels into the
:class:`~repro.server.batcher.IngestBatcher`.

Error contract on the write path: a poison statement is NOT an HTTP
error (the response is 200 with per-statement ``quarantined`` rows);
5xx is reserved for the daemon itself — deliberate 503 shedding
(queue full, deadline exceeded, journal unavailable; all carry
``Retry-After``) and 500 for genuine non-retryable batch failures.
"""

import asyncio
import math

from .batcher import ExtractionFailed, OverloadedError
from .http import BadRequestError, Response
from ..analysis.impact import impact_analysis
from ..analysis.ordering import (
    creation_order,
    drop_order,
    root_tables,
    terminal_views,
)
from ..analysis.selector import SelectorError, selector_impact
from ..core.errors import CyclicDependencyError, UnknownColumnError
from ..output.registry import UnknownFormatError, render_bytes, renderer_names

_DIRECTIONS = ("downstream", "upstream")
_ORDERING_KINDS = {
    "creation": creation_order,
    "drop": drop_order,
    "terminal": terminal_views,
    "roots": root_tables,
}


async def dispatch(app, request):
    """Route one request to its handler (404/405 for everything else)."""
    path = request.path.rstrip("/") or "/"
    if path == "/health":
        return _require_get(request) or handle_health(app)
    if path == "/stats":
        return _require_get(request) or await handle_stats(app)
    if path == "/extract":
        if request.method != "POST":
            return Response.error(405, "use POST /extract")
        return await handle_extract(app, request)
    if path == "/quarantine":
        return _require_get(request) or handle_quarantine(app)
    if path == "/impact":
        return _require_get(request) or handle_impact(app, request)
    if path == "/ordering":
        return _require_get(request) or handle_ordering(app, request)
    if path.startswith("/render/"):
        fmt = path[len("/render/"):]
        return _require_get(request) or await handle_render(app, request, fmt)
    return Response.error(404, f"no such endpoint: {request.path}")


def _require_get(request):
    if request.method not in ("GET", "HEAD"):
        return Response.error(405, f"{request.method} not allowed here")
    return None


# ----------------------------------------------------------------------
# reads — all against one grabbed snapshot
# ----------------------------------------------------------------------
def handle_health(app):
    snapshot = app.snapshots.current()
    payload = {
        "status": "ok",
        "snapshot_version": snapshot.version,
        "relations": snapshot.stats.get("num_relations", 0),
        "uptime_seconds": round(app.uptime(), 3),
    }
    store = app.session.store
    health = store.health() if store is not None else None
    if health is not None:
        # breaker/counter reads only — no sqlite I/O, safe on the loop
        payload["store"] = health
        if health.get("status") != "ok":
            payload["status"] = health["status"]
    return Response.json(payload)


def handle_quarantine(app):
    quarantine = app.batcher.quarantine
    return Response.json(
        {"entries": quarantine.rows(), "stats": quarantine.stats()}
    )


async def handle_stats(app):
    snapshot = app.snapshots.current()
    payload = {
        "server": {
            "uptime_seconds": round(app.uptime(), 3),
            "formats": renderer_names(),
        },
        "ingest": app.batcher.stats(),
        "quarantine": app.batcher.quarantine.stats(),
        "snapshot": snapshot.describe(),
    }
    journal = getattr(app, "journal", None)
    if journal is not None:
        payload["journal"] = journal.stats()
    store = app.session.store
    if store is not None:
        # store.stats() flushes and queries sqlite under the store lock —
        # keep that off the event loop like renders and refreshes
        loop = asyncio.get_running_loop()
        payload["store"] = await loop.run_in_executor(app.executor, store.stats)
    return Response.json(payload)


def _parse_max_depth(request):
    text = request.query.get("max_depth")
    if text is None or text == "":
        return None
    try:
        value = int(text)
    except ValueError:
        raise BadRequestError(f"max_depth must be an integer, got {text!r}") from None
    if value < 1:
        raise BadRequestError(f"max_depth must be positive, got {value}")
    return value


def _restore_selector_pluses(text):
    """Undo querystring ``+``-to-space decoding on a selector value.

    ``GET /impact?selector=+web.page+`` reaches us as ``" web.page "``
    because ``+`` is the form encoding of a space.  Column names cannot
    contain spaces, so leading/trailing spaces can only ever be decoded
    pluses — map them back (clients sending ``%2B`` are unaffected).
    """
    stripped = text.strip(" ")
    leading = len(text) - len(text.lstrip(" "))
    trailing = len(text) - len(text.rstrip(" "))
    return "+" * leading + stripped + "+" * trailing


def handle_impact(app, request):
    snapshot = app.snapshots.current()
    max_depth = _parse_max_depth(request)

    selector_text = request.query.get("selector")
    if selector_text is not None:
        try:
            outcome = selector_impact(
                snapshot.graph,
                _restore_selector_pluses(selector_text),
                max_depth=max_depth,
            )
        except SelectorError as error:
            raise BadRequestError(str(error)) from None
        except UnknownColumnError as error:
            return Response.error(404, str(error))
        payload = outcome.to_payload()
        payload["snapshot_version"] = snapshot.version
        return Response.json(payload)

    column = request.query.get("column")
    if not column:
        raise BadRequestError("missing required query parameter: column or selector")
    direction = request.query.get("direction", "downstream")
    if direction not in _DIRECTIONS:
        raise BadRequestError(
            f"direction must be one of {', '.join(_DIRECTIONS)}, got {direction!r}"
        )
    try:
        result = impact_analysis(
            snapshot.graph, column, direction=direction,
            max_depth=max_depth, missing="raise",
        )
    except UnknownColumnError as error:
        return Response.error(404, str(error))
    except ValueError as error:
        # an unqualified name is a malformed request, not a missing column
        raise BadRequestError(str(error)) from None
    return Response.json(
        {
            "start": str(result.start),
            "direction": direction,
            "snapshot_version": snapshot.version,
            "impacted_tables": result.impacted_tables(),
            "columns": [
                {"table": table, "column": name, "kind": kind}
                for table, name, kind in result.to_rows()
            ],
        }
    )


def handle_ordering(app, request):
    kind = request.query.get("kind", "creation")
    handler = _ORDERING_KINDS.get(kind)
    if handler is None:
        raise BadRequestError(
            f"kind must be one of {', '.join(sorted(_ORDERING_KINDS))}, got {kind!r}"
        )
    snapshot = app.snapshots.current()
    try:
        order = handler(snapshot.graph)
    except CyclicDependencyError as error:
        return Response.error(409, f"dependency cycle: {error}")
    return Response.json(
        {"kind": kind, "snapshot_version": snapshot.version, "order": list(order)}
    )


async def handle_render(app, request, fmt):
    if not fmt:
        raise BadRequestError(
            "missing format: GET /render/{fmt} with fmt one of "
            + ", ".join(renderer_names())
        )
    snapshot = app.snapshots.current()
    loop = asyncio.get_running_loop()
    try:
        # rendering a large graph is CPU work: keep it off the event loop
        # (the snapshot is frozen, so the executor thread needs no lock)
        body, content_type = await loop.run_in_executor(
            app.executor,
            lambda: render_bytes(snapshot.graph, fmt, stats=dict(snapshot.stats)),
        )
    except UnknownFormatError as error:
        return Response.error(404, str(error))
    return Response(200, body, content_type)


# ----------------------------------------------------------------------
# the write path
# ----------------------------------------------------------------------
async def handle_extract(app, request):
    payload = request.json()
    if isinstance(payload, dict) and isinstance(payload.get("statements"), dict):
        statements = payload["statements"]
    elif isinstance(payload, dict) and payload:
        statements = payload
    else:
        raise BadRequestError(
            'body must be {"statements": {name: sql, ...}} or a bare '
            "{name: sql, ...} object with at least one statement"
        )
    for name, sql in statements.items():
        if not isinstance(sql, str) or not sql.strip():
            raise BadRequestError(f"statement {name!r} must be non-empty SQL text")
    pending = app.batcher.submit(
        {str(name): sql for name, sql in statements.items()}
    )
    timeout = getattr(app, "request_timeout", None)
    try:
        if timeout:
            result = await asyncio.wait_for(pending, timeout)
        else:
            result = await pending
    except asyncio.TimeoutError:
        app.batcher.counters["deadline_exceeded"] += 1
        return Response.error(
            503,
            f"request deadline exceeded ({timeout:.3f}s); the batch may "
            "still complete — resubmitting is safe (deduplicated)",
            headers={"Retry-After": "1"},
        )
    except OverloadedError as error:
        return Response.error(
            503, str(error),
            headers={"Retry-After": str(int(math.ceil(error.retry_after)))},
        )
    except ExtractionFailed as error:
        if error.retryable:
            return Response.error(503, str(error), headers={"Retry-After": "1"})
        return Response.error(500, str(error))
    except RuntimeError as error:
        return Response.error(503, str(error))
    return Response.json(result)
