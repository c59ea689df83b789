"""Seeded differential cross-mode equivalence harness.

With four execution modes (dag/stack x serial/thread/process), two store
temperatures (cold/warm), two store layouts (single-file/sharded, plus a
``migrate`` between them), streaming vs materialized extraction, two
refresh paths (full/incremental), three ingest front ends (HTTP
``/extract``, ``repro stream`` and ``session.refresh``, fed poison) and
order-independent planning, the
cheapest way to trust them all is to prove they *agree*: every generated warehouse — classic templates plus the
warehouse-DML surface (MERGE, ON CONFLICT upserts, QUALIFY, GROUPING
SETS/ROLLUP/CUBE, unnest/generate_series) — must produce byte-identical
sorted edge sets and byte-identical csv renderings on every axis.

Scale knobs (all via environment variables):

* ``DIFFERENTIAL_SMOKE=1`` — the reduced CI scale (3 seeds x 40 views);
* ``DIFFERENTIAL_SEEDS`` / ``DIFFERENTIAL_VIEWS`` — explicit overrides;
* ``DIFFERENTIAL_ARTIFACT_DIR`` — when set, a failing axis writes the
  reproducing seed and the full generated SQL script there (uploaded as a
  CI artifact by the ``differential-smoke`` job).

Every failure message prints the reproducing seed and the exact
``generate_warehouse(...)`` call that rebuilds the workload.
"""

import os

import pytest

from repro.core.runner import LineageXRunner
from repro.datasets import workload
from repro.output.csv_output import graph_to_csv
from repro.store import LineageStore

SMOKE = bool(os.environ.get("DIFFERENTIAL_SMOKE"))
NUM_SEEDS = int(os.environ.get("DIFFERENTIAL_SEEDS", "3" if SMOKE else "10"))
NUM_VIEWS = int(os.environ.get("DIFFERENTIAL_VIEWS", "40" if SMOKE else "100"))
EXTENDED_PROBABILITY = 0.35
SEEDS = [1300 + index for index in range(NUM_SEEDS)]
#: the process-executor axis covers every seed (a pool that cannot start
#: degrades gracefully to threads, so the equivalence assertion holds on
#: any platform).
PROCESS_SEEDS = SEEDS
ARTIFACT_DIR = os.environ.get("DIFFERENTIAL_ARTIFACT_DIR")


def _recipe(seed):
    return (
        f"workload.generate_warehouse(num_base_tables={_num_base_tables()}, "
        f"num_views={NUM_VIEWS}, seed={seed}, "
        f"extended_probability={EXTENDED_PROBABILITY})"
    )


def _num_base_tables():
    return max(4, NUM_VIEWS // 12)


def _warehouse(seed):
    return workload.generate_warehouse(
        num_base_tables=_num_base_tables(),
        num_views=NUM_VIEWS,
        seed=seed,
        extended_probability=EXTENDED_PROBABILITY,
    )


def _graph_signature(graph):
    """Sorted edge set + csv rendering, as one comparable text blob."""
    edges = "\n".join(
        f"{edge.source}\t{edge.target}\t{edge.kind}" for edge in sorted(graph.edges())
    )
    return edges + "\n=== csv ===\n" + graph_to_csv(graph)


def _signature(result):
    return _graph_signature(result.graph)


def _dump_artifact(seed, warehouse, axis):
    if not ARTIFACT_DIR:
        return
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"seed_{seed}_{axis}.sql")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"-- differential failure: axis={axis} seed={seed}\n"
            f"-- rebuild the workload with: {_recipe(seed)}\n"
        )
        handle.write(warehouse.script)
        handle.write("\n")


def _assert_equivalent(seed, warehouse, axis, expected, actual):
    if expected == actual:
        return
    _dump_artifact(seed, warehouse, axis)
    expected_lines = expected.splitlines()
    actual_lines = actual.splitlines()
    first_diff = next(
        (
            index
            for index, pair in enumerate(zip(expected_lines, actual_lines))
            if pair[0] != pair[1]
        ),
        min(len(expected_lines), len(actual_lines)),
    )
    window = "\n".join(
        f"  baseline: {expected_lines[i] if i < len(expected_lines) else '<missing>'}\n"
        f"  {axis:>8}: {actual_lines[i] if i < len(actual_lines) else '<missing>'}"
        for i in range(first_diff, min(first_diff + 3, max(len(expected_lines), len(actual_lines))))
    )
    raise AssertionError(
        f"differential mismatch on axis {axis!r} for seed={seed}: edge sets "
        f"or csv renderings diverge from the dag/serial baseline.\n"
        f"Reproduce with: {_recipe(seed)}\nFirst divergence:\n{window}"
    )


def _run(warehouse, sources=None, **kwargs):
    runner = LineageXRunner(catalog=warehouse.catalog(), **kwargs)
    result = runner.run(dict(warehouse.views) if sources is None else sources)
    assert not result.report.unresolved, (
        f"seed={warehouse.seed}: unexpected unresolved entries "
        f"{dict(result.report.unresolved)} (reproduce with: "
        f"{_recipe(warehouse.seed)})"
    )
    return result


def _shuffled_sources(warehouse):
    """The same statements as a mapping in deterministically shuffled order."""
    import random

    names = list(warehouse.views)
    random.Random(warehouse.seed * 7 + 1).shuffle(names)
    return {name: warehouse.views[name] for name in names}


# ----------------------------------------------------------------------
# dag vs stack, serial vs thread, original vs shuffled order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_mode_worker_and_order_equivalence(seed):
    warehouse = _warehouse(seed)
    baseline = _signature(_run(warehouse, mode="dag"))

    axes = {
        "stack": _run(warehouse, mode="stack"),
        "threads": _run(warehouse, mode="dag", workers=4, executor="thread"),
        "shuffled": _run(warehouse, sources=_shuffled_sources(warehouse)),
        "shuffled-stack": _run(
            warehouse, sources=_shuffled_sources(warehouse), mode="stack"
        ),
    }
    for axis, result in axes.items():
        _assert_equivalent(seed, warehouse, axis, baseline, _signature(result))


# ----------------------------------------------------------------------
# process executor (graceful thread degradation keeps this portable)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", PROCESS_SEEDS)
def test_process_executor_equivalence(seed):
    warehouse = _warehouse(seed)
    baseline = _signature(_run(warehouse))
    result = _run(warehouse, mode="dag", workers=2, executor="process")
    _assert_equivalent(seed, warehouse, "process", baseline, _signature(result))


# ----------------------------------------------------------------------
# cold vs warm persistent store
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_cold_vs_warm_store_equivalence(seed, tmp_path):
    warehouse = _warehouse(seed)
    baseline = _signature(_run(warehouse))

    store = LineageStore(tmp_path / "cache")
    try:
        cold = _run(warehouse, store=store)
        warm = _run(warehouse, store=store)
    finally:
        store.close()
    assert warm.stats()["num_reused_store"] > 0, (
        f"seed={seed}: the warm run spliced nothing from the store "
        f"(reproduce with: {_recipe(seed)})"
    )
    _assert_equivalent(seed, warehouse, "cold-store", baseline, _signature(cold))
    _assert_equivalent(seed, warehouse, "warm-store", baseline, _signature(warm))


# ----------------------------------------------------------------------
# streaming extraction (lazy source, AST release, wave batching)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_equivalence(seed):
    warehouse = _warehouse(seed)
    baseline = _signature(_run(warehouse))

    axes = {
        "stream": _run(warehouse, stream=True),
        "stream-threads": _run(
            warehouse, stream=True, workers=4, executor="thread"
        ),
        # a one-shot generator source: the shape the 100k tier feeds in
        "stream-generator": _run(
            warehouse, sources=iter(list(warehouse.views.items())), stream=True
        ),
    }
    for axis, result in axes.items():
        _assert_equivalent(seed, warehouse, axis, baseline, _signature(result))


# ----------------------------------------------------------------------
# sharded vs single-file store (cold, warm, and across a migration)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_store_equivalence(seed, tmp_path):
    warehouse = _warehouse(seed)
    baseline = _signature(_run(warehouse))
    num_statements = len(warehouse.views)

    sharded_dir = tmp_path / "sharded"
    store = LineageStore(sharded_dir, shards=4)
    try:
        cold = _run(warehouse, store=store, stream=True)
        warm_sharded = _run(warehouse, store=store, stream=True)
    finally:
        store.close()
    assert warm_sharded.stats()["num_reused_store"] == num_statements, (
        f"seed={seed}: sharded warm run spliced "
        f"{warm_sharded.stats()['num_reused_store']}/{num_statements} "
        f"(reproduce with: {_recipe(seed)})"
    )

    store = LineageStore(tmp_path / "single")
    try:
        _run(warehouse, store=store)
        warm_single = _run(warehouse, store=store)
    finally:
        store.close()
    assert warm_single.stats()["num_reused_store"] == num_statements

    # re-shard in place: cache keys are layout-independent, so the warm
    # run over the migrated store must splice everything, byte-identically
    assert LineageStore.migrate(sharded_dir, 1) > 0
    store = LineageStore(sharded_dir)
    try:
        warm_migrated = _run(warehouse, store=store)
    finally:
        store.close()
    assert warm_migrated.stats()["num_reused_store"] == num_statements

    for axis, result in (
        ("sharded-cold", cold),
        ("sharded-warm", warm_sharded),
        ("single-warm", warm_single),
        ("migrated-warm", warm_migrated),
    ):
        _assert_equivalent(seed, warehouse, axis, baseline, _signature(result))


# ----------------------------------------------------------------------
# full vs incremental refresh
# ----------------------------------------------------------------------
def _modified_sources(warehouse):
    """A deterministic delta: tweak one view, add one new view."""
    import random

    view_names = [
        name for name, sql in warehouse.views.items() if sql.startswith("CREATE VIEW")
    ]
    picked = random.Random(warehouse.seed * 13 + 5).choice(sorted(view_names))
    changes = {
        picked: warehouse.views[picked] + " LIMIT 3",
        "diff_extra_view": "CREATE VIEW diff_extra_view AS SELECT s.id FROM base_0 s",
    }
    modified = dict(warehouse.views)
    modified.update(changes)
    return changes, modified


@pytest.mark.parametrize("seed", SEEDS)
def test_full_vs_incremental_equivalence(seed):
    warehouse = _warehouse(seed)
    first = _run(warehouse)
    changes, modified = _modified_sources(warehouse)

    full = _run(warehouse, sources=modified)
    incremental = first.update(changes)
    assert not incremental.report.unresolved
    assert incremental.report.reused, (
        f"seed={seed}: the incremental refresh spliced nothing "
        f"(reproduce with: {_recipe(seed)})"
    )
    _assert_equivalent(
        seed, warehouse, "incremental", _signature(full), _signature(incremental)
    )


# ----------------------------------------------------------------------
# indexed vs BFS impact queries: the reachability-index axis
# ----------------------------------------------------------------------
def _impact_signature(graph, method):
    """Every column's partition in both directions, as one text blob."""
    from repro.analysis.impact import impact_analysis

    columns = sorted(
        set(graph.column_adjacency("downstream"))
        | set(graph.column_adjacency("upstream"))
    )
    lines = []
    for column in columns:
        for direction in ("downstream", "upstream"):
            result = impact_analysis(
                graph, column, direction=direction, method=method
            )
            rows = ";".join(
                f"{table}.{name}:{kind}" for table, name, kind in result.to_rows()
            )
            lines.append(f"{column}\t{direction}\t{rows}")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_impact_equivalence(seed, tmp_path):
    """The precomputed reachability index must answer every impact query
    byte-identically to the kind-tracking BFS — on dag and stack graphs,
    over cold and warm stores, through frozen snapshots and on live graphs
    with a forced index build."""
    warehouse = _warehouse(seed)
    store = LineageStore(tmp_path / "cache")
    try:
        cold = _run(warehouse, store=store)
        warm = _run(warehouse, store=store)
    finally:
        store.close()
    stack = _run(warehouse, mode="stack")

    for axis, result in (("cold", cold), ("warm", warm), ("stack", stack)):
        graph = result.graph
        bfs = _impact_signature(graph, "bfs")
        _assert_equivalent(
            seed, warehouse, f"index-frozen-{axis}",
            bfs, _impact_signature(graph.freeze(), "auto"),
        )
        graph.reachability()  # force a live build; auto must then use it
        _assert_equivalent(
            seed, warehouse, f"index-live-{axis}",
            bfs, _impact_signature(graph, "auto"),
        )


@pytest.mark.parametrize("seed", SEEDS[:1] if SMOKE else SEEDS[:3])
def test_indexed_impact_serving_equivalence(seed):
    """The index pinned into the daemon's published snapshot answers
    identically to BFS over the same frozen graph."""
    import asyncio

    from repro.server import LineageApp

    warehouse = _classic_warehouse(seed)

    async def serve():
        app = LineageApp(catalog=warehouse.catalog(), batch_window=0.002)
        await app.start(port=0)
        try:
            await app.preload(dict(warehouse.views))
            return app.snapshots.current().graph
        finally:
            await app.stop()

    graph = asyncio.run(serve())
    _assert_equivalent(
        seed, warehouse, "index-serving",
        _impact_signature(graph, "bfs"), _impact_signature(graph, "auto"),
    )


# ----------------------------------------------------------------------
# crash recovery: journaled-then-killed-then-resumed ingest vs one shot
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS[:1] if SMOKE else SEEDS[:3])
def test_crash_recovery_equivalence(seed, tmp_path):
    """Ingesting half the corpus (journaled), abandoning the daemon
    without a clean shutdown, replaying the journal in a fresh daemon,
    and ingesting the rest must be byte-identical to a one-shot run."""
    import asyncio
    import random

    from repro.server import LineageApp

    warehouse = _classic_warehouse(seed)
    journal_dir = tmp_path / "journal"
    names = list(warehouse.views)
    random.Random(seed * 11 + 3).shuffle(names)
    half = max(1, len(names) // 2)

    async def one_shot():
        app = LineageApp(catalog=warehouse.catalog(), batch_window=0.002)
        app.batcher.start()
        try:
            await app.batcher.submit(dict(warehouse.views))
            return _graph_signature(app.snapshots.current().graph)
        finally:
            await app.stop()

    async def first_half():
        app = LineageApp(
            catalog=warehouse.catalog(),
            batch_window=0.002,
            journal_dir=str(journal_dir),
        )
        app.batcher.start()
        # chunked submissions so several journal batches land
        for index in range(0, half, 7):
            chunk = {
                name: warehouse.views[name]
                for name in names[index:index + 7]
            }
            await app.batcher.submit(chunk)
        # "crash": stop the loop and walk away — no app.stop(), no
        # journal close.  Every acknowledged entry is already fsync'd.
        await app.batcher.stop()

    async def resume():
        app = LineageApp(
            catalog=warehouse.catalog(),
            batch_window=0.002,
            journal_dir=str(journal_dir),
        )
        try:
            replayed = await app.recover()
            assert replayed >= half, (
                f"seed={seed}: journal replay returned {replayed} < {half} "
                f"(reproduce with: {_recipe(seed)} at extended_probability=0.0)"
            )
            rest = {name: warehouse.views[name] for name in names[half:]}
            if rest:
                await app.batcher.submit(rest)
            return _graph_signature(app.snapshots.current().graph)
        finally:
            await app.stop()

    baseline = asyncio.run(one_shot())
    asyncio.run(first_half())
    recovered = asyncio.run(resume())
    _assert_equivalent(seed, warehouse, "crash-recovery", baseline, recovered)


# ----------------------------------------------------------------------
# the serving daemon: shuffled concurrent /extract batches vs one shot
# ----------------------------------------------------------------------
def _classic_warehouse(seed):
    """Classic (pure CREATE VIEW) templates: any batch order converges.

    The extended DML templates (MERGE/upsert) mutate state across
    statements, so streaming them in arbitrary cross-batch order is not
    semantically order-independent; the serving axis therefore runs the
    classic workload, where every statement is a view definition.
    """
    return workload.generate_warehouse(
        num_base_tables=_num_base_tables(),
        num_views=NUM_VIEWS,
        seed=seed,
        extended_probability=0.0,
    )


async def _post_extract(host, port, statements):
    import asyncio
    import json

    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps({"statements": statements}).encode()
        writer.write(
            b"POST /extract HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    assert status == 200, f"POST /extract failed ({status}): {payload[:300]}"
    return json.loads(payload)


@pytest.mark.parametrize("seed", SEEDS)
def test_serving_daemon_stream_equivalence(seed, tmp_path):
    """Streaming the corpus through /extract in shuffled concurrent batches
    must leave the daemon's snapshot byte-identical to a one-shot run —
    and splice warm hits from the store the one-shot run populated."""
    import asyncio
    import random

    from repro.server import LineageApp

    warehouse = _classic_warehouse(seed)
    cache_dir = tmp_path / "cache"

    store = LineageStore(cache_dir)
    try:
        baseline = _signature(_run(warehouse, store=store))
    finally:
        store.close()

    names = list(warehouse.views)
    random.Random(seed * 3 + 2).shuffle(names)
    chunk_size = max(3, len(names) // 12)
    chunks = [
        {name: warehouse.views[name] for name in names[index:index + chunk_size]}
        for index in range(0, len(names), chunk_size)
    ]

    async def stream():
        app = LineageApp(
            catalog=warehouse.catalog(),
            cache_dir=str(cache_dir),
            batch_window=0.002,
        )
        host, port = await app.start(port=0)
        try:
            responses = []
            # waves of 4 concurrent chunked requests: exercises both the
            # micro-batch assembly and cross-batch ordering
            for index in range(0, len(chunks), 4):
                responses.extend(
                    await asyncio.gather(
                        *(
                            _post_extract(host, port, chunk)
                            for chunk in chunks[index:index + 4]
                        )
                    )
                )
            snapshot = app.snapshots.current()
            return _graph_signature(snapshot.graph), responses
        finally:
            await app.stop()

    served, responses = asyncio.run(stream())

    spliced = sum(
        response.get("batch", {}).get("reused_from_store", 0)
        for response in responses
    )
    assert spliced > 0, (
        f"seed={seed}: the daemon spliced nothing from the warm store "
        f"(reproduce with: {_recipe(seed)} at extended_probability=0.0)"
    )
    unresolved = responses[-1].get("batch", {}).get("unresolved", [])
    assert not unresolved, (
        f"seed={seed}: statements still unresolved after the final batch: "
        f"{unresolved}"
    )
    _assert_equivalent(seed, warehouse, "serving", baseline, served)


# ----------------------------------------------------------------------
# the ingest front ends: HTTP /extract, `repro stream`, session.refresh
# ----------------------------------------------------------------------
def _front_end_inputs(seed):
    """One statement sequence over the classic warehouse, with a
    schema-preserving redefinition appended and a poison redefinition
    inserted after the original it shadows; plus the catalog DDL."""
    import random

    warehouse = _classic_warehouse(seed)
    rng = random.Random(seed * 5 + 1)
    names = list(warehouse.views)
    redefined, poisoned = rng.sample(names[: len(names) // 2], 2)
    sequence = list(warehouse.views.items())
    head, body = warehouse.views[redefined].split(" AS ", 1)
    sequence.append((redefined, f"{head} AS SELECT v.* FROM ({body}) v"))
    poison = (poisoned, f"CREATE VIEW {poisoned} AS SELEC 1")
    sequence.insert(rng.randrange(len(sequence) // 2, len(sequence)), poison)
    ddl = ";\n".join(
        f"CREATE TABLE {table} ({', '.join(f'{column} INT' for column in columns)})"
        for table, columns in warehouse.base_tables.items()
    )
    return warehouse, sequence, poison, ddl


def _chunks(sequence, size=7):
    """Consecutive ``{name: sql}`` batches; a repeated name starts a new one."""
    chunks = [{}]
    for name, sql in sequence:
        if len(chunks[-1]) >= size or name in chunks[-1]:
            chunks.append({})
        chunks[-1][name] = sql
    return chunks


@pytest.mark.parametrize("seed", SEEDS[:1] if SMOKE else SEEDS[:3])
def test_ingest_front_end_equivalence(seed, tmp_path):
    """The same statements, poison included, through HTTP /extract and
    ``repro stream`` must render the CSV that ``session.refresh`` renders
    without the poison: one ingest core, one poison handling."""
    import asyncio
    import io
    import json

    from repro.catalog import catalog_from_sql
    from repro.cli import run
    from repro.output.registry import render
    from repro.server import LineageApp
    from repro.session import LineageSession

    warehouse, sequence, poison, ddl = _front_end_inputs(seed)
    chunks = _chunks(sequence)

    session = LineageSession(catalog=catalog_from_sql(ddl))
    for chunk in _chunks([item for item in sequence if item != poison]):
        session.refresh(chunk)
    expected = session.result.render("csv")

    async def serve():
        app = LineageApp(catalog=catalog_from_sql(ddl), batch_window=0.002)
        host, port = await app.start(port=0)
        try:
            rows = []
            for chunk in chunks:
                rows.extend((await _post_extract(host, port, chunk))["statements"])
            return render(app.snapshots.current().graph, "csv"), rows
        finally:
            await app.stop()

    served, rows = asyncio.run(serve())
    quarantined = [row["name"] for row in rows if row["status"] == "quarantined"]
    assert quarantined == [poison[0]], f"seed={seed}: {quarantined}"
    _assert_equivalent(seed, warehouse, "ingest-http", expected, served)

    log = tmp_path / "q.jsonl"
    log.write_text(
        "".join(json.dumps({"name": name, "sql": sql}) + "\n" for name, sql in sequence)
    )
    catalog_file = tmp_path / "catalog.sql"
    catalog_file.write_text(ddl)
    out = io.StringIO()
    code = run(
        ["stream", str(log), "--quiet", "--format", "csv", "--batch-statements", "7",
         "--catalog", str(catalog_file)],
        stdout=out,
    )
    assert code == 0
    _assert_equivalent(seed, warehouse, "ingest-stream", expected + "\n", out.getvalue())


# ----------------------------------------------------------------------
# publish patched vs rebuilt: every snapshot equals a from-scratch freeze
# ----------------------------------------------------------------------
def _rebuilt(graph):
    """A frozen graph over ``graph``'s entries, in its order, indexed from
    scratch: no index or reachability seed is carried over."""
    from repro.core.lineage import FrozenLineageGraph, LineageGraph

    live = LineageGraph()
    for entry in graph.relations.values():
        live.add(entry)
    return FrozenLineageGraph(live)


def _rows_text(adjacency):
    return "\n".join(
        f"{node}\t" + ",".join(f"{other}:{kind}" for other, kind in sorted(row.items()))
        for node, row in sorted(adjacency.items())
    )


def _publish_signature(graph, columns):
    """Everything a reader of a snapshot can observe, as one text blob:
    adjacency rows, table lists in order, edge orders, stats, creation
    order, every registered rendering, and impact answers by index and
    by BFS for ``columns``."""
    from repro.analysis.impact import impact_analysis
    from repro.analysis.ordering import creation_order
    from repro.output.registry import render, renderer_names

    parts = [
        _rows_text(graph.column_adjacency("downstream")),
        _rows_text(graph.column_adjacency("upstream")),
        repr(sorted(graph.table_successors().items())),
        repr(sorted(graph.table_predecessors().items())),
        "\n".join(f"{e.source}\t{e.target}\t{e.kind}" for e in graph.edges()),
        repr(list(graph.table_edges())),
        repr(sorted(graph.stats().items())),
        repr(creation_order(graph)),
    ]
    parts.extend(f"=== {fmt} ===\n" + render(graph, fmt) for fmt in renderer_names())
    for column in columns:
        for direction in ("downstream", "upstream"):
            for method in ("auto", "bfs"):
                rows = impact_analysis(graph, column, direction=direction, method=method)
                parts.append(f"{column}\t{direction}\t{method}\t{rows.to_rows()}")
    return "\n".join(parts)


def _publish_deltas(warehouse, graph, seed):
    """One-batch deltas over the corpus ``graph`` covering every publish
    shape: appends (one batch with a new view read by another new view
    listed first), schema-preserving and schema-changing redefinitions of
    views with readers, a removal and the re-add of the removed view, and a
    poison statement next to an append."""
    import random

    rng = random.Random(seed * 7 + 5)
    names = list(warehouse.views)
    relations = sorted(graph.relations)
    successors = graph.table_successors()
    preserving, changing, removed = rng.sample(
        [name for name in names if successors.get(name)], 3
    )

    def rewrap(name, extra=""):
        head, body = warehouse.views[name].split(" AS ", 1)
        return f"{head} AS SELECT v.*{extra} FROM ({body}) v"

    def append(index):
        relation = rng.choice(relations)
        column = rng.choice(graph.columns_of(relation))
        return f"CREATE VIEW pvr_{index} AS SELECT s.{column} AS appended FROM {relation} s"

    return [
        {"pvr_0": append(0)},
        {
            "pvr_2": "CREATE VIEW pvr_2 AS SELECT s.appended FROM pvr_1 s",
            "pvr_1": append(1),
        },
        {preserving: rewrap(preserving)},
        {changing: rewrap(changing, ", 1 AS pvr_extra")},
        {removed: None},
        {"pvr_3": append(3), names[0]: f"CREATE VIEW {names[0]} AS SELEC 1"},
        {removed: warehouse.views[removed]},
        {"pvr_1": None},
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_publish_patched_vs_rebuilt_equivalence(seed):
    """Each snapshot the daemon publishes patches the previous one's
    indexes; it must be indistinguishable from indexing the same graph from
    scratch, batch after batch: appends, redefinitions that keep or change
    a schema, removals, a re-add and a poison statement."""
    import asyncio
    import random

    from repro.core.column_refs import ColumnName
    from repro.server import LineageApp

    warehouse = _classic_warehouse(seed)
    rng = random.Random(seed)

    def check(snapshot, batch, step):
        graph = snapshot.graph
        rebuilt = _rebuilt(graph)
        columns = sorted(
            set(rng.sample(sorted(graph.column_adjacency("downstream")), 20))
            | {
                ColumnName.of(name, column)
                for name in batch if name in graph
                for column in graph.columns_of(name)
            }
        )
        _assert_equivalent(
            seed, warehouse, f"publish-patched-{step}",
            _publish_signature(rebuilt, columns), _publish_signature(graph, columns),
        )

    async def publish():
        app = LineageApp(catalog=warehouse.catalog(), batch_window=0.002)
        app.batcher.start()
        try:
            await app.batcher.submit(dict(warehouse.views))
            boot = app.snapshots.current()
            check(boot, warehouse.views, "boot")
            quarantined = []
            for step, batch in enumerate(_publish_deltas(warehouse, boot.graph, seed)):
                before = app.snapshots.version
                response = await app.batcher.submit(batch)
                quarantined += [
                    row["name"] for row in response["statements"]
                    if row["status"] == "quarantined"
                ]
                assert app.snapshots.version == before + 1, f"seed={seed}: step {step}"
                check(app.snapshots.current(), batch, step)
            return quarantined
        finally:
            await app.stop()

    quarantined = asyncio.run(publish())
    assert quarantined == [list(warehouse.views)[0]], f"seed={seed}: {quarantined}"
