"""Tests for the command-line interface."""

import io
import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, run
from repro.datasets import example1, retail
from repro.streaming import load_offset


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "customer.sql"
    path.write_text(example1.QUERY_LOG)
    return str(path)


@pytest.fixture
def catalog_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(retail.BASE_TABLE_DDL)
    return str(path)


def run_cli(*argv):
    buffer = io.StringIO()
    code = run(list(argv), stdout=buffer)
    return code, buffer.getvalue()


class TestArgumentParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["input.sql"])
        assert args.format == "text"
        assert args.strict is False
        assert args.no_stack is False

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["models/", "--dbt", "--strict", "--no-stack", "--format", "json",
             "--impact", "web.page", "--catalog", "ddl.sql", "--output", "out/"]
        )
        assert args.dbt and args.strict and args.no_stack
        assert args.impact == "web.page"

    def test_invalid_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x.sql", "--format", "yaml"])

    @pytest.mark.parametrize("flag, value", [("--workers", "2"), ("--executor", "process")])
    def test_worker_pool_flags_are_unrecognized(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["extract", "x.sql", flag, value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_batch_window_flag_is_unrecognized(self, capsys):
        # ingest group-commits: there is no batch window to set
        with pytest.raises(SystemExit) as excinfo:
            run(["serve", "--batch-window-ms", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --batch-window-ms" in capsys.readouterr().err


class TestExecution:
    def test_text_output(self, example1_file):
        code, output = run_cli(example1_file)
        assert code == 0
        assert "webinfo (view)" in output
        assert "wpage <- web.page" in output

    def test_json_output(self, example1_file):
        code, output = run_cli(example1_file, "--format", "json")
        assert code == 0
        payload = json.loads(output)
        assert "relations" in payload

    def test_stats_output(self, example1_file):
        code, output = run_cli(example1_file, "--format", "stats")
        assert code == 0
        assert "num_views: 3" in output

    def test_dot_output(self, example1_file):
        code, output = run_cli(example1_file, "--format", "dot")
        assert output.startswith("digraph")

    def test_html_output(self, example1_file):
        code, output = run_cli(example1_file, "--format", "html")
        assert output.startswith("<!DOCTYPE html>")

    def test_impact_analysis(self, example1_file):
        code, output = run_cli(example1_file, "--impact", "web.page")
        assert code == 0
        assert "webinfo.wpage" in output
        assert "impacted tables:  info, webact, webinfo" in output

    def test_upstream_analysis(self, example1_file):
        code, output = run_cli(example1_file, "--upstream", "info.wpage")
        assert "web.page" in output

    def test_output_directory(self, example1_file, tmp_path):
        out_dir = tmp_path / "out"
        code, _ = run_cli(example1_file, "--output", str(out_dir))
        assert (out_dir / "lineagex.json").exists()
        assert (out_dir / "lineagex.html").exists()

    def test_catalog_flag(self, tmp_path, catalog_file):
        sql = tmp_path / "views.sql"
        sql.write_text("CREATE VIEW v AS SELECT * FROM customers")
        code, output = run_cli(str(sql), "--catalog", catalog_file)
        assert code == 0
        assert "email" in output  # star expanded through the catalog schema

    def test_directory_input(self, tmp_path):
        (tmp_path / "a_model.sql").write_text("SELECT t.x FROM t")
        (tmp_path / "b_model.sql").write_text("SELECT u.y FROM u")
        code, output = run_cli(str(tmp_path))
        assert code == 0
        assert "a_model" in output and "b_model" in output

    def test_dbt_mode(self, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / "stg.sql").write_text("SELECT w.page FROM {{ source('raw', 'web') }} w")
        (models / "report.sql").write_text("SELECT s.page FROM {{ ref('stg') }} s")
        code, output = run_cli(str(tmp_path), "--dbt")
        assert code == 0
        assert "report" in output and "raw.web" in output

    def test_strict_mode_propagates(self, tmp_path):
        sql = tmp_path / "ambiguous.sql"
        sql.write_text(
            "CREATE TABLE a (k integer); CREATE TABLE b (k integer);"
            "CREATE VIEW v AS SELECT k FROM a, b"
        )
        from repro.core.errors import AmbiguousColumnError

        with pytest.raises(AmbiguousColumnError):
            run_cli(str(sql), "--strict")

    def test_module_invocation(self, example1_file):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", example1_file, "--format", "stats"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "num_views: 3" in completed.stdout


#: (command prefix, flag) for every flag parsed by ``cli._positive_int``
POSITIVE_INT_FLAGS = [
    (["impact", "x.sql", "t.c"], "--max-depth"),
    (["cache", "gc", "--cache-dir", "d"], "--max-entries"),
    (["serve"], "--max-pending"),
    (["serve"], "--max-batch-statements"),
    (["stream", "q.jsonl"], "--batch-statements"),
    (["stream", "q.jsonl"], "--max-batches"),
    (["stream", "q.jsonl"], "--compact-max-entries"),
    (["stream", "q.jsonl"], "--compact-every"),
]


class TestPositiveIntFlags:
    @staticmethod
    def _parse(argv):
        from repro.cli import SUBCOMMANDS, build_subcommand_parser

        parser = build_subcommand_parser() if argv[0] in SUBCOMMANDS else build_parser()
        return parser.parse_args(argv)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "must be >= 1, got 0"),
            ("-3", "must be >= 1, got -3"),
            ("many", "expected an integer, got 'many'"),
            ("4", None),
        ],
        ids=["zero", "negative", "non-integer", "valid"],
    )
    @pytest.mark.parametrize(
        "prefix, flag", POSITIVE_INT_FLAGS,
        ids=[prefix[0] + flag for prefix, flag in POSITIVE_INT_FLAGS],
    )
    def test_positive_int_flag(self, prefix, flag, value, message, capsys):
        if message is None:
            args = self._parse(prefix + [flag, value])
            assert getattr(args, flag.lstrip("-").replace("-", "_")) == int(value)
            return
        with pytest.raises(SystemExit) as excinfo:
            self._parse(prefix + [flag, value])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {flag}: {message}" in error
        assert "--workers" not in error


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0
        import repro

        assert repro.__version__ in capsys.readouterr().out


class TestCyclicInput:
    """Two views reading each other are an input error: exit status 2 and
    one line on stderr, from both the subcommand and the legacy form."""

    @pytest.fixture
    def cyclic_dir(self, tmp_path):
        (tmp_path / "a.sql").write_text("CREATE VIEW a AS SELECT x FROM b;\n")
        (tmp_path / "b.sql").write_text("CREATE VIEW b AS SELECT x FROM a;\n")
        return str(tmp_path)

    @pytest.mark.parametrize("prefix", [("extract",), ()], ids=["extract", "legacy"])
    def test_cycle_exits_2_with_one_line(self, prefix, cyclic_dir, capsys):
        code, output = run_cli(*prefix, cyclic_dir)
        assert code == 2
        assert output == ""
        assert capsys.readouterr().err == (
            "error: cyclic dependency among queries: a -> b -> a\n"
        )


class TestUnreadableInput:
    """A statement the parser refuses and a file that is not UTF-8 are input
    errors too: one line naming the statement or file, exit status 2."""

    @pytest.fixture
    def unparsable_dir(self, tmp_path):
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELEC 1;\n")
        (tmp_path / "w.sql").write_text("CREATE VIEW w AS SELECT 1 AS x;\n")
        return str(tmp_path)

    @pytest.fixture
    def binary_dir(self, tmp_path):
        (tmp_path / "v.sql").write_bytes(b"CREATE VIEW v AS SELECT \xff 1;\n")
        return tmp_path

    @pytest.mark.parametrize("prefix", [("extract",), ()], ids=["extract", "legacy"])
    def test_parse_error_exits_2_with_one_line(self, prefix, unparsable_dir, capsys):
        code, output = run_cli(*prefix, unparsable_dir)
        assert code == 2
        assert output == ""
        assert capsys.readouterr().err == (
            "error: v: expected SELECT, VALUES or a parenthesised query "
            "(near 'SELEC' at line 1, column 18)\n"
        )

    @pytest.mark.parametrize("prefix", [("extract",), ()], ids=["extract", "legacy"])
    def test_non_utf8_file_exits_2_with_one_line(self, prefix, binary_dir, capsys):
        code, output = run_cli(*prefix, str(binary_dir))
        assert code == 2
        assert output == ""
        assert capsys.readouterr().err == (
            f"error: {binary_dir / 'v.sql'}: 'utf-8' codec can't decode byte "
            "0xff in position 24: invalid start byte\n"
        )


    def test_bad_catalog_names_the_catalog_file(self, example1_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.ddl"
        catalog.write_text("CREATE TABLE t (x int")
        code, _ = run_cli("extract", example1_file, "--catalog", str(catalog))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {catalog}: expected ')'")


class TestSubcommands:
    def test_extract_text(self, example1_file):
        code, output = run_cli("extract", example1_file)
        assert code == 0
        assert "webinfo (view)" in output

    def test_extract_markdown(self, example1_file):
        code, output = run_cli("extract", example1_file, "--format", "markdown")
        assert code == 0
        assert "## `webinfo` (view)" in output

    def test_extract_csv(self, example1_file):
        code, output = run_cli("extract", example1_file, "--format", "csv")
        assert output.splitlines()[0] == "source,target,kind"

    def test_extract_output_dir(self, example1_file, tmp_path):
        out_dir = tmp_path / "out"
        code, _ = run_cli("extract", example1_file, "--output", str(out_dir))
        assert code == 0
        assert (out_dir / "lineagex.json").exists()

    def test_extract_plan_engine(self, example1_file, tmp_path):
        catalog = tmp_path / "catalog.sql"
        catalog.write_text(
            "CREATE TABLE customers (cid integer, name text, age integer);"
            "CREATE TABLE orders (oid integer, cid integer, amount numeric);"
            "CREATE TABLE web (cid integer, date timestamp, page text, reg boolean);"
        )
        code, output = run_cli(
            "extract", example1_file, "--engine", "plan", "--catalog", str(catalog)
        )
        assert code == 0
        assert "webinfo (view)" in output

    def test_extract_query_log(self, tmp_path):
        log = tmp_path / "queries.jsonl"
        log.write_text(
            json.dumps({"name": "v", "sql": "CREATE VIEW v AS SELECT t.a FROM t"})
        )
        code, output = run_cli("extract", str(log))
        assert code == 0
        assert "v (view)" in output

    def test_impact_subcommand(self, example1_file):
        code, output = run_cli("impact", example1_file, "web.page")
        assert code == 0
        assert "webinfo.wpage" in output

    def test_impact_upstream_direction(self, example1_file):
        code, output = run_cli(
            "impact", example1_file, "info.wpage", "--direction", "upstream"
        )
        assert "web.page" in output

    def test_render_to_file(self, example1_file, tmp_path):
        out = tmp_path / "lineage.dot"
        code, output = run_cli("render", example1_file, "--format", "dot",
                               "--out", str(out))
        assert code == 0
        assert output == ""
        assert out.read_text().startswith("digraph")

    def test_render_list_formats(self):
        code, output = run_cli("render", "--list-formats")
        assert code == 0
        formats = output.split()
        assert "csv" in formats and "markdown" in formats

    def test_refresh_with_edit(self, tmp_path, capsys):
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT t.a FROM t")
        (tmp_path / "w.sql").write_text("CREATE VIEW w AS SELECT u.b FROM u")
        code, output = run_cli(
            "refresh", str(tmp_path),
            "--edit", "v=CREATE VIEW v AS SELECT t.c FROM t",
            "--format", "text",
        )
        assert code == 0
        assert "c <- t.c" in output
        assert "1 reused" in capsys.readouterr().err

    def test_refresh_edit_from_file(self, tmp_path):
        (tmp_path / "models").mkdir()
        (tmp_path / "models" / "v.sql").write_text("CREATE VIEW v AS SELECT t.a FROM t")
        edit = tmp_path / "new_v.sql"
        edit.write_text("CREATE VIEW v AS SELECT t.b FROM t")
        code, output = run_cli(
            "refresh", str(tmp_path / "models"), "--edit", f"v=@{edit}",
            "--format", "text",
        )
        assert code == 0
        assert "b <- t.b" in output

    def test_refresh_edit_removal(self, tmp_path):
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT t.a FROM t")
        (tmp_path / "w.sql").write_text("CREATE VIEW w AS SELECT u.b FROM u")
        code, output = run_cli("refresh", str(tmp_path), "--edit", "v=",
                               "--format", "text")
        assert code == 0
        assert "v (view)" not in output and "w (view)" in output

    def test_refresh_without_edit_on_file_input_errors_cleanly(
        self, example1_file, capsys
    ):
        # a single .sql file cannot be rescanned; expect a clean error,
        # not a traceback
        code, _ = run_cli("refresh", example1_file)
        assert code == 2
        assert "cannot be re-scanned" in capsys.readouterr().err

    def test_refresh_malformed_edit(self, tmp_path):
        (tmp_path / "v.sql").write_text("CREATE VIEW v AS SELECT t.a FROM t")
        with pytest.raises(SystemExit):
            run_cli("refresh", str(tmp_path), "--edit", "no-equals-sign")

    def test_unresolved_still_exits_one(self, tmp_path):
        log = tmp_path / "orphan.sql"
        log.write_text("CREATE VIEW v AS SELECT m.x FROM missing m")
        from repro.datasets import retail

        catalog = tmp_path / "schema.sql"
        catalog.write_text(retail.BASE_TABLE_DDL)
        code, _ = run_cli(
            "extract", str(log), "--engine", "plan", "--catalog", str(catalog)
        )
        assert code == 1

    def test_legacy_form_still_works_alongside(self, example1_file):
        legacy_code, legacy_output = run_cli(example1_file, "--format", "stats")
        sub_code, sub_output = run_cli("extract", example1_file, "--format", "stats")
        assert legacy_code == sub_code == 0
        assert legacy_output == sub_output


class TestCacheAndExecutorFlags:
    def test_cache_dir_warm_start(self, example1_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = run_cli("extract", example1_file, "--cache-dir", cache_dir)
        assert code == 0
        code, output = run_cli(
            "extract", example1_file, "--cache-dir", cache_dir, "--format", "stats"
        )
        assert code == 0
        assert "num_reused_store: 3" in output

    def test_warm_and_cold_render_identically(self, example1_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold = run_cli(
            "render", example1_file, "--cache-dir", cache_dir, "--format", "csv"
        )
        assert code == 0
        code, warm = run_cli(
            "render", example1_file, "--cache-dir", cache_dir, "--format", "csv"
        )
        assert code == 0
        assert warm == cold

    def test_legacy_form_accepts_new_flags(self, example1_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = run_cli(example1_file, "--cache-dir", cache_dir)
        assert code == 0
        code, output = run_cli(
            example1_file, "--cache-dir", cache_dir, "--format", "stats"
        )
        assert code == 0
        assert "num_reused_store: 3" in output


class TestCacheSubcommand:
    def _populate(self, example1_file, cache_dir):
        code, _ = run_cli("extract", example1_file, "--cache-dir", cache_dir)
        assert code == 0

    def test_stats(self, example1_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(example1_file, cache_dir)
        code, output = run_cli("cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries: 3" in output
        assert "source_entries: 1" in output

    def test_clear(self, example1_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(example1_file, cache_dir)
        code, output = run_cli("cache", "clear", "--cache-dir", cache_dir)
        assert code == 0
        assert "removed 4 records" in output
        code, output = run_cli("cache", "stats", "--cache-dir", cache_dir)
        assert "entries: 0" in output

    def test_gc_max_entries(self, example1_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(example1_file, cache_dir)
        code, output = run_cli(
            "cache", "gc", "--cache-dir", cache_dir, "--max-entries", "1"
        )
        assert code == 0
        assert "evicted 2 records" in output

    def test_gc_without_criteria_errors(self, example1_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate(example1_file, cache_dir)
        code, _ = run_cli("cache", "gc", "--cache-dir", cache_dir)
        assert code == 2

    def test_cache_dir_required(self):
        with pytest.raises(SystemExit):
            run_cli("cache", "stats")

    @pytest.mark.parametrize(
        "argv", [["stats"], ["clear"], ["gc", "--max-entries", "1"]],
        ids=["stats", "clear", "gc"],
    )
    def test_missing_store_is_an_error(self, argv, tmp_path, capsys):
        # a mistyped --cache-dir must not create an empty store there
        cache_dir = str(tmp_path / "nosuch" / "typo")
        code, output = run_cli("cache", *argv, "--cache-dir", cache_dir)
        assert code == 2
        assert output == ""
        assert capsys.readouterr().err == f"error: no lineage store at {cache_dir}\n"
        assert not (tmp_path / "nosuch").exists()


class TestStreamSubcommand:
    def _log(self, tmp_path):
        path = tmp_path / "q.jsonl"
        lines = [
            {"name": "base", "sql": "CREATE TABLE base (id INT, v INT)",
             "timestamp": 1},
            {"name": "v1", "sql": "CREATE VIEW v1 AS SELECT id, v FROM base",
             "timestamp": 2},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return str(path)

    def test_stream_drains_log_and_renders(self, tmp_path):
        log = self._log(tmp_path)
        code, output = run_cli("stream", log, "--quiet", "--format", "json")
        assert code == 0
        payload = json.loads(output)
        assert "v1" in payload["relations"]
        # the resume offset was persisted next to the log
        offset = load_offset(tmp_path / "q.jsonl.offset.json")
        assert offset["line_count"] == 2

    def test_stream_resumes_from_offset(self, tmp_path):
        log = self._log(tmp_path)
        code, _ = run_cli("stream", log, "--quiet", "--format", "json")
        assert code == 0
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"name": "v2", "sql": "CREATE VIEW v2 AS SELECT id FROM v1",
                 "timestamp": 3}) + "\n")
        code, output = run_cli("stream", log, "--quiet", "--format", "json")
        assert code == 0
        assert "v2" in json.loads(output)["relations"]

    def test_stream_quarantines_poison_and_resumes(self, tmp_path, capsys):
        # a poison line is quarantined with the error record /extract
        # returns, the rest lands, and a resume over the same log neither
        # crash-loops nor changes the graph
        import asyncio

        from repro.server import LineageApp

        poison = "CREATE VIEW v2 AS SELEC a.id FROM a"
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in [
            {"name": "v1", "sql": "CREATE VIEW v1 AS SELECT a.id FROM a"},
            {"name": "v2", "sql": poison},
            {"name": "v3", "sql": "CREATE VIEW v3 AS SELECT v1.id FROM v1"},
        ]))
        code, first = run_cli("stream", str(path), "--format", "csv")
        assert code == 0
        assert first.split() == [
            "source,target,kind", "a.id,v1.id,contribute", "v1.id,v3.id,contribute",
        ]
        (line,) = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("stream: quarantined v2 ")
        ]
        reported = json.loads(line.split("): ", 1)[1])

        async def extract():
            app = LineageApp()
            app.batcher.start()
            try:
                return await app.batcher.submit({"v2": poison})
            finally:
                await app.stop()

        (row,) = asyncio.run(extract())["statements"]
        assert row["status"] == "quarantined"
        assert reported == row["error"]

        code, second = run_cli("stream", str(path), "--format", "csv")
        assert code == 0
        assert second == first
        assert "stream: quarantined v2 " in capsys.readouterr().err

    def test_stream_missing_file_errors(self, tmp_path):
        code, _ = run_cli("stream", str(tmp_path / "absent.jsonl"), "--quiet")
        assert code == 2

    def test_stream_with_cache_and_compaction(self, tmp_path):
        log = self._log(tmp_path)
        cache_dir = str(tmp_path / "cache")
        code, _ = run_cli(
            "stream", log, "--quiet", "--cache-dir", cache_dir,
            "--compact-max-entries", "10", "--compact-every", "1",
        )
        assert code == 0
