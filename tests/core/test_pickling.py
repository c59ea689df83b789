"""Pickle round trips of the lineage data model and the error types.

Each of these classes defines a pickling hook (``__reduce__`` or
``__getstate__``); without it a round trip fails or silently gives an
object whose attributes are wrong.
"""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.column_refs import ColumnName
from repro.core.errors import (
    AmbiguousColumnError,
    CyclicDependencyError,
    DeferralLimitExceededError,
    SessionClosedError,
    UnknownRelationError,
)
from repro.core.lineage import LineageGraph, TableLineage


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


class TestPickleRoundTrip:
    @pytest.mark.parametrize(
        "error",
        [
            UnknownRelationError("t", reason="why"),
            AmbiguousColumnError("c", ["b", "a"]),
            CyclicDependencyError(["a", "b", "a"]),
            DeferralLimitExceededError(["a", "b"], 3),
            SessionClosedError("refresh"),
        ],
        ids=lambda error: type(error).__name__,
    )
    def test_error_keeps_its_attributes(self, error):
        copy = _round_trip(error)
        assert type(copy) is type(error)
        assert vars(copy) == vars(error)
        assert str(copy) == str(error)

    def test_table_lineage_in_a_graph(self):
        lineage = TableLineage(name="v")
        lineage.add_contribution("a", ColumnName.of("t", "a"))
        lineage.add_reference(ColumnName.of("t", "b"))
        graph = LineageGraph()
        graph.add(lineage)  # subscribes the graph through a weak reference
        edges = list(lineage.edges())
        copy = _round_trip(lineage)
        assert copy == lineage
        assert list(copy.edges()) == edges

    def test_column_name_rehashes_in_another_process(self):
        # string hashes are salted per process, so a copy must not carry
        # the hash cached by the process that pickled it
        payload = pickle.dumps(ColumnName.of("t", "a"))
        code = (
            "import pickle, sys\n"
            "from repro.core.column_refs import ColumnName\n"
            "copy = pickle.loads(sys.stdin.buffer.read())\n"
            "assert copy in {ColumnName.of('t', 'a')}, 'stale hash'\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        child = subprocess.run(
            [sys.executable, "-c", code], input=payload, env=env,
            capture_output=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()
