"""ABL-STACK — ablation of the Table/View Auto-Inference stack.

Section III of the paper presents the stack-based deferred processing as
the mechanism that resolves references to views defined later in the log;
this ablation removes it: without it (``use_stack=False``), queries are
processed in log order and a ``SELECT *`` or unprefixed column over a not-yet-known view
cannot be resolved — exactly the failure mode of the prior tools in
Figure 2.  This benchmark quantifies what the stack buys on Example 1 and on
a shuffled MIMIC workload, and measures its runtime cost.
"""

import pytest

from repro.analysis.metrics import column_metrics, edge_metrics
from repro.core.runner import lineagex
from repro.datasets import example1, mimic

from _report import emit, table


def _run(script, use_stack):
    return lineagex(script, use_stack=use_stack)


@pytest.mark.parametrize("use_stack", [True, False], ids=["with-stack", "without-stack"])
def test_ablation_example1(benchmark, use_stack):
    result = benchmark(_run, example1.QUERY_LOG, use_stack)
    assert "info" in result.graph


@pytest.mark.parametrize("use_stack", [True, False], ids=["with-stack", "without-stack"])
def test_ablation_mimic_shuffled(benchmark, use_stack):
    script = mimic.full_script(shuffle_seed=11)
    result = benchmark(_run, script, use_stack)
    assert len(result.graph.views) >= 1


def test_ablation_report(benchmark):
    truth = example1.ground_truth()

    def wildcard_views(graph):
        return sum(1 for view in graph.views if "*" in view.output_columns)

    rows = []
    for label, use_stack in (("with stack", True), ("without stack (ablation)", False)):
        example_result = _run(example1.QUERY_LOG, use_stack)
        edge_report = edge_metrics(example_result.graph, truth)
        column_report = column_metrics(example_result.graph, truth)

        mimic_result = _run(mimic.full_script(shuffle_seed=11), use_stack)
        rows.append(
            (
                label,
                example_result.report.deferral_count,
                f"{column_report.recall:.2f}",
                f"{edge_report.recall:.2f}",
                wildcard_views(example_result.graph),
                wildcard_views(mimic_result.graph),
                len(mimic_result.report.unresolved),
            )
        )
    benchmark(lambda: _run(example1.QUERY_LOG, True))
    lines = table(
        [
            "configuration",
            "deferrals (ex.1)",
            "column recall (ex.1)",
            "edge recall (ex.1)",
            "wildcard views (ex.1)",
            "wildcard views (mimic, shuffled)",
            "unresolved (mimic)",
        ],
        rows,
    )
    lines.append("")
    lines.append(
        "Disabling the stack reproduces the prior-tool failure modes: SELECT * over a"
    )
    lines.append(
        "later-defined view degrades to a wildcard and its column edges are lost."
    )
    emit("ablation_stack", "Ablation — Table/View Auto-Inference stack", lines)

    with_stack, without_stack = rows
    assert float(with_stack[2]) == 1.0 and float(with_stack[3]) == 1.0
    assert with_stack[4] == 0
    assert float(without_stack[3]) < 1.0
    assert without_stack[4] >= 1 or without_stack[5] > with_stack[5]
