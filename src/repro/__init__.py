"""repro — a reproduction of LineageX (ICDE 2025).

LineageX is a lightweight Python library that infers column-level lineage
from SQL query logs by static analysis and visualizes the result.  The
public API mirrors the paper's one-call workflow:

>>> import repro
>>> result = repro.lineagex(open("customer.sql").read())
>>> result.save("output/")          # lineagex.json + lineagex.html
>>> impact = result.impact_analysis("web.page")
>>> sorted(str(c) for c in impact.all_columns)[:3]
['info.age', 'info.name', 'info.oid']

The one-call functions are shims over the **Session API**, which unifies
source handling (auto-detected adapters for text, files, directories, dbt
projects and JSONL query logs), engine selection (``static`` AST pipeline
vs ``plan`` database-connection mode) and output rendering (a named
renderer registry):

>>> session = repro.LineageSession("warehouse/")
>>> result = session.extract()
>>> print(result.render("markdown"))
>>> session.refresh()               # rescan + incremental re-extraction

Package map
-----------
``repro.sqlparser``   the SQL tokenizer/parser substrate (replaces SQLGlot)
``repro.core``        the lineage extraction pipeline (the paper's contribution)
``repro.session``     the LineageSession façade (sources x engines x renderers)
``repro.sources``     input adapters + the auto-detection registry
``repro.store``       persistent content-addressed lineage store (warm starts)
``repro.catalog``     schema catalog + simulated EXPLAIN (database-connection mode)
``repro.analysis``    impact analysis, graph diff, accuracy metrics
``repro.output``      JSON / HTML / DOT / text / CSV / Markdown renderers + registry
``repro.baselines``   SQLLineage-like, SQLGlot-like and LLM-like baselines
``repro.datasets``    Example 1, retail, synthetic MIMIC, random workloads
``repro.dbt``         dbt project wrapper
"""

from .core.runner import LineageXResult, LineageXRunner, lineagex
from .core.lineage import ColumnEdge, LineageGraph, TableLineage
from .core.column_refs import ColumnName
from .core.dag import DependencyDAG
from .core.errors import (
    AmbiguousColumnError,
    CyclicDependencyError,
    DeferralLimitExceededError,
    LineageError,
    LineageRecordError,
    UnknownRelationError,
)
from .core.plan_extractor import PlanModeRunner, lineagex_with_connection
from .store import LineageStore
from .catalog import Catalog, catalog_from_sql
from .analysis.impact import impact_analysis
from .dbt import lineagex_dbt
from .session import LineageResult, LineageSession, SessionConfig
from .streaming import QueryLogStreamer
from .sources import (
    DbtSource,
    DirectorySource,
    FileSource,
    QueryLogSource,
    Source,
    TextSource,
    detect_source,
    register_source,
)
from .output.registry import (
    UnknownFormatError,
    register_renderer,
    renderer_names,
)

__version__ = "1.9.0"

__all__ = [
    "lineagex",
    "lineagex_with_connection",
    "lineagex_dbt",
    "LineageSession",
    "SessionConfig",
    "LineageResult",
    "Source",
    "TextSource",
    "FileSource",
    "DirectorySource",
    "DbtSource",
    "QueryLogSource",
    "QueryLogStreamer",
    "detect_source",
    "register_source",
    "register_renderer",
    "renderer_names",
    "UnknownFormatError",
    "LineageXResult",
    "LineageXRunner",
    "PlanModeRunner",
    "LineageGraph",
    "TableLineage",
    "ColumnEdge",
    "ColumnName",
    "DependencyDAG",
    "Catalog",
    "catalog_from_sql",
    "impact_analysis",
    "LineageError",
    "LineageRecordError",
    "LineageStore",
    "UnknownRelationError",
    "AmbiguousColumnError",
    "CyclicDependencyError",
    "DeferralLimitExceededError",
    "__version__",
]
