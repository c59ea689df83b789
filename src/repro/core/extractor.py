"""The SQL Lineage Information Extraction Module.

This module implements the heart of LineageX (Section III, Table I of the
paper): a post-order depth-first traversal of the query AST that maintains

* ``T``      -- the table lineage,
* ``C_con``  -- per output column, the set of contributing source columns,
* ``C_ref``  -- source columns referenced by the query,
* ``M_CTE``  -- the lineage of WITH/subquery intermediates,
* ``C_pos``  -- the column candidates currently in scope,
* ``P``      -- the columns of the most recent projection,

and updates them according to the keyword rules:

========================  =====================================================
Keyword                    Rule
========================  =====================================================
``SELECT``                 resolve ``C_con`` for each projection from ``C_pos``
``FROM`` (table/view)      add the relation to ``T`` and its columns to ``C_pos``
``FROM`` (CTE/subquery)    look the intermediate up in ``M_CTE`` and add its
                           columns to ``C_pos``
``WITH`` / subquery        extract the intermediate's lineage and store it in
                           ``M_CTE`` for later reference
set operations             add every projection column of every leaf to
                           ``C_ref`` (a set comparison references all of them)
other keywords             add every column found in the clause to ``C_ref``
========================  =====================================================

In this implementation the traversal state lives in scopes
(:class:`~repro.core.resolver.Scope`) and per-query accumulation objects
(:class:`QueryResult`), which is equivalent to the temporary-variable
formulation of the paper but composes cleanly across nesting levels.
Intermediate results (CTEs, derived tables) are traced *through*, so the
reported lineage only mentions real relations: base tables, views, and other
Query Dictionary entries.
"""

from dataclasses import dataclass, field

from .column_refs import ColumnName
from .errors import UnknownRelationError
from .lineage import TableLineage
from .resolver import Scope, SourceBinding
from ..sqlparser import ast
from ..sqlparser.dialect import normalize_identifier, normalize_name, quote_identifier
from ..sqlparser.printer import to_sql


#: Version of the extraction algorithm's observable output.  It is one of
#: the four components of the persistent lineage store's cache key, so any
#: change to the rules in Table I (or to how results are attributed) must
#: bump it — stale records then become silent cold misses instead of wrong
#: warm hits.
#:
#: v2: the warehouse DML surface (MERGE / INSERT ... ON CONFLICT / QUALIFY
#: / GROUPING SETS) — new reference rules, and the cache-key fingerprint of
#: UPDATE/DELETE/MERGE/upsert entries now covers the written target's
#: schema, so every pre-v2 record must miss cleanly.
EXTRACTOR_VERSION = 2


# ----------------------------------------------------------------------
# Schema providers
# ----------------------------------------------------------------------
class SchemaProvider:
    """Answers "which columns does relation X have?" during extraction.

    The default provider knows nothing: every relation is treated as an
    external base table of unknown schema.  The auto-inference scheduler and
    the catalog integration supply richer providers.
    """

    def get_columns(self, name):
        """Return the ordered column list of ``name`` or ``None`` if unknown.

        Implementations may raise :class:`UnknownRelationError` to signal
        that the relation *will* be known once another Query Dictionary
        entry has been processed — the scheduler reacts by deferring the
        current extraction.
        """
        return None


class CatalogSchemaProvider(SchemaProvider):
    """A provider backed by a :class:`repro.catalog.Catalog`."""

    def __init__(self, catalog):
        self.catalog = catalog

    def get_columns(self, name):
        table = self.catalog.get(name)
        if table is None:
            return None
        return table.column_names()


# ----------------------------------------------------------------------
# Tracing (used by the Figure 4 benchmark and the tests)
# ----------------------------------------------------------------------
RULE_SELECT = "SELECT"
RULE_FROM_TABLE = "FROM (Table/View)"
RULE_FROM_CTE = "FROM (CTE/Subquery)"
RULE_WITH = "WITH/Subquery"
RULE_SET_OPERATION = "Set Operation"
RULE_OTHER = "Other Keywords"

ALL_RULES = (
    RULE_SELECT,
    RULE_FROM_TABLE,
    RULE_FROM_CTE,
    RULE_WITH,
    RULE_SET_OPERATION,
    RULE_OTHER,
)


@dataclass
class ExtractionStep:
    """One rule firing during the traversal."""

    order: int
    rule: str
    node: str
    detail: str = ""


@dataclass
class ExtractionTrace:
    """The ordered list of rule firings for one extracted query."""

    steps: list = field(default_factory=list)

    #: traces with ``active = False`` (the shared null trace) record
    #: nothing; hot paths test this before building step detail strings.
    active = True

    def add(self, rule, node, detail=""):
        self.steps.append(
            ExtractionStep(order=len(self.steps) + 1, rule=rule, node=node, detail=detail)
        )

    def rule_counts(self):
        """How many times each Table I rule fired."""
        counts = {rule: 0 for rule in ALL_RULES}
        for step in self.steps:
            counts[step.rule] = counts.get(step.rule, 0) + 1
        return counts

    def as_rows(self):
        """Rows of (order, rule, node, detail) for pretty-printing."""
        return [(step.order, step.rule, step.node, step.detail) for step in self.steps]


class _NullTrace:
    """Shared do-nothing trace used when ``collect_trace`` is off.

    Rule firings used to be recorded (and their detail strings formatted)
    on every extraction and then thrown away unless the caller asked for
    traces; the null trace makes the non-collecting path free.
    """

    steps = ()
    active = False

    def add(self, rule, node, detail=""):
        pass

    def rule_counts(self):
        return {rule: 0 for rule in ALL_RULES}

    def as_rows(self):
        return []


_NULL_TRACE = _NullTrace()


# ----------------------------------------------------------------------
# Per-query accumulation
# ----------------------------------------------------------------------
class QueryResult:
    """The lineage accumulated for one query expression (slotted: one is
    built per SELECT block, subquery, and CTE processed)."""

    __slots__ = (
        "output_columns",
        "column_map",
        "referenced",
        "source_tables",
        "expressions",
    )

    def __init__(self):
        self.output_columns = []
        self.column_map = {}        # column -> set[ColumnName]
        self.referenced = set()     # set[ColumnName]
        self.source_tables = set()  # set[str]
        self.expressions = {}       # column -> defining SQL text

    def add_output(self, column, sources, expression=None):
        column = normalize_identifier(column)
        column_map = self.column_map
        existing = column_map.get(column)
        if existing is None:
            self.output_columns.append(column)
            existing = column_map[column] = set()
        existing.update(sources)
        if expression and column not in self.expressions:
            self.expressions[column] = expression
        add_table = self.source_tables.add
        for source in sources:
            add_table(source.table)

    def add_reference(self, sources):
        for source in sources:
            self.referenced.add(source)
            self.source_tables.add(source.table)

    def rename_columns(self, new_names):
        """Positionally rename output columns (CREATE VIEW (c1, c2, ...))."""
        if not new_names:
            return
        renamed_map = {}
        renamed_columns = []
        renamed_expressions = {}
        for index, column in enumerate(self.output_columns):
            new_name = (
                normalize_identifier(new_names[index])
                if index < len(new_names)
                else column
            )
            renamed_columns.append(new_name)
            renamed_map[new_name] = self.column_map.get(column, set())
            if column in self.expressions:
                renamed_expressions[new_name] = self.expressions[column]
        self.output_columns = renamed_columns
        self.column_map = renamed_map
        self.expressions = renamed_expressions


# ----------------------------------------------------------------------
# The extractor
# ----------------------------------------------------------------------
class LineageExtractor:
    """Extract column-level lineage from a single query AST."""

    def __init__(self, provider=None, strict=False, collect_trace=False):
        self.provider = provider if provider is not None else SchemaProvider()
        self.strict = strict
        self.collect_trace = collect_trace

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self, identifier, query, sql="", declared_columns=None):
        """Extract the lineage of ``query`` producing relation ``identifier``.

        Returns ``(TableLineage, ExtractionTrace)``.  ``declared_columns``
        is the optional explicit column list of a ``CREATE VIEW (c1, ...)``
        statement and renames the query's output columns positionally.
        The trace is only populated when the extractor was built with
        ``collect_trace=True``; otherwise a shared empty null trace is
        returned and no rule firings are recorded.
        """
        trace = ExtractionTrace() if self.collect_trace else _NULL_TRACE
        result = self._process_query(query, None, trace)
        result.rename_columns(declared_columns or [])
        # Bulk-fill the lineage object: everything in the QueryResult is
        # already normalised and de-duplicated (QueryResult.add_output /
        # add_reference maintain those invariants), so the per-item
        # ``add_*`` helpers — each a membership probe plus an observer
        # notification — are pure overhead here.  One _bump at the end
        # keeps subscribed-graph semantics.
        lineage = TableLineage(name=normalize_name(identifier), sql=sql)
        column_map = result.column_map
        expressions = result.expressions
        contributions = lineage.contributions
        lineage_expressions = lineage.expressions
        output_columns = lineage.output_columns
        for column in result.output_columns:
            if column in contributions:
                # duplicate declared names (CREATE VIEW v (a, a) AS ...)
                # collapse to their first occurrence, as add_output_column
                # always did; column_map already merged their sources
                continue
            sources = column_map.get(column)
            contributions[column] = set(sources) if sources else set()
            if column in expressions:
                lineage_expressions[column] = expressions[column]
            output_columns.append(column)
        lineage.referenced.update(result.referenced)
        lineage.source_tables.update(result.source_tables)
        lineage._bump()
        return lineage, trace

    def extract_statement(self, parsed_query):
        """Extract lineage for a :class:`~repro.core.preprocess.ParsedQuery`."""
        return self.extract(
            parsed_query.identifier,
            parsed_query.query,
            sql=parsed_query.sql,
            declared_columns=parsed_query.column_names,
        )

    # ------------------------------------------------------------------
    # Query expressions
    # ------------------------------------------------------------------
    def _process_query(self, query, parent_scope, trace):
        if isinstance(query, ast.Select):
            return self._process_select(query, parent_scope, trace)
        if isinstance(query, ast.SetOperation):
            return self._process_set_operation(query, parent_scope, trace)
        if query is None:
            return QueryResult()
        raise TypeError(f"unsupported query expression: {type(query).__name__}")

    # -- SELECT blocks ------------------------------------------------------
    def _process_select(self, select, parent_scope, trace):
        scope = Scope(parent_scope)
        result = QueryResult()

        # WITH rule: extract each CTE and store it in M_CTE.
        self._register_ctes(select.ctes, scope, trace)

        # FROM rules: bind every source, collecting join predicates into C_ref.
        for source in select.from_sources:
            self._bind_source(source, scope, result, trace)

        # Other-keywords rule: WHERE / GROUP BY / HAVING / windows / DISTINCT ON.
        if select.where is not None:
            self._collect_references(select.where, scope, result, trace, "WHERE")
        for expression in select.distinct_on:
            self._collect_references(expression, scope, result, trace, "DISTINCT ON")
        for _, window in select.windows:
            self._collect_window_references(window, scope, result, trace)

        # SELECT rule: resolve the contribution set of every projection.
        self._process_projections(select, scope, result, trace)

        # GROUP BY / HAVING / ORDER BY may reference projection aliases, so
        # they are resolved after the projections are known.
        for expression in select.group_by:
            self._collect_references(
                expression, scope, result, trace, "GROUP BY", result_aliases=result
            )
        if select.having is not None:
            self._collect_references(
                select.having, scope, result, trace, "HAVING", result_aliases=result
            )
        if select.qualify is not None:
            # QUALIFY filters on window results and, like ORDER BY, may
            # name a projection alias — other-keywords rule either way.
            self._collect_references(
                select.qualify, scope, result, trace, "QUALIFY", result_aliases=result
            )
        for item in select.order_by:
            self._collect_references(
                item.expression, scope, result, trace, "ORDER BY", result_aliases=result
            )
        for expression in (select.limit, select.offset):
            if expression is not None:
                self._collect_references(expression, scope, result, trace, "LIMIT")
        return result

    def _register_ctes(self, ctes, scope, trace):
        for cte in ctes:
            # Pre-register the CTE name so a recursive self-reference inside
            # its own body resolves to the (still empty) intermediate instead
            # of leaking a phantom base table into the lineage.
            placeholder = SourceBinding(
                name=normalize_identifier(cte.name),
                kind="cte",
                columns=[normalize_identifier(c) for c in cte.column_names] or None,
            )
            scope.add_cte(cte.name, placeholder)
            sub_result = self._process_query(cte.query, scope, trace)
            sub_result.rename_columns(cte.column_names)
            binding = SourceBinding(
                name=normalize_identifier(cte.name),
                kind="cte",
                columns=list(sub_result.output_columns),
                column_map={k: set(v) for k, v in sub_result.column_map.items()},
                referenced=set(sub_result.referenced),
                source_tables=set(sub_result.source_tables),
            )
            scope.add_cte(cte.name, binding)
            trace.add(RULE_WITH, "CTE", cte.name)

    def _process_projections(self, select, scope, result, trace):
        unnamed_counter = 0
        for projection in select.projections:
            expression = projection.expression
            if isinstance(expression, ast.Star):
                self._expand_star_projection(expression, scope, result, trace)
                continue
            name = projection.output_name
            if name is None:
                unnamed_counter += 1
                name = f"column_{len(result.output_columns) + 1}"
            if type(expression) is ast.ColumnRef:
                # fast path for the dominant projection shape — one column
                # reference, no subqueries/aliases to thread through
                qualifier = expression.table
                resolution = scope.resolve_column(
                    qualifier, expression.name, strict=self.strict
                )
                if resolution.unresolved and qualifier is None:
                    sources = set()
                else:
                    sources = resolution.sources
            else:
                sources = self._contributions_of(expression, scope, result, trace)
            result.add_output(name, sources, expression=_expression_sql(expression))
            if trace.active:
                trace.add(
                    RULE_SELECT, "Projection", f"{name} <- {_format_sources(sources)}"
                )

    def _expand_star_projection(self, star, scope, result, trace):
        expansions = scope.expand_star(star.table)
        for column, sources in expansions:
            result.add_output(column, sources, expression=str(star))
        if trace.active:
            label = f"{star.table}.*" if star.table else "*"
            trace.add(
                RULE_SELECT,
                "Projection",
                f"{label} expanded to {len(expansions)} columns",
            )

    # -- set operations ------------------------------------------------------
    def _process_set_operation(self, operation, parent_scope, trace):
        scope = Scope(parent_scope)
        self._register_ctes(operation.ctes, scope, trace)

        leaves = list(operation.leaves())
        leaf_results = [self._process_query(leaf, scope, trace) for leaf in leaves]
        result = QueryResult()

        # Output columns take their names from the leftmost leaf; every leaf
        # contributes positionally to the matching output column.
        first = leaf_results[0] if leaf_results else QueryResult()
        for position, column in enumerate(first.output_columns):
            combined = set()
            for leaf_result in leaf_results:
                if position < len(leaf_result.output_columns):
                    leaf_column = leaf_result.output_columns[position]
                    combined |= leaf_result.column_map.get(leaf_column, set())
            result.add_output(column, combined, expression=first.expressions.get(column))

        # Set-operation rule: every projection column of every leaf is
        # referenced by the row comparison, and the leaves' own references
        # propagate too.
        for leaf_result in leaf_results:
            for sources in leaf_result.column_map.values():
                result.add_reference(sources)
            result.add_reference(leaf_result.referenced)
            result.source_tables |= leaf_result.source_tables
        if trace.active:
            trace.add(
                RULE_SET_OPERATION,
                operation.operator,
                f"{len(leaves)} leaves, {len(result.output_columns)} output columns",
            )

        for item in operation.order_by:
            self._collect_references(
                item.expression, scope, result, trace, "ORDER BY", result_aliases=result
            )
        for expression in (operation.limit, operation.offset):
            if expression is not None:
                self._collect_references(expression, scope, result, trace, "LIMIT")
        return result

    # ------------------------------------------------------------------
    # FROM-clause binding
    # ------------------------------------------------------------------
    def _bind_source(self, source, scope, result, trace):
        if isinstance(source, ast.Join):
            self._bind_source(source.left, scope, result, trace)
            self._bind_source(source.right, scope, result, trace)
            if source.condition is not None:
                self._collect_references(
                    source.condition, scope, result, trace, f"{source.join_type} JOIN ON"
                )
            for column in source.using_columns:
                resolution = scope.resolve_column(None, column, strict=self.strict)
                result.add_reference(resolution.sources)
                trace.add(RULE_OTHER, "USING", column)
            return
        if isinstance(source, ast.TableRef):
            self._bind_table_ref(source, scope, result, trace)
            return
        if isinstance(source, ast.SubquerySource):
            self._bind_subquery_source(source, scope, result, trace)
            return
        if isinstance(source, ast.ValuesSource):
            columns = source.column_aliases or []
            binding = SourceBinding(
                name=normalize_identifier(source.alias or "values"),
                kind="values",
                columns=[normalize_identifier(c) for c in columns] if columns else [],
            )
            scope.add_binding(binding)
            trace.add(RULE_FROM_CTE, "VALUES", source.alias or "values")
            return
        if isinstance(source, ast.FunctionSource):
            self._bind_function_source(source, scope, result, trace)
            return
        raise TypeError(f"unsupported FROM source: {type(source).__name__}")

    def _bind_table_ref(self, table_ref, scope, result, trace):
        parts = table_ref.name.parts
        relation = normalize_name(parts[0] if len(parts) == 1 else ".".join(parts))
        visible_name = normalize_identifier(table_ref.alias) or relation.split(".")[-1]

        # FROM (CTE/Subquery) rule: the name may refer to a WITH intermediate.
        cte_binding = None
        if table_ref.name.schema is None:
            cte_binding = scope.find_cte(relation)
        if cte_binding is not None:
            binding = SourceBinding(
                name=visible_name,
                kind="cte",
                columns=list(cte_binding.columns)
                if cte_binding.columns is not None
                else None,
                column_map={k: set(v) for k, v in cte_binding.column_map.items()},
                referenced=set(cte_binding.referenced),
                source_tables=set(cte_binding.source_tables),
            )
            self._apply_column_aliases(binding, table_ref.column_aliases)
            scope.add_binding(binding)
            # The intermediate's own lineage flows into the outer query.
            result.add_reference(binding.referenced)
            result.source_tables |= binding.source_tables
            if trace.active:
                trace.add(RULE_FROM_CTE, "FROM", f"{relation} (CTE)")
            return

        # FROM (Table/View) rule: a real relation.
        columns = self.provider.get_columns(relation)
        binding = SourceBinding(
            name=visible_name,
            kind="relation",
            relation_name=relation,
            columns=list(columns) if columns is not None else None,
        )
        self._apply_column_aliases(binding, table_ref.column_aliases)
        scope.add_binding(binding)
        result.source_tables.add(relation)
        if trace.active:
            trace.add(
                RULE_FROM_TABLE,
                "FROM",
                f"{relation}" + (f" AS {visible_name}" if table_ref.alias else ""),
            )

    def _bind_subquery_source(self, source, scope, result, trace):
        sub_result = self._process_query(source.query, scope, trace)
        binding = SourceBinding(
            name=normalize_identifier(source.alias or "subquery"),
            kind="subquery",
            columns=list(sub_result.output_columns),
            column_map={k: set(v) for k, v in sub_result.column_map.items()},
            referenced=set(sub_result.referenced),
            source_tables=set(sub_result.source_tables),
        )
        self._apply_column_aliases(binding, source.column_aliases)
        scope.add_binding(binding)
        result.add_reference(binding.referenced)
        result.source_tables |= binding.source_tables
        trace.add(RULE_WITH, "Subquery", source.alias or "(derived table)")

    def _bind_function_source(self, source, scope, result, trace):
        columns = [normalize_identifier(c) for c in source.column_aliases]
        if not columns:
            columns = [normalize_identifier(source.effective_name or "value")]
        binding = SourceBinding(
            name=normalize_identifier(source.effective_name or "function"),
            kind="function",
            columns=columns,
        )
        scope.add_binding(binding)
        if source.function is not None:
            for argument in source.function.args:
                self._collect_references(argument, scope, result, trace, "FUNCTION")
        if trace.active:
            trace.add(RULE_FROM_CTE, "FROM", f"function {binding.name}")

    @staticmethod
    def _apply_column_aliases(binding, column_aliases):
        if not column_aliases:
            return
        aliases = [normalize_identifier(name) for name in column_aliases]
        if binding.columns is None:
            binding.columns = aliases
            return
        renamed_map = {}
        renamed_columns = []
        for index, original in enumerate(binding.columns):
            new_name = aliases[index] if index < len(aliases) else original
            renamed_columns.append(new_name)
            if binding.column_map:
                renamed_map[new_name] = set(binding.column_map.get(original, set()))
            elif binding.kind == "relation":
                renamed_map[new_name] = {
                    ColumnName.of(binding.relation_name, original)
                }
        binding.columns = renamed_columns
        if renamed_map:
            binding.column_map = renamed_map

    # ------------------------------------------------------------------
    # Expression walking
    # ------------------------------------------------------------------
    def _contributions_of(self, expression, scope, result, trace):
        """Source columns contributing to a projection expression (C_con)."""
        sources = set()
        self._walk_expression(
            expression,
            scope,
            result,
            trace,
            on_column=lambda resolved: sources.update(resolved),
            context="SELECT",
        )
        return sources

    def _collect_references(
        self, expression, scope, result, trace, clause, result_aliases=None
    ):
        """Add every column found in ``expression`` to C_ref (other-keywords rule)."""
        if expression is None:
            return
        found = set()
        self._walk_expression(
            expression,
            scope,
            result,
            trace,
            on_column=lambda resolved: found.update(resolved),
            context=clause,
            result_aliases=result_aliases,
        )
        if found:
            result.add_reference(found)
            if trace.active:
                trace.add(RULE_OTHER, clause, _format_sources(found))

    def _collect_window_references(self, window, scope, result, trace):
        for expression in window.partition_by:
            self._collect_references(expression, scope, result, trace, "WINDOW")
        for item in window.order_by:
            self._collect_references(item.expression, scope, result, trace, "WINDOW")

    def _walk_expression(
        self,
        expression,
        scope,
        result,
        trace,
        on_column,
        context,
        result_aliases=None,
    ):
        """Recursively visit ``expression`` resolving every column reference.

        ``on_column`` receives the set of real source columns for each
        reference found.  Subqueries nested in the expression are processed
        with their own scopes (parented to ``scope`` so correlated references
        resolve); their output columns feed ``on_column`` and their internal
        references are added to the enclosing query's ``C_ref``.
        """
        if expression is None or not isinstance(expression, ast.Node):
            return

        if isinstance(expression, ast.ColumnRef):
            qualifier = expression.table
            if qualifier is None and result_aliases is not None:
                # GROUP BY / ORDER BY / HAVING may name a projection alias;
                # prefer it (SQL resolves ORDER BY against the output list).
                alias = normalize_identifier(expression.name)
                if alias in result_aliases.column_map:
                    on_column(result_aliases.column_map[alias])
                    return
            resolution = scope.resolve_column(
                qualifier, expression.name, strict=self.strict
            )
            if resolution.unresolved and qualifier is None:
                # An unqualified column we cannot place anywhere: ignore it
                # rather than invent a relation (matches the paper's
                # best-effort behaviour without metadata).
                return
            on_column(resolution.sources)
            return

        if isinstance(expression, ast.Star):
            try:
                expansions = scope.expand_star(expression.table)
            except UnknownRelationError:
                raise
            for _, sources in expansions:
                on_column(sources)
            return

        if isinstance(expression, (ast.SubqueryExpr, ast.ExistsExpr)):
            sub_result = self._process_query(expression.query, scope, trace)
            if isinstance(expression, ast.SubqueryExpr):
                for sources in sub_result.column_map.values():
                    on_column(sources)
            else:
                # EXISTS only filters rows; its columns are references.
                for sources in sub_result.column_map.values():
                    result.add_reference(sources)
            result.add_reference(sub_result.referenced)
            result.source_tables |= sub_result.source_tables
            return

        if isinstance(expression, ast.InExpr):
            self._walk_expression(
                expression.operand, scope, result, trace, on_column, context, result_aliases
            )
            for value in expression.values:
                self._walk_expression(
                    value, scope, result, trace, on_column, context, result_aliases
                )
            if expression.query is not None:
                sub_result = self._process_query(expression.query, scope, trace)
                for sources in sub_result.column_map.values():
                    result.add_reference(sources)
                result.add_reference(sub_result.referenced)
                result.source_tables |= sub_result.source_tables
            return

        if isinstance(expression, ast.FunctionCall):
            for argument in expression.args:
                self._walk_expression(
                    argument, scope, result, trace, on_column, context, result_aliases
                )
            if expression.filter_clause is not None:
                self._collect_references(
                    expression.filter_clause, scope, result, trace, "FILTER"
                )
            if expression.over is not None:
                self._collect_window_references(expression.over, scope, result, trace)
            return

        # Generic recursion over child nodes for every other expression type
        # (binary/unary operators, CASE, CAST, EXTRACT, BETWEEN, LIKE, ...).
        for child in expression.children():
            self._walk_expression(
                child, scope, result, trace, on_column, context, result_aliases
            )


def _format_sources(sources):
    return ", ".join(sorted(str(source) for source in sources)) or "(none)"


def _expression_sql(expression):
    """Best-effort SQL text of a projection expression (for documentation)."""
    if type(expression) is ast.ColumnRef:
        # the overwhelmingly common projection shape; matches the printer's
        # output exactly without spinning up a renderer
        qualifier = expression.qualifier
        if not qualifier:
            return quote_identifier(expression.name)
        if len(qualifier) == 1:
            return quote_identifier(qualifier[0]) + "." + quote_identifier(
                expression.name
            )
        return ".".join(
            quote_identifier(part) for part in (*qualifier, expression.name)
        )
    try:
        return to_sql(expression)
    except TypeError:
        return ""
