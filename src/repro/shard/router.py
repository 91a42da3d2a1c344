"""Scatter-gather SELECT merging for the sharded proxy.

A multi-shard SELECT runs independently on every target shard and the
per-shard answers are merged here into what one engine holding every
row would return:

- plain selects concatenate (in shard order), then re-apply ORDER BY and
  LIMIT globally with the executor's own sort key.  An ORDER BY term
  that is not an output column rides along from each leg as a hidden
  trailing item (:func:`scatter_select`), stripped after sorting;
- aggregates (and GROUP BY) never merge finalized values: each shard
  runs ``QuerySession.execute_partial_select`` (grouping without
  finalize) and :func:`merge_partial_results` folds the partial states
  with :func:`~repro.query.aggstate.merge_partials` (AVG as sum+count,
  DISTINCT as value sets), finalizes once, and shapes through the
  executor's projection, ORDER BY and LIMIT.

Joins scatter under the co-location assumption the ShardMap sets up:
join partners either share the shard key (co-partitioned) or are
replicated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..query import ast
from ..query.aggstate import Groups, finalize_groups, merge_partials
from ..query.executor import QueryResult, project_row, shape_result

__all__ = [
    "merge_partial_results",
    "merge_select_results",
    "scatter_select",
]

#: Output name of the hidden leg item carrying ORDER BY term ``i``.
_HIDDEN = "__order%d"


def _order_terms(stmt: ast.Select) -> List[Tuple[ast.Expr, bool, bool]]:
    """Per ORDER BY term of a plain scatter: ``(expr, desc, hidden)``.

    A bare unqualified column naming an output column sorts on that
    column; any other term becomes hidden item ``__order<i>``, with
    references to output aliases replaced by the aliased expressions —
    a leg's projection evaluates items against source rows, while the
    single engine's sort sees the projected row.
    """
    aliases: Dict[str, ast.Expr] = {
        item.output_name: item.expr for item in stmt.items
    }

    def resolve(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            if expr.table is None and expr.name in aliases:
                return aliases[expr.name]
            return expr
        changes = {
            attr: resolve(getattr(expr, attr))
            for attr in ("left", "right", "operand", "low", "high")
            if isinstance(getattr(expr, attr, None), ast.Expr)
        }
        return replace(expr, **changes) if changes else expr

    terms = []
    for expr, desc in stmt.order_by:
        output = (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.name in aliases
        )
        terms.append((expr if output else resolve(expr), desc, not output))
    return terms


def scatter_select(stmt: ast.Select) -> ast.Select:
    """The statement each leg of a plain (non-aggregate) scatter runs.

    ORDER BY terms that are not output columns are appended as hidden
    trailing items so the router can sort on them.
    """
    if stmt.star or not stmt.order_by:
        return stmt
    hidden = [
        ast.SelectItem(expr, _HIDDEN % index)
        for index, (expr, _desc, is_hidden) in enumerate(_order_terms(stmt))
        if is_hidden
    ]
    if not hidden:
        return stmt
    return replace(stmt, items=list(stmt.items) + hidden)


def merge_select_results(stmt: ast.Select,
                         results: Sequence[QueryResult]) -> QueryResult:
    """Combine per-shard results of one plain SELECT (legs ran
    :func:`scatter_select`) into the global answer."""
    if not results:
        return QueryResult([], [])
    leg_columns = next(
        (result.columns for result in results if result.rows),
        results[0].columns,
    )
    rows = [
        dict(zip(leg_columns, row)) for result in results for row in result.rows
    ]
    if stmt.star:
        return shape_result(leg_columns, rows, stmt.order_by, stmt.limit)
    order_by = [
        (ast.ColumnRef(_HIDDEN % index) if is_hidden else expr, desc)
        for index, (expr, desc, is_hidden) in enumerate(_order_terms(stmt))
    ]
    columns = [item.output_name for item in stmt.items]
    return shape_result(columns, rows, order_by, stmt.limit)


def merge_partial_results(stmt: ast.Select, results) -> QueryResult:
    """Combine per-shard ``execute_partial_select`` outputs globally.

    Each result is ``(aggregates, [((key, sample_row), states), ...])``.
    States sharing a group key merge, finalize once, and shape through
    the executor's projection and ORDER BY/LIMIT — so a scattered
    aggregate is exactly what a single engine holding all the rows would
    produce.
    """
    columns = [item.output_name for item in stmt.items]
    if not results:
        return QueryResult(columns, [])
    groups: Groups = {}
    for _aggs, pairs in results:
        merge_partials(pairs, groups)
    rows = [
        project_row(stmt.items, columns, row)
        for row in finalize_groups(groups, results[0][0], bool(stmt.group_by))
    ]
    return shape_result(columns, rows, stmt.order_by, stmt.limit)
