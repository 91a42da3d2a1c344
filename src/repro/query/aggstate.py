"""The aggregate algebra: weighted, mergeable aggregate states.

One set of states serves every aggregate path in the repo: the
executor's row and batch spines, storage-side push-down partial
aggregation, scatter-gather partial aggregation across shards, and the
incrementally maintained views.  Each state folds ``(value, weight)``
pairs; query execution is the weight-1 case, and a view retracts a row
with weight -1 (DBSP's Z-set reading of insert/delete).

- ``COUNT`` counts contributing rows (``COUNT(*)`` counts every row,
  ``COUNT(expr)`` skips NULLs);
- ``SUM`` starts from ``0.0`` (so an all-integer SUM is a float) and is
  ``None`` over zero contributing rows;
- ``AVG`` is one ``total / count`` division;
- ``MIN``/``MAX`` keep a value -> multiplicity map so retracting the
  current extreme re-exposes the runner-up;
- ``DISTINCT`` aggregates keep the same map and apply their function to
  the live distinct values, in first-seen order.

States ``merge`` pairwise, which is what partial aggregation needs: each
push-down task or shard folds its local rows, the engine or router
merges the states (:func:`merge_partials`), and only then finalizes
(:func:`finalize_groups`).

Caveat (documented in DESIGN.md): SUM/AVG over float-valued columns is
retraction-exact only when every intermediate total is exactly
representable; the repo's audited view paths aggregate integer columns,
where float arithmetic below 2**53 is exact.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..common import QueryError
from .ast import AggCall, Expr

__all__ = [
    "AggState",
    "CountState",
    "SumState",
    "AvgState",
    "MinMaxState",
    "DistinctState",
    "Groups",
    "state_for",
    "new_states",
    "update_states",
    "merge_states",
    "finalize_states",
    "group_rows",
    "merge_partials",
    "partial_pairs",
    "finalize_groups",
]

#: Grouped aggregation in progress: group key -> (sample row, states),
#: in first-seen key order.  The sample row is the group's first input
#: row, which the projection above the aggregate reads group columns from.
Groups = Dict[Tuple, Tuple[Dict[str, Any], List["AggState"]]]


class AggState:
    """Base: fold weighted values, merge with a peer, finalize."""

    __slots__ = ()

    def update(self, value: Any, weight: int) -> None:
        raise NotImplementedError

    def merge(self, other: "AggState") -> None:
        raise NotImplementedError

    def finalize(self) -> Any:
        raise NotImplementedError


class CountState(AggState):
    """COUNT(*) / COUNT(expr): a signed row count."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def update(self, value: Any, weight: int) -> None:
        self.count += weight

    def merge(self, other: "CountState") -> None:
        self.count += other.count

    def finalize(self) -> int:
        return self.count


class SumState(AggState):
    """SUM(expr): signed total plus contributing-row count.

    ``total`` starts at ``0.0``: an integer-column SUM finalizes to a
    float on every path, so served, scattered and pushed answers stay
    byte-identical to a single engine's.
    """

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def update(self, value: Any, weight: int) -> None:
        self.count += weight
        self.total += value * weight

    def merge(self, other: "SumState") -> None:
        self.count += other.count
        self.total += other.total

    def finalize(self) -> Any:
        return self.total if self.count else None


class AvgState(SumState):
    """AVG(expr): SUM state finalized with one division."""

    __slots__ = ()

    def finalize(self) -> Any:
        return (self.total / self.count) if self.count else None


class MinMaxState(AggState):
    """MIN/MAX(expr): value -> multiplicity, extreme over live values."""

    __slots__ = ("pick", "values")

    def __init__(self, pick) -> None:
        self.pick = pick  # builtin min or max
        self.values: Dict[Any, int] = {}

    def update(self, value: Any, weight: int) -> None:
        total = self.values.get(value, 0) + weight
        if total:
            self.values[value] = total
        else:
            del self.values[value]

    def merge(self, other: "MinMaxState") -> None:
        for value, weight in other.values.items():
            self.update(value, weight)

    def live(self) -> List[Any]:
        """The values with positive multiplicity, in first-seen order."""
        return [value for value, weight in self.values.items() if weight > 0]

    def finalize(self) -> Any:
        live = self.live()
        return self.pick(live) if live else None


def _float_sum(values: List[Any]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def _float_avg(values: List[Any]) -> float:
    return _float_sum(values) / len(values)


#: DISTINCT aggregate function -> its fold over a non-empty value list.
_DISTINCT_FUNCS = {
    "count": len,
    "sum": _float_sum,
    "avg": _float_avg,
    "min": min,
    "max": max,
}


class DistinctState(MinMaxState):
    """func(DISTINCT expr): the function over the live distinct values.

    SUM and AVG add in first-seen order from ``0.0``, as :class:`SumState`
    does; every function but COUNT is ``None`` over no values.
    """

    __slots__ = ()

    def __init__(self, func: str) -> None:
        super().__init__(_DISTINCT_FUNCS[func])

    def finalize(self) -> Any:
        live = self.live()
        if live or self.pick is len:
            return self.pick(live)
        return None


def state_for(agg: AggCall) -> AggState:
    if agg.distinct:
        return DistinctState(agg.func)
    if agg.func == "count":
        return CountState()
    if agg.func == "sum":
        return SumState()
    if agg.func == "avg":
        return AvgState()
    if agg.func == "min":
        return MinMaxState(min)
    if agg.func == "max":
        return MinMaxState(max)
    raise QueryError("unknown aggregate %r" % agg.func)


def new_states(aggs: Sequence[AggCall]) -> List[AggState]:
    return [state_for(agg) for agg in aggs]


def update_states(
    states: List[AggState],
    aggs: Sequence[AggCall],
    row: Dict[str, Any],
    weight: int = 1,
) -> None:
    """Fold one weighted row into every aggregate's state.

    ``COUNT(*)`` counts the row unconditionally; any other aggregate
    skips NULL arguments.
    """
    for state, agg in zip(states, aggs):
        if agg.argument is None:  # COUNT(*)
            state.update(None, weight)
            continue
        value = agg.argument.eval(row)
        if value is None:
            continue
        state.update(value, weight)


def merge_states(into: List[AggState], other: List[AggState]) -> None:
    for state, extra in zip(into, other):
        state.merge(extra)


def finalize_states(
    states: List[AggState], aggs: Sequence[AggCall]
) -> Dict[AggCall, Any]:
    """Finalized values keyed by AggCall, as ``eval_with_aggs`` expects."""
    return {agg: state.finalize() for state, agg in zip(states, aggs)}


def group_rows(
    rows: Iterable[Dict[str, Any]],
    group_exprs: Sequence[Expr],
    aggs: Sequence[AggCall],
) -> Groups:
    """Group row dicts and fold each at weight 1 (the row-mode spine)."""
    groups: Groups = {}
    for row in rows:
        key = tuple(expr.eval(row) for expr in group_exprs)
        entry = groups.get(key)
        if entry is None:
            entry = (row, new_states(aggs))
            groups[key] = entry
        update_states(entry[1], aggs, row)
    return groups


def merge_partials(pairs, groups: Optional[Groups] = None) -> Groups:
    """Fold ``((key, sample), states)`` partials into ``groups``.

    Keys keep first-seen order and the first partial's sample row; later
    partials for the same key merge into its states.
    """
    if groups is None:
        groups = {}
    for (key, sample), states in pairs:
        entry = groups.get(key)
        if entry is None:
            groups[key] = (sample, states)
        else:
            merge_states(entry[1], states)
    return groups


def partial_pairs(groups: Groups) -> List[Tuple[Tuple, List[AggState]]]:
    """The shipped form of partial aggregation, ``((key, sample), states)``
    per group, as :func:`merge_partials` folds it."""
    return [((key, sample), states) for key, (sample, states) in groups.items()]


def finalize_groups(
    groups: Groups, aggs: Sequence[AggCall], grouped: bool
) -> List[Dict[str, Any]]:
    """The aggregate's output rows: each group's sample row plus its
    finalized values under ``"__aggs__"``.  An ungrouped aggregate over
    no rows still yields one identity row (COUNT 0, others NULL)."""
    if not groups and not grouped:
        groups = {(): ({}, new_states(aggs))}
    out: List[Dict[str, Any]] = []
    for sample, states in groups.values():
        row = dict(sample)
        row["__aggs__"] = finalize_states(states, aggs)
        out.append(row)
    return out
