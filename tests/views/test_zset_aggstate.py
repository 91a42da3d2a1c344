"""Unit tests: the Z-set delta algebra and weight-aware agg states."""

import pytest

from repro.query.aggstate import (
    finalize_states,
    merge_states,
    new_states,
    update_states,
)
from repro.query.cache import parse_entry
from repro.views.zset import ZSet


def test_zset_add_and_annihilation():
    z = ZSet()
    z.add(("a", 1))
    z.add(("a", 1))
    z.add(("b", 2))
    assert z.weights[("a", 1)] == 2
    z.add(("a", 1), -2)
    assert ("a", 1) not in z  # weight hit zero: entry vanishes
    assert len(z) == 1
    z.add(("b", 2), -1)
    assert len(z) == 0


def test_zset_rows_expand_weights_and_reject_negative():
    z = ZSet()
    z.add(("x",), 3)
    assert list(z.rows()) == [("x",), ("x",), ("x",)]
    z.add(("x",), -4)
    with pytest.raises(ValueError):
        list(z.rows())


def test_zset_merge_filter_map_eq():
    a = ZSet()
    a.add(1, 2)
    a.add(2, 1)
    b = ZSet()
    b.add(1, -2)
    b.add(3, 1)
    a.merge(b)
    assert dict(a.items()) == {2: 1, 3: 1}
    assert dict(a.filter(lambda r: r == 2).items()) == {2: 1}
    assert dict(a.map(lambda r: r * 10).items()) == {20: 1, 30: 1}
    c = ZSet()
    c.add(2, 1)
    c.add(3, 1)
    assert a == c


def _aggs(sql):
    """The AggCall list of a parsed single-table aggregate SELECT."""
    statement, _ = parse_entry(sql)
    return [item.expr for item in statement.items]


AGG_SQL = (
    "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), "
    "COUNT(DISTINCT v) FROM t"
)


def _rows_to_states(aggs, rows):
    states = new_states(aggs)
    for row in rows:
        update_states(states, aggs, row, 1)
    return states


def _finalized(aggs, states):
    """Finalized values in item order, each paired with its type."""
    values = finalize_states(states, aggs)
    return [(values[agg], type(values[agg])) for agg in aggs]


ROWS = [
    {"t.v": 3}, {"t.v": 1}, {"t.v": None}, {"t.v": 3}, {"t.v": 7},
]

#: AGG_SQL over ROWS: COUNT is an int, SUM/AVG are floats (SUM starts at
#: 0.0), MIN/MAX keep the column's type, NULLs are skipped.
ROWS_VALUES = [
    (5, int), (4, int), (14.0, float), (3.5, float), (1, int), (7, int),
    (3, int),
]


def test_finalize_values_and_types():
    aggs = _aggs(AGG_SQL)
    assert _finalized(aggs, _rows_to_states(aggs, ROWS)) == ROWS_VALUES


def test_finalize_on_empty_input():
    aggs = _aggs(AGG_SQL)
    assert _finalized(aggs, _rows_to_states(aggs, [])) == [
        (0, int), (0, int), (None, type(None)), (None, type(None)),
        (None, type(None)), (None, type(None)), (0, int),
    ]


def test_negative_weights_retract_rows_exactly():
    aggs = _aggs(AGG_SQL)
    states = _rows_to_states(aggs, ROWS)
    # Retract two rows; the result must equal folding the remainder.
    update_states(states, aggs, {"t.v": 3}, -1)
    update_states(states, aggs, {"t.v": None}, -1)
    remainder = [{"t.v": 1}, {"t.v": 3}, {"t.v": 7}]
    assert _finalized(aggs, states) == _finalized(
        aggs, _rows_to_states(aggs, remainder)
    ) == [
        (3, int), (3, int), (11.0, float), (11.0 / 3, float), (1, int),
        (7, int), (3, int),
    ]


def test_min_max_survive_retraction_of_current_extremum():
    aggs = _aggs("SELECT MIN(v), MAX(v) FROM t")
    states = _rows_to_states(
        aggs, [{"t.v": 5}, {"t.v": 9}, {"t.v": 2}]
    )
    update_states(states, aggs, {"t.v": 2}, -1)  # retract the minimum
    update_states(states, aggs, {"t.v": 9}, -1)  # retract the maximum
    values = finalize_states(states, aggs)
    assert list(values.values()) == [5, 5]


def test_distinct_count_tracks_live_values_only():
    aggs = _aggs("SELECT COUNT(DISTINCT v) FROM t")
    states = _rows_to_states(aggs, [{"t.v": 1}, {"t.v": 1}, {"t.v": 2}])
    assert list(finalize_states(states, aggs).values()) == [2]
    update_states(states, aggs, {"t.v": 1}, -1)
    assert list(finalize_states(states, aggs).values()) == [2]  # one 1 left
    update_states(states, aggs, {"t.v": 1}, -1)
    assert list(finalize_states(states, aggs).values()) == [1]


def test_merge_states_equals_single_fold():
    aggs = _aggs(AGG_SQL)
    left = _rows_to_states(aggs, ROWS[:2])
    right = _rows_to_states(aggs, ROWS[2:])
    merge_states(left, right)
    assert _finalized(aggs, left) == ROWS_VALUES


def test_distinct_aggregates_apply_their_function():
    aggs = _aggs(
        "SELECT COUNT(DISTINCT v), SUM(DISTINCT v), AVG(DISTINCT v), "
        "MIN(DISTINCT v), MAX(DISTINCT v) FROM t"
    )
    rows = [{"t.v": v} for v in (3, 0, 4, 1, None, 3, 2, 0)]
    assert _finalized(aggs, _rows_to_states(aggs, rows)) == [
        (5, int), (10.0, float), (2.0, float), (0, int), (4, int),
    ]
    # Merged halves fold the same distinct set; empty input is NULL
    # except for COUNT.
    left = _rows_to_states(aggs, rows[:4])
    merge_states(left, _rows_to_states(aggs, rows[4:]))
    assert _finalized(aggs, left) == _finalized(
        aggs, _rows_to_states(aggs, rows)
    )
    assert [value for value, _type in _finalized(
        aggs, _rows_to_states(aggs, [])
    )] == [0, None, None, None, None]
