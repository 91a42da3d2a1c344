"""Statistics and metric-name rules shared by every benchmark workload.

Everything here is plain arithmetic on lists of numbers, so the rules the
benchmark reports by - which percentile a sample count supports, how
failures are counted, how the names are spelled - are testable on their
own (``bench/test_bench.py``).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "PERCENTILE_LADDER",
    "percentile",
    "tail_percentile",
    "median",
    "best_rate",
    "geomean",
    "failed_ratio",
    "validate_metric_name",
    "validate_unit",
    "check_metric_table",
    "latency_summary",
]

#: Percentiles the tail rule may pick from, highest last.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10

#: Floor applied to each sample of the geometric mean: an operation that
#: took no virtual time (a Delivery with nothing to deliver) counts as
#: one virtual microsecond instead of zeroing the mean.
GEOMEAN_FLOOR_S = 1e-6

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile out of range: %r" % pct)
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``count`` samples beyond it, or None when not even the median is."""
    best = None
    for pct in PERCENTILE_LADDER:
        # Integer arithmetic on tenths of a percent keeps 99.9 exact.
        beyond = count * (1000 - round(pct * 10)) // 1000
        if beyond >= MIN_BEYOND:
            best = pct
    return best


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def best_rate(chunks: Iterable[Tuple[Any, int, float]]) -> float:
    """Operations per host second at the best time seen for each piece
    of work.

    ``chunks`` holds (label, operations, host seconds); chunks with one
    label did the same work, so each must count the same operations.
    The rate is the operations of one chunk per label over the sum of
    each label's fastest host time: a chunk slowed by other work on the
    host costs nothing as long as the same work ran fast once.
    """
    ops: Dict[Any, int] = {}
    fastest: Dict[Any, float] = {}
    for label, count, host_s in chunks:
        if host_s <= 0:
            raise ValueError("chunk %r took no host time" % (label,))
        if ops.setdefault(label, count) != count:
            raise ValueError("chunk %r counted %d operations, earlier %d"
                             % (label, count, ops[label]))
        fastest[label] = min(host_s, fastest.get(label, host_s))
    if not ops:
        raise ValueError("best rate of no chunks")
    return sum(ops.values()) / sum(fastest.values())


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of no values")
    if min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones.

    A failure is an abort, a shed request, a missed deadline or a query
    error; each counts once against the operations attempted.
    """
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(
            "failed (%d) must lie within 0..attempted (%d)"
            % (failed, attempted)
        )
    return failed / attempted


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric or workload name.

    A name starts with a letter or digit and holds at most 64 letters,
    digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or not _NAME.match(name):
        raise ValueError("bad metric name %r" % (name,))
    return name


def validate_unit(unit: str) -> str:
    """Return ``unit`` if it is at most 16 of letters, digits, _/%.-"""
    if not isinstance(unit, str) or not _UNIT.match(unit):
        raise ValueError("bad unit %r" % (unit,))
    return unit


def check_metric_table(metrics: Dict[str, Tuple[float, str]],
                       expected: Iterable[str]) -> None:
    """Raise unless ``metrics`` holds exactly the ``expected`` names, each
    a finite number with a legal unit."""
    want = list(expected)
    if len(set(want)) != len(want):
        raise ValueError("duplicate metric names in %r" % (want,))
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        raise ValueError("metric set mismatch: missing %r, unexpected %r"
                         % (missing, extra))
    for name, (value, unit) in metrics.items():
        validate_metric_name(name)
        validate_unit(unit)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, value))


def latency_summary(samples_s: List[float]) -> Dict[str, float]:
    """Virtual latency summary in milliseconds, with the tail rule applied."""
    count = len(samples_s)
    tail = tail_percentile(count)
    if tail is None:
        raise ValueError(
            "%d samples support no percentile (need %d beyond the median)"
            % (count, MIN_BEYOND)
        )
    return {
        "count": count,
        "p50_ms": percentile(samples_s, 50.0) * 1000.0,
        "tail_pct": tail,
        "tail_ms": percentile(samples_s, tail) * 1000.0,
        "geomean_ms": geomean(
            [max(s, GEOMEAN_FLOOR_S) for s in samples_s]) * 1000.0,
    }
