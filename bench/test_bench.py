"""Tests for the benchmark's own helpers.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os

import pytest

from bench import layers
from bench.harness import END_TO_END
from bench.metrics import (
    best_rate,
    check_metric_table,
    failed_ratio,
    geomean,
    latency_summary,
    percentile,
    tail_percentile,
    validate_metric_name,
    validate_unit,
)
from bench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# The percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (9, None),       # not even 10 samples beyond the median
    (20, 50.0),
    (22, 50.0),      # one CH pass: 11 beyond p50, 2 beyond p90
    (40, 75.0),
    (100, 90.0),
    (199, 90.0),     # 9.95 beyond p95 rounds down to 9
    (200, 95.0),
    (999, 95.0),     # 9 beyond p99
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_latency_summary_states_percentile_and_count():
    samples = [0.001 * (i + 1) for i in range(1000)]
    summary = latency_summary(samples)
    assert summary["count"] == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["tail_ms"] == pytest.approx(990.0)
    assert summary["p50_ms"] == pytest.approx(500.0)
    with pytest.raises(ValueError):
        latency_summary([0.001] * 5)


def test_geomean_and_zero_latency_floor():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    # A zero-latency operation counts as one virtual microsecond.
    summary = latency_summary([0.0] * 10 + [1e-6] * 10)
    assert summary["geomean_ms"] == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# The host-rate estimator
# ---------------------------------------------------------------------------

def test_best_rate_takes_each_labels_fastest_time():
    chunks = [
        ("slice-0", 10, 2.0), ("slice-1", 30, 1.0),   # first unit
        ("slice-0", 10, 1.0), ("slice-1", 30, 3.0),   # second unit
    ]
    assert best_rate(chunks) == 40 / 2.0


def test_best_rate_of_one_chunk():
    assert best_rate([("q1", 1, 0.25)]) == 4.0


@pytest.mark.parametrize("chunks", [
    [],
    [("a", 1, 0.0)],
    [("a", 1, 1.0), ("a", 2, 1.0)],   # one label, different work
])
def test_best_rate_rejects(chunks):
    with pytest.raises(ValueError):
        best_rate(chunks)


# ---------------------------------------------------------------------------
# failed_ratio accounting
# ---------------------------------------------------------------------------

def test_failed_ratio():
    assert failed_ratio(100, 0) == 0.0
    assert failed_ratio(100, 3) == pytest.approx(0.03)
    assert failed_ratio(7, 7) == 1.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(10, 11)
    with pytest.raises(ValueError):
        failed_ratio(10, -1)


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "setup_s", "virt_p50_ms", "engine.codec_calls",
    "frontend.tenant_wait_p99_ms.gold", "tpcc-2pc", "9lives", "a" * 64,
])
def test_valid_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_x", ".x", "-x", "a b", "a/b", "x" * 65, "é", None, 3,
])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
        assert validate_unit(unit) == unit
    for unit in ("", "a b", "x" * 17, "m$"):
        with pytest.raises(ValueError):
            validate_unit(unit)


def test_metric_table_must_match_exactly():
    table = {"a": (1.0, "s"), "b": (2, "count")}
    check_metric_table(table, ["a", "b"])
    with pytest.raises(ValueError):
        check_metric_table(table, ["a"])
    with pytest.raises(ValueError):
        check_metric_table(table, ["a", "b", "c"])
    with pytest.raises(ValueError):
        check_metric_table({"a": (float("nan"), "s")}, ["a"])
    with pytest.raises(ValueError):
        check_metric_table({"a": (True, "s")}, ["a"])


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        validate_metric_name(name)
    assert len(set(names)) == len(names)
    for metric in spec["end_to_end"]:
        validate_unit(metric["unit"])
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# Self time over nested generator spans
# ---------------------------------------------------------------------------

class FakeClock:
    """Host clock that moves only when the test says work happened."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


def drive(gen, sends=()):
    """Resume ``gen`` to completion; returns (yielded items, value)."""
    items = []
    sends = list(sends)
    value = None
    while True:
        try:
            items.append(gen.send(value))
        except StopIteration as stop:
            return items, stop.value
        value = sends.pop(0) if sends else None


def test_self_time_over_nested_generator_spans():
    clock = FakeClock()
    virtual = [0.0]
    tracer = Tracer(now=lambda: virtual[0], clock=clock)

    def leaf():
        clock.work(2)
        got = yield "leaf-1"
        virtual[0] += 1.0
        clock.work(3)
        return got * 10

    traced_leaf = tracer.span_wrapper(leaf, "leaf", "engine")

    def middle():
        clock.work(1)
        value = yield from traced_leaf()
        clock.work(4)
        yield "middle-1"
        clock.work(5)
        return value + 1

    traced_middle = tracer.span_wrapper(middle, "middle", "frontend",
                                        op_root=True)
    items, result = drive(traced_middle(), sends=[7])
    assert items == ["leaf-1", "middle-1"]
    assert result == 71
    assert tracer.layer_self == {"engine": 5.0, "frontend": 10.0}
    middle_span, leaf_span = tracer.spans
    assert leaf_span.parent is middle_span
    assert leaf_span.op == middle_span.op == 1
    assert middle_span.host_busy == 15.0 and middle_span.host_self == 10.0
    assert leaf_span.host_busy == 5.0 and leaf_span.host_self == 5.0
    assert leaf_span.virt_end - leaf_span.virt_start == 1.0


def test_interleaved_generators_bill_each_resume_to_its_own_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def worker(cost):
        for _ in range(3):
            clock.work(cost)
            yield cost

    a = tracer.span_wrapper(worker, "a", "engine")(1.0)
    b = tracer.span_wrapper(worker, "b", "query")(2.0)
    # A scheduler alternating two processes, as the kernel does.
    for _ in range(3):
        next(a)
        next(b)
    for gen in (a, b):
        with pytest.raises(StopIteration):
            next(gen)
    assert tracer.layer_self == {"engine": 3.0, "query": 6.0}
    assert tracer.spans[0].parent is None and tracer.spans[1].parent is None


def test_traced_generator_delivers_exceptions_and_counts_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def catcher():
        try:
            yield "wait"
        except KeyError:
            clock.work(1)
            return "caught"

    gen = tracer.span_wrapper(catcher, "catcher", "views")()
    assert next(gen) == "wait"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "caught"
    assert tracer.layer_self["views"] == 1.0

    def codec(x):
        clock.work(0.5)
        return x + 1

    counted = tracer.counted_wrapper(codec, "codec", "engine")
    outer = tracer.span_wrapper(lambda: counted(counted(1)), "outer", "query")
    assert outer() == 3
    assert tracer.calls["codec"] == 2
    assert tracer.counted["codec"].host_self == 1.0
    # The counted calls are billed to their layer, not the caller's.
    assert tracer.layer_self["engine"] == 1.0
    assert tracer.layer_self["query"] == 0.0


def test_patch_and_restore():
    class Target:
        def method(self):
            return "orig"

        @staticmethod
        def helper():
            return "static"

    tracer = Tracer(clock=FakeClock())
    original = Target.__dict__["method"]
    tracer.patch(Target, "method",
                 lambda fn: tracer.span_wrapper(fn, "m", "engine"))
    tracer.patch(Target, "helper",
                 lambda fn: tracer.span_wrapper(fn, "h", "engine"))
    assert Target().method() == "orig"
    assert Target.helper() == "static"
    assert [s.name for s in tracer.spans] == ["m", "h"]
    tracer.restore()
    assert Target.__dict__["method"] is original
    assert isinstance(Target.__dict__["helper"], staticmethod)


def test_layer_of_generator():
    def local():
        yield 1

    assert layers.layer_of_generator(local()) == "workload"
    assert layers.layer_of_generator(object()) == "workload"
