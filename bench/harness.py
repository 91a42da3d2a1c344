"""Runs one workload for a host-time budget and computes its metrics.

A run repeats *units*: set up a fresh deployment from the seed (timed
as set-up), run the timed phase (timed as the measured work), check the
outputs.  Units repeat while the budget has room for another.
``setup_s`` is the median of the units' set-up times.  Each timed phase
is cut into labelled chunks (TPC-C slices, CH queries, serve load
phases); a label names the same work in every unit, and
``host_ops_per_s`` adds up each label's fastest host time, so a chunk
slowed by other work on the host costs nothing as long as the same work
ran fast once.  Every unit of one seed does the same virtual work, so
each must produce the same virtual results; a unit that does not is a
failed determinism check.

The traced run (``trace=True``) alternates untraced and traced units.
Entry-point wrappers are installed only around the traced unit's timed
phase; its virtual results must equal the untraced unit's byte for byte,
and the ratio of their host times is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from . import layers
from .metrics import (
    best_rate,
    check_metric_table,
    failed_ratio,
    latency_summary,
    median,
)
from .tracing import Tracer
from .workloads import WORKLOADS, Outcome

__all__ = ["END_TO_END", "run", "Unit"]

#: end_to_end metric name -> unit, in BENCHMARK.json order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("virt_ops_per_s", "1/s"),
    ("virt_p50_ms", "ms"),
    ("virt_tail_ms", "ms"),
    ("virt_geomean_ms", "ms"),
)

#: Fewest untraced units a run makes, whatever its budget.
MIN_UNITS = 2


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Unit:
    """One set-up, timed phase and check."""

    def __init__(self, setup_s: float, host_s: float, outcome: Outcome,
                 checks: Dict[str, bool], counts: Dict[str, float],
                 digest: str, times: Optional[Dict[str, float]] = None,
                 tracer: Optional[Tracer] = None):
        self.setup_s = setup_s
        self.host_s = host_s
        self.outcome = outcome
        self.checks = checks
        self.counts = counts
        self.digest = digest
        self.times = times
        self.tracer = tracer


def run_unit(workload, seed: int, traced: bool, check: bool,
             untraced_host_s: float = 0.0) -> Unit:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    setup_s = time.perf_counter() - start
    dep = state.dep
    env = dep.env
    probe = layers.RegistryProbe(dep.registry)
    first_event = env._seq
    tracer = None
    if traced:
        tracer = Tracer(now=lambda: env.now)
        layers.install(tracer)
    gc.collect()
    start = time.perf_counter()
    try:
        outcome = workload.run(state)
    finally:
        host_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    events = env._seq - first_event
    counts = layers.layer_counts(probe, events, outcome.extra)
    digest = digest_of({
        "latencies": outcome.latencies,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "virt_seconds": outcome.virt_seconds,
        "results": outcome.results,
        "notes": outcome.notes,
        "counts": counts,
    })
    checks = workload.check(state, outcome) if check else {}
    times = None
    if tracer is not None:
        times = layers.layer_times(tracer, host_s, untraced_host_s)
    return Unit(setup_s, host_s, outcome, checks, counts, digest, times,
                tracer)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run workload ``name`` for about ``seconds`` of host time.

    Returns the report: ``metrics`` ({name: (value, unit)}), ``correct``,
    ``attempted``, ``failed`` and printable ``lines``.
    """
    workload = WORKLOADS[name]
    budget_start = time.perf_counter()
    units: List[Unit] = []
    traced_units: List[Unit] = []
    rounds: List[float] = []

    def another(minimum: int) -> bool:
        """Start another round while the budget has room for a typical one."""
        spent = time.perf_counter() - budget_start
        return len(rounds) < minimum or spent + median(rounds) <= seconds

    while another(1 if trace else MIN_UNITS):
        start = time.perf_counter()
        plain = run_unit(workload, seed, False, check=not units)
        units.append(plain)
        if trace:
            traced_units.append(run_unit(
                workload, seed, True, check=False,
                untraced_host_s=plain.host_s))
        rounds.append(time.perf_counter() - start)

    first = units[0]
    outcome = first.outcome
    digests = {u.digest for u in units + traced_units}
    checks = dict(first.checks)
    checks["same_seed_same_virtual_results"] = len(digests) == 1
    correct = all(checks.values())
    attempted = outcome.attempted
    failed = outcome.failed if correct else attempted
    summary = latency_summary(outcome.latencies)
    lines = [
        "workload %s seed %d: %d units%s, digest %s"
        % (name, seed, len(units),
           " + %d traced" % len(traced_units) if trace else "",
           first.digest),
    ]
    lines.extend(outcome.notes)
    for check, ok in sorted(checks.items()):
        lines.append("check %-32s %s" % (check, "ok" if ok else "FAILED"))

    if not trace:
        completed = len(outcome.latencies)
        metrics = {
            "setup_s": (median(u.setup_s for u in units), "s"),
            "host_ops_per_s": (best_rate(
                chunk for u in units for chunk in u.outcome.chunks), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "virt_ops_per_s": (completed / outcome.virt_seconds, "1/s"),
            "virt_p50_ms": (summary["p50_ms"], "ms"),
            "virt_tail_ms": (summary["tail_ms"], "ms"),
            "virt_geomean_ms": (summary["geomean_ms"], "ms"),
        }
        check_metric_table(metrics, (n for n, _ in END_TO_END))
        samples = {"virt_p50_ms": "p50", "virt_tail_ms":
                   "p%g" % summary["tail_pct"], "virt_geomean_ms": "geomean"}
        for metric, _unit in END_TO_END:
            value, unit = metrics[metric]
            label = samples.get(metric)
            lines.append(
                "%-18s %14.6f %-4s %s" % (
                    metric, value, unit,
                    "(%s of %d samples)" % (label, summary["count"])
                    if label else ""))
        lines.append(
            "%-18s %14.6f %-4s (%d aborted + %d failed of %d attempted)"
            % ("failed_ratio",
               failed_ratio(attempted, min(attempted,
                                           failed + outcome.aborted)),
               "", outcome.aborted, failed, attempted))
        for key, value in sorted(outcome.headline.items()):
            lines.append("%-18s %14.6f" % (key, value))
        lines.append("host s of each unit's timed phase: %s" % " ".join(
            "%.3f" % u.host_s for u in units))
    else:
        per_layer: Dict[str, Tuple[float, str]] = {}
        times = {
            key: median(u.times[key] for u in traced_units)
            for key in traced_units[0].times
        }
        events = first.counts["sim.events"]
        times["sim.host_ns_per_event"] = (
            median(u.host_s for u in units) / events * 1e9 if events else 0.0)
        for metric, unit in layers.PER_LAYER:
            value = times.get(metric, first.counts.get(metric))
            if value is None:
                raise KeyError("per-layer metric %s has no source" % metric)
            per_layer[metric] = (float(value), unit)
        check_metric_table(per_layer, (n for n, _ in layers.PER_LAYER))
        metrics = per_layer
        for metric, _unit in layers.PER_LAYER:
            value, unit = per_layer[metric]
            lines.append("%-36s %16.6f %s" % (metric, value, unit))
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                                % (name, seed))
            traced_units[-1].tracer.write(path)
            lines.append("spans written to %s" % path)

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }
