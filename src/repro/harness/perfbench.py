"""Wall-clock performance harness: events/sec as a first-class benchmark.

Every experiment in the repro runs on the pure-Python discrete-event kernel
(:mod:`repro.sim.core`), so *simulated seconds per wall second* — not the
modelled PMem/RDMA latencies — is what gates how many warehouses, clients,
and soak-hours a run can afford.  This module measures it:

- **kernel microbench**: timeout churn, resource/CPU-pool churn, process
  fan-out churn (``AllOf``), and store hand-off churn — the four traffic
  shapes that dominate kernel time in real runs.  Reported as median
  events/sec over ``reps`` runs (the median absorbs scheduler noise).
- **macro slices**: a TPC-C slice (events/sec through a full deployment),
  plus chaos-soak and serve slices (wall seconds + report digest).
- **determinism gate**: the chaos and serve slices run twice; their report
  digests must match byte-for-byte.  A kernel "optimisation" that changes
  any simulated result fails here, not in production.

``python -m repro perf`` drives :func:`run_perf`, writes
``benchmarks/BENCH_wallclock.json`` (baseline and current numbers side by
side), and exits non-zero if the determinism gate fails.  ``--profile``
prints the top cProfile frames of the kernel microbench.

All wall-clock numbers are machine-dependent; the committed baseline below
records the pre-fast-path kernel measured on the same protocol (same
scenarios, median of 8 reps) so the speedup ratio is meaningful even though
absolute numbers drift across machines.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from ..sim.core import AllOf, Environment
from ..sim.resources import CpuPool, Resource, Store

__all__ = [
    "kernel_microbench",
    "bench_kernel",
    "bench_tpcc_slice",
    "bench_chaos_slice",
    "bench_serve_slice",
    "bench_serve_micro",
    "bench_mux",
    "bench_ch_slice",
    "run_perf",
    "BASELINE_PRE_FASTPATH",
    "BASELINE_PRE_SERVE_FASTPATH",
]

#: Pre-fast-path kernel numbers, measured with this exact harness (same
#: scenarios, median of 8 reps, CPython 3.11, single-core container)
#: immediately before the fast-path kernel landed.  Kept as the committed
#: "before" so the speedup ratio in the JSON is reproducible context, not
#: a guess.
BASELINE_PRE_FASTPATH: Dict[str, Any] = {
    "kernel_microbench": {
        "events": 27338,
        "median_events_per_sec": 491786,
        "best_events_per_sec": 581841,
        "reps": 10,
    },
    "tpcc_slice": {"wall_s": 3.342, "events": 308294,
                   "events_per_sec": 92260},
    "chaos_slice": {"wall_s": 30.407},
    "serve_slice": {"wall_s": 25.289},
    "protocol": "median of 10 reps (kernel) / single run (macro slices), "
                "CPython 3.11.7, Linux, 1 core, measured via git stash of "
                "the fast-path changes on the same machine and bench",
}

#: Serve-slice numbers measured immediately before the serving-plane fast
#: path (statement/plan cache, incremental REDO feed, allocation-lean
#: routing) landed — the committed "before" for the serve speedup ratio.
BASELINE_PRE_SERVE_FASTPATH: Dict[str, Any] = {
    "serve_slice": {"wall_s": 25.1935},
    "protocol": "single run of run_serving(seed=7, duration=0.4), "
                "CPython 3.11.7, Linux, 1 core, measured on the commit "
                "before the serving-plane fast path on the same machine",
}


def _peak_rss_kb() -> int:
    """Peak resident set size in KiB (0 where getrusage is unavailable)."""
    try:
        import resource as _resource
        return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, AttributeError, OSError):
        return 0


def _digest(report: Dict[str, Any]) -> str:
    """Stable digest of a deterministic report dict."""
    payload = json.dumps(report, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# Kernel microbench: the four dominant kernel traffic shapes
# ---------------------------------------------------------------------------

def _timeout_churn(env: Environment, procs: int, ticks: int) -> None:
    """Heap traffic: many processes sleeping staggered positive delays.

    The delay pattern is precomputed outside the timed region so the
    bench measures kernel scheduling, not per-tick user arithmetic.
    """
    delays = [0.001 + (i % 7) * 0.0001 for i in range(ticks)]

    def ticker(env, delays):
        for d in delays:
            yield env.timeout(d)

    for _ in range(procs):
        env.process(ticker(env, delays))


def _resource_churn(env: Environment, procs: int, rounds: int) -> None:
    """Grant/release traffic through Resource and CpuPool (contended)."""
    res = Resource(env, capacity=4)
    pool = CpuPool(env, cores=2)

    def worker(env, rounds):
        for _ in range(rounds):
            req = res.request()
            yield req
            yield env.timeout(0.0005)
            res.release(req)
            yield from pool.consume(0.0002)

    for _ in range(procs):
        env.process(worker(env, rounds))


def _process_churn(env: Environment, waves: int, fanout: int) -> None:
    """Spawn/complete traffic: AllOf fan-in over short-lived processes."""
    def leaf(env):
        yield env.timeout(0.0001)
        return 1

    def wave(env, fanout):
        for _ in range(waves):
            children = [env.process(leaf(env)) for _ in range(fanout)]
            result = yield AllOf(env, children)
            assert len(result) == fanout

    env.process(wave(env, fanout))


def _store_churn(env: Environment, items: int) -> None:
    """Producer/consumer hand-off traffic through a Store."""
    store = Store(env)

    def producer(env):
        for i in range(items):
            store.put(i)
            yield env.timeout(0.0002)

    def consumer(env):
        for _ in range(items):
            yield store.get()

    env.process(producer(env))
    env.process(consumer(env))


def kernel_microbench(scale: int = 1) -> Dict[str, float]:
    """One run of the combined kernel microbench; returns raw numbers."""
    env = Environment()
    _timeout_churn(env, procs=20 * scale, ticks=400)
    _resource_churn(env, procs=16 * scale, rounds=150)
    _process_churn(env, waves=60 * scale, fanout=20)
    _store_churn(env, items=3000 * scale)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return {
        "events": env._seq,
        "wall_s": wall,
        "events_per_sec": env._seq / wall,
        "sim_s": env.now,
    }


def bench_kernel(reps: int = 5, scale: int = 1) -> Dict[str, Any]:
    """Median-of-``reps`` kernel microbench (median absorbs machine noise)."""
    runs = [kernel_microbench(scale) for _ in range(reps)]
    rates = [r["events_per_sec"] for r in runs]
    events = runs[0]["events"]
    sim_s = runs[0]["sim_s"]
    median_rate = _median(rates)
    return {
        "name": "kernel_microbench",
        "scale": scale,
        "reps": reps,
        "events": events,
        "sim_s": sim_s,
        "median_events_per_sec": round(median_rate),
        "best_events_per_sec": round(max(rates)),
        "median_wall_s": round(events / median_rate, 4),
        "sim_to_wall": round(sim_s / (events / median_rate), 2),
    }


# ---------------------------------------------------------------------------
# Macro slices: real workloads end to end
# ---------------------------------------------------------------------------

def bench_tpcc_slice(duration: float = 0.2, clients: int = 8) -> Dict[str, Any]:
    """A short TPC-C run through a full deployment; true kernel events/sec."""
    from ..workloads.tpcc import TpccConfig, run_tpcc
    from .deployment import DeploymentSpec

    gc.collect()  # drop prior slices' garbage so it isn't billed here
    spec = DeploymentSpec.astore_pq(seed=11)
    dep = spec.build()
    dep.start()
    start = time.perf_counter()
    run_tpcc(dep, TpccConfig(), clients=clients, duration=duration)
    wall = time.perf_counter() - start
    events = dep.env._seq
    return {
        "name": "tpcc_slice",
        "clients": clients,
        "sim_s": duration,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall),
        "sim_to_wall": round(duration / wall, 3),
    }


def bench_chaos_slice() -> Dict[str, Any]:
    """The CI-sized chaos soak; wall seconds plus the report digest."""
    from .soak import run_chaos_soak

    gc.collect()
    start = time.perf_counter()
    report = run_chaos_soak(seed=7, short=True)
    wall = time.perf_counter() - start
    return {
        "name": "chaos_slice",
        "wall_s": round(wall, 4),
        "ok": bool(report["ok"]),
        "digest": _digest(report),
    }


def bench_serve_slice() -> Dict[str, Any]:
    """A short serving-layer scenario; wall seconds plus the report digest.

    The ``_bench`` sink collects kernel event counts without touching the
    (golden-diffed) report, so events/sec is a real number here too — it
    is what the CI perf-smoke regression gate compares against the
    committed baseline.
    """
    from ..frontend.serve import run_serving

    gc.collect()
    sink: Dict[str, Any] = {}
    start = time.perf_counter()
    report = run_serving(seed=7, duration=0.4, _bench=sink)
    wall = time.perf_counter() - start
    events = sink.get("events", 0)
    return {
        "name": "serve_slice",
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall) if events else 0,
        "statements": sink.get("statements", 0),
        "parse_cache_hits": sink.get("parse_cache_hits", 0),
        "parse_cache_misses": sink.get("parse_cache_misses", 0),
        "ok": bool(report["ok"]),
        "digest": _digest(report),
    }


# ---------------------------------------------------------------------------
# CH analytics slice: columnar batch execution + widened push-down
# ---------------------------------------------------------------------------

#: Quick-mode CH query subset: Q1 (GROUP-BY partial-agg push), Q6
#: (filter-only aggregate), Q12 (two-table join -> hash-build push),
#: Q15 (selective filter push).
_CH_QUICK_QUERIES = (1, 6, 12, 15)


def _ch_results_digest(results: Dict[int, Any]) -> str:
    payload = {
        str(qno): {"columns": r.columns, "rows": [list(row) for row in r.rows]}
        for qno, r in results.items()
    }
    return _digest(payload)


def _ch_canonical_rows(result) -> List[tuple]:
    # Pushdown's local-then-tasks merge legitimately permutes ORDER BY
    # ties and reassociates float sums (last-ulp drift), so the parity
    # check compares rounded, canonically ordered rows.
    normal = [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in result.rows
    ]
    return sorted(normal, key=repr)


def bench_ch_slice(quick: bool = False) -> Dict[str, Any]:
    """CH-benCHmark analytics: columnar batch + widened PQ vs row mode.

    Runs the CH query slice through one deployment — first with the
    row-at-a-time Volcano executor and push-down disabled (the pre-batch
    baseline), then with the columnar executor plus cost-based push-down
    (GROUP-BY partials and hash-build fragments included) — and reports
    the wall-clock speedup.  A second, freshly built same-seed deployment
    repeats both passes for the determinism gate: the result digests must
    match byte-for-byte (reusing one deployment would leave different
    buffer-pool residency for the rerun and legitimately change the
    local/pushed page split).  Every query's batch result is checked
    against the row baseline.
    """
    from ..common import KB, MB
    from ..engine.dbengine import EngineConfig
    from ..workloads.tpcch import (
        CH_QUERIES,
        TpcchConfig,
        TpcchDatabase,
        ch_query_sql,
    )
    from .deployment import Deployment, DeploymentConfig

    gc.collect()
    if quick:
        config = TpcchConfig(
            warehouses=2, customers_per_district=30, items=300,
            initial_orders_per_district=30, suppliers=100, string_scale=1.0,
        )
        query_nos = _CH_QUICK_QUERIES
    else:
        config = TpcchConfig(
            warehouses=2, customers_per_district=100, items=1500,
            initial_orders_per_district=100, suppliers=200, string_scale=1.0,
        )
        query_nos = tuple(sorted(CH_QUERIES))
    sqls = {qno: ch_query_sql(qno) for qno in query_nos}

    def build():
        dep = Deployment(
            DeploymentConfig.astore_pq(
                seed=42,
                engine=EngineConfig(buffer_pool_bytes=16 * 16 * KB),
                ebp_capacity_bytes=128 * MB,
            )
        )
        dep.start()
        database = TpcchDatabase(
            dep.engine, config, dep.seeds.stream("ch-load")
        )

        def load(env):
            yield from database.load()
            yield env.timeout(0.3)  # let eviction populate the EBP

        dep.env.run_until_event(dep.env.process(load(dep.env)))
        return dep

    def run_pass(dep):
        def run_mode(session):
            results: Dict[int, Any] = {}
            start = time.perf_counter()
            for qno in query_nos:
                proc = dep.env.process(session.execute(sqls[qno]))
                dep.env.run_until_event(proc)
                results[qno] = proc.value
            return results, time.perf_counter() - start

        row_session = dep.new_session(enable_pushdown=False, batch_mode=False)
        batch_session = dep.new_session(
            enable_pushdown=True, force_hash_joins=True, batch_mode=True
        )
        row_results, row_wall = run_mode(row_session)
        batch_results, batch_wall = run_mode(batch_session)
        return row_results, row_wall, batch_results, batch_wall, batch_session

    row_results, row_wall, batch_results, batch_wall, batch_session = run_pass(
        build()
    )
    # Fresh same-seed deployment: byte-identical results required.
    rerun_rows, _w1, rerun_batch, _w2, _s = run_pass(build())

    parity_ok = all(
        batch_results[qno].columns == row_results[qno].columns
        and _ch_canonical_rows(batch_results[qno])
        == _ch_canonical_rows(row_results[qno])
        for qno in query_nos
    )
    digest = _ch_results_digest(batch_results)
    digest_rerun = _ch_results_digest(rerun_batch)
    row_digest = _ch_results_digest(row_results)
    row_digest_rerun = _ch_results_digest(rerun_rows)
    runtime = batch_session.pushdown_runtime
    registry = runtime.obs.registry
    return {
        "name": "ch_slice",
        "quick": quick,
        "queries": list(query_nos),
        "row_wall_s": round(row_wall, 4),
        "batch_pq_wall_s": round(batch_wall, 4),
        "speedup": round(row_wall / batch_wall, 3),
        "parity_ok": parity_ok,
        "digest": digest,
        "digest_rerun": digest_rerun,
        "deterministic": (
            digest == digest_rerun and row_digest == row_digest_rerun
        ),
        "pushdown_fragments": registry.value("query.pushdown.fragments"),
        "hash_build_fragments": runtime.hash_build_fragments,
        "tasks_dispatched": runtime.tasks_dispatched,
        "pages_via_ebp": runtime.pages_via_ebp,
        "pages_via_pagestore": runtime.pages_via_pagestore,
        "pages_local": runtime.pages_local,
    }


#: Keys in the microbench read table.
_MICRO_KEYS = 60


def bench_serve_micro(sessions: int = 4,
                      statements: int = 400) -> Dict[str, Any]:
    """Statements/sec through the SQL proxy (no chaos, fixed statement mix).

    Each session issues a deterministic blend of prepared point SELECTs,
    routed ``read_row`` lookups, and range aggregates — the proxy hot
    path the statement/plan cache and allocation-lean routing target.
    The statement count is fixed, so only the wall clock is
    machine-dependent.
    """
    from ..engine.codec import INT, VARCHAR, Column, Schema
    from .deployment import DeploymentSpec

    gc.collect()
    spec = DeploymentSpec.astore_ebp(seed=11).with_replicas(2)
    dep = spec.build()
    dep.start()
    env = dep.env
    engine = dep.engine
    engine.create_table(
        "sbmicro",
        Schema([
            Column("k", INT()),
            Column("version", INT()),
            Column("pad", VARCHAR(32)),
        ]),
        ["k"],
    )

    def load():
        txn = engine.begin()
        for k in range(1, _MICRO_KEYS + 1):
            yield from engine.insert(txn, "sbmicro", [k, 0, "x" * 16])
        yield from engine.commit(txn)

    env.run_until_event(env.process(load(), name="serve-micro-load"))
    dep.fleet.sync_catalogs()
    preload_lsn = engine.log.persistent_lsn
    proxy = dep.frontend

    def driver(session, rng):
        point = session.prepare(
            "SELECT k, version FROM sbmicro WHERE k = ?")
        for _ in range(statements):
            draw = rng.random()
            if draw < 0.5:
                yield from point.execute(rng.randint(1, _MICRO_KEYS))
            elif draw < 0.8:
                yield from session.read_row(
                    "sbmicro", (rng.randint(1, _MICRO_KEYS),))
            else:
                low = rng.randint(1, _MICRO_KEYS - 10)
                yield from session.execute(
                    "SELECT COUNT(*) AS n, SUM(version) AS total "
                    "FROM sbmicro WHERE k BETWEEN %d AND %d"
                    % (low, low + 9))

    procs = []
    for index in range(sessions):
        session = proxy.session("micro-%d" % index)
        session.note_commit_lsn(preload_lsn)
        procs.append(env.process(
            driver(session, dep.seeds.stream("serve-micro-%d" % index)),
            name="serve-micro-%d" % index,
        ))
    start = time.perf_counter()
    env.run_until_event(AllOf(env, procs))
    wall = time.perf_counter() - start
    total = sessions * statements
    return {
        "name": "serve_micro",
        "sessions": sessions,
        "statements": total,
        "wall_s": round(wall, 4),
        "statements_per_sec": round(total / wall),
        "events": env._seq,
        "events_per_sec": round(env._seq / wall),
        "parse_cache_hits": proxy.parse_cache.hits,
        "parse_cache_misses": proxy.parse_cache.misses,
    }


#: Session-population shares for the mux bench tenants (weight skew
#: inverted, like the serve --mux scenario).
_MUX_BENCH_TENANTS = (("gold", 4, 0.1), ("silver", 2, 0.2),
                      ("bronze", 1, 0.7))


def bench_mux(sessions: int = 10000, lanes: int = 4, workers: int = 16,
              statements_per_worker: int = 1500) -> Dict[str, Any]:
    """Statements/sec through the session mux (10k sessions, few lanes).

    The million-session-serving bench: ``sessions`` parked descriptors
    multiplexed over ``lanes`` execution lanes (matching
    ``bench_serve_micro``'s 4-session lane budget), weighted-fair
    queueing across gold/silver/bronze tenants with the session
    population skewed against the weights.  Workers issue a prepared
    point-SELECT / routed point-read mix - the OLTP statement shapes
    session multiplexing exists to serve cheaply.  The statement count
    is fixed, so only the wall clock is machine-dependent; everything
    in ``digest`` is virtual-time deterministic (the run_perf
    determinism gate double-runs it).
    """
    from ..engine.codec import INT, VARCHAR, Column, Schema
    from .deployment import DeploymentSpec

    gc.collect()
    weights = {name: weight for name, weight, _share in _MUX_BENCH_TENANTS}
    spec = (DeploymentSpec.astore_ebp(seed=11)
            .with_replicas(2)
            .with_multiplexing(lanes, weights))
    dep = spec.build()
    dep.start()
    env = dep.env
    engine = dep.engine
    engine.create_table(
        "sbmicro",
        Schema([
            Column("k", INT()),
            Column("version", INT()),
            Column("pad", VARCHAR(32)),
        ]),
        ["k"],
    )

    def load():
        txn = engine.begin()
        for k in range(1, _MICRO_KEYS + 1):
            yield from engine.insert(txn, "sbmicro", [k, 0, "x" * 16])
        yield from engine.commit(txn)

    env.run_until_event(env.process(load(), name="mux-bench-load"))
    dep.fleet.sync_catalogs()
    preload_lsn = engine.log.persistent_lsn
    mux = dep.mux

    pools: Dict[str, list] = {name: [] for name in weights}
    allocated = 0
    for index, (name, _weight, share) in enumerate(_MUX_BENCH_TENANTS):
        count = (
            sessions - allocated
            if index == len(_MUX_BENCH_TENANTS) - 1
            else int(sessions * share)
        )
        allocated += count
        for j in range(count):
            ms = mux.open("%s-%d" % (name, j), name)
            ms.lsns[0] = preload_lsn
            pools[name].append(ms)

    point_sql = "SELECT k, version FROM sbmicro WHERE k = ?"

    def driver(pool, rng):
        n = len(pool)
        draw = rng._random.random  # hot loop: skip the wrapper frame
        for _ in range(statements_per_worker):
            ms = pool[int(draw() * n)]
            if draw() < 0.7:
                prepared = mux.prepare(ms, point_sql)
                yield from prepared.execute(1 + int(draw() * _MICRO_KEYS))
            else:
                yield from mux.read_row(
                    ms, "sbmicro", (1 + int(draw() * _MICRO_KEYS),))

    # Offered load follows the session population (bronze floods the
    # lane queue; weighted fairness protects gold).
    procs = []
    worker_index = 0
    for name, _weight, share in _MUX_BENCH_TENANTS:
        tenant_workers = max(1, round(workers * share))
        for w in range(tenant_workers):
            procs.append(env.process(
                driver(pools[name],
                       dep.seeds.stream("mux-bench-%d" % worker_index)),
                name="mux-bench-%d" % worker_index,
            ))
            worker_index += 1
    start = time.perf_counter()
    env.run_until_event(AllOf(env, procs))
    wall = time.perf_counter() - start
    total = worker_index * statements_per_worker

    registry = dep.registry
    tenants: Dict[str, Any] = {}
    for name, weight, _share in _MUX_BENCH_TENANTS:
        wait = registry.latency("frontend.tenant.%s.wait" % name)
        stmt = registry.latency("frontend.tenant.%s.statement" % name)
        tenants[name] = {
            "weight": weight,
            "sessions": len(pools[name]),
            "admitted": mux.wfq.admitted[name],
            "shed": mux.wfq.shed[name],
            "wait_p99_ms": round(wait.percentile(99) * 1000, 4),
            "statement_p99_ms": round(stmt.percentile(99) * 1000, 4),
        }
    # The WFQ guarantee at statement granularity: a higher-weight tenant
    # never waits (P99) more than 2x a lower-weight one; the floor keeps
    # uncontended runs trivially fair.
    floor_ms = 0.05
    fair = True
    for hi, hi_w, _s in _MUX_BENCH_TENANTS:
        for lo, lo_w, _s2 in _MUX_BENCH_TENANTS:
            if hi_w > lo_w and tenants[hi]["wait_p99_ms"] > 2.0 * max(
                    tenants[lo]["wait_p99_ms"], floor_ms):
                fair = False
    deterministic_view = {
        "sessions": sessions,
        "lanes": lanes,
        "statements": total,
        "binds": mux.binds,
        "mux_statements": mux.statements,
        "events": env._seq,
        "virtual_end": round(env.now, 9),
        "tenants": tenants,
        "fair": fair,
    }
    digest = hashlib.sha256(
        json.dumps(deterministic_view, sort_keys=True).encode()
    ).hexdigest()
    result = dict(deterministic_view)
    result.update({
        "name": "mux",
        "wall_s": round(wall, 4),
        "statements_per_sec": round(total / wall),
        "events_per_sec": round(env._seq / wall),
        "digest": digest,
    })
    return result


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _profile_kernel(scale: int = 2, top: int = 15) -> str:
    """cProfile one kernel microbench run; return the top-frames table."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    kernel_microbench(scale=scale)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf).sort_stats("tottime")
    stats.print_stats(top)
    return buf.getvalue()


def _profile_serve(top: int = 15) -> str:
    """cProfile a short serve run; shows whether proxy parse/classify
    frames stay off the top of the table (the statement-cache check)."""
    import cProfile
    import io
    import pstats

    from ..frontend.serve import run_serving

    profiler = cProfile.Profile()
    profiler.enable()
    run_serving(seed=7, duration=0.1)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf).sort_stats("tottime")
    stats.print_stats(top)
    return buf.getvalue()


def _committed_value(path: str, *keys: str) -> Optional[float]:
    """The positive number at ``keys`` in a committed JSON report.

    None when the file is missing or unreadable or predates the field;
    the gate that needs it then skips rather than fails.
    """
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (OSError, ValueError):
        return None
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    return None


#: The committed reports whose recorded values the regression gates
#: compare against, wherever the new reports are written.
COMMITTED_WALLCLOCK = "benchmarks/BENCH_wallclock.json"
COMMITTED_COLUMNAR = "benchmarks/BENCH_columnar.json"
COMMITTED_MUX = "benchmarks/BENCH_mux.json"


def _write_report(path: str, payload: Dict[str, Any],
                  echo: Callable[[str], None]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    echo("wrote %s" % path)


def run_perf(
    quick: bool = False,
    profile: bool = False,
    out: Optional[str] = COMMITTED_WALLCLOCK,
    echo: Callable[[str], None] = print,
    gate: bool = True,
) -> int:
    """Run the full perf harness; returns a process exit code.

    ``quick`` (CI smoke mode) uses fewer kernel reps and the small CH
    query subset; the determinism gates — chaos, serve, and CH slices
    each run twice with matching digests — run in both modes and are what
    makes the exit code meaningful.  ``gate`` additionally compares the
    serve slice's wall seconds and the CH slice's batch-vs-row speedup
    against the values recorded in the committed JSON files and fails on
    a >20% regression (the CI perf-smoke gate); each check skips silently
    when its committed file predates the field.

    The report goes to ``out``; the columnar and mux reports go next to
    it as ``BENCH_columnar.json`` and ``BENCH_mux.json``.  ``out=None``
    writes no report.
    """
    # The gates' baselines, read from the committed reports before this
    # run may overwrite them.  The serve slice runs a fixed scenario, so
    # its wall time is the regression metric (events/sec stopped being
    # comparable once event coalescing changed the events per statement).
    # The mux headline is "5x over the 4-session serve_micro ceiling the
    # mux replaced", so that denominator stays frozen in BENCH_mux.json's
    # baseline block; only a first-ever run falls back to the wallclock
    # report's serve_micro rate, so serve-path speedups never move it.
    prior_serve_wall = prior_ch_speedup = None
    prior_micro_rate = prior_mux_rate = None
    if gate:
        prior_serve_wall = _committed_value(
            COMMITTED_WALLCLOCK, "current", "serve_slice", "wall_s")
        prior_ch_speedup = _committed_value(
            COMMITTED_COLUMNAR, "ch_slice", "speedup")
        prior_micro_rate = _committed_value(
            COMMITTED_MUX, "baseline", "serve_micro_statements_per_sec"
        ) or _committed_value(
            COMMITTED_WALLCLOCK, "current", "serve_micro",
            "statements_per_sec")
        prior_mux_rate = _committed_value(
            COMMITTED_MUX, "current", "mux", "statements_per_sec")

    reps = 3 if quick else 8
    echo("kernel microbench (%d reps)..." % reps)
    kernel = bench_kernel(reps=reps)
    echo("  %d events, median %s ev/s (best %s), sim-to-wall %.2fx" % (
        kernel["events"], "{:,}".format(kernel["median_events_per_sec"]),
        "{:,}".format(kernel["best_events_per_sec"]), kernel["sim_to_wall"]))

    echo("tpcc slice...")
    tpcc = bench_tpcc_slice()
    echo("  %d events in %.2fs wall: %s ev/s" % (
        tpcc["events"], tpcc["wall_s"], "{:,}".format(tpcc["events_per_sec"])))

    echo("serve micro (statements/sec through the proxy)...")
    micro = bench_serve_micro()
    echo("  %d statements in %.2fs wall: %s stmt/s (parse cache %d/%d "
         "hit/miss)" % (
             micro["statements"], micro["wall_s"],
             "{:,}".format(micro["statements_per_sec"]),
             micro["parse_cache_hits"], micro["parse_cache_misses"]))

    echo("ch columnar slice (batch+PQ vs row mode)...")
    ch = bench_ch_slice(quick=quick)
    echo("  %d queries: row %.2fs vs batch+PQ %.2fs wall -> %.2fx speedup "
         "(%d fragments, %d hash builds)" % (
             len(ch["queries"]), ch["row_wall_s"], ch["batch_pq_wall_s"],
             ch["speedup"], ch["pushdown_fragments"],
             ch["hash_build_fragments"]))

    echo("chaos slice (x2, determinism gate)...")
    chaos_a = bench_chaos_slice()
    chaos_b = bench_chaos_slice()
    echo("  %.2fs wall, digest %s" % (chaos_a["wall_s"], chaos_a["digest"][:16]))

    echo("serve slice (x2, determinism gate)...")
    serve_a = bench_serve_slice()
    serve_b = bench_serve_slice()
    echo("  %.2fs wall, %s ev/s, digest %s" % (
        serve_a["wall_s"], "{:,}".format(serve_a["events_per_sec"]),
        serve_a["digest"][:16]))

    echo("mux slice (x2, determinism gate; 10k sessions over 4 lanes)...")
    mux_a = bench_mux()
    mux_b = bench_mux()
    echo("  %d statements in %.2fs wall: %s stmt/s over %d lanes, "
         "digest %s" % (
             mux_a["statements"], mux_a["wall_s"],
             "{:,}".format(mux_a["statements_per_sec"]), mux_a["lanes"],
             mux_a["digest"][:16]))

    deterministic = (
        chaos_a["digest"] == chaos_b["digest"]
        and serve_a["digest"] == serve_b["digest"]
        and ch["deterministic"]
        and mux_a["digest"] == mux_b["digest"]
    )

    baseline_rate = BASELINE_PRE_FASTPATH["kernel_microbench"][
        "median_events_per_sec"]
    speedup = kernel["median_events_per_sec"] / baseline_rate
    serve_speedup = (
        BASELINE_PRE_SERVE_FASTPATH["serve_slice"]["wall_s"]
        / serve_a["wall_s"]
    )

    ch_gate: Dict[str, Any] = {"enabled": bool(gate)}
    if prior_ch_speedup is not None:
        ch_floor = 0.8 * prior_ch_speedup
        ch_gate.update({
            "baseline_speedup": round(prior_ch_speedup, 3),
            "floor_speedup": round(ch_floor, 3),
            "current_speedup": ch["speedup"],
            "ok": ch["speedup"] >= ch_floor,
        })
    else:
        ch_gate["ok"] = True
        ch_gate["note"] = (
            "skipped: no committed CH speedup baseline to compare against"
            if gate else "disabled via --no-gate")
    if not ch["parity_ok"]:
        ch_gate["ok"] = False
        ch_gate["parity_failed"] = True

    # Mux gates: the 5x multiplexing win over the committed per-session
    # serve_micro baseline (equal lane budget: 4 lanes vs 4 sessions),
    # a WFQ fairness check, and the usual 20% self-regression gate.
    mux_rate = max(mux_a["statements_per_sec"], mux_b["statements_per_sec"])
    micro_denominator = (
        prior_micro_rate if prior_micro_rate is not None
        else float(micro["statements_per_sec"])
    )
    mux_ratio = mux_rate / micro_denominator if micro_denominator else 0.0
    mux_gate: Dict[str, Any] = {
        "enabled": bool(gate),
        "serve_micro_statements_per_sec": round(micro_denominator),
        "serve_micro_source": (
            "frozen pre-mux baseline" if prior_micro_rate is not None
            else "this run"),
        "mux_statements_per_sec": mux_rate,
        "speedup_vs_serve_micro": round(mux_ratio, 2),
        "required_speedup": 5.0,
        "fair": mux_a["fair"],
        "ok": mux_ratio >= 5.0 and mux_a["fair"],
    }
    if prior_mux_rate is not None:
        mux_floor = 0.8 * prior_mux_rate
        mux_gate.update({
            "baseline_statements_per_sec": round(prior_mux_rate),
            "floor_statements_per_sec": round(mux_floor),
            "regression_ok": mux_rate >= mux_floor,
        })
        if mux_rate < mux_floor:
            mux_gate["ok"] = False
    else:
        mux_gate["regression_ok"] = True
        mux_gate["regression_note"] = (
            "skipped: no committed mux statements/sec baseline to compare "
            "against" if gate else "disabled via --no-gate")

    serve_gate: Dict[str, Any] = {"enabled": bool(gate)}
    if prior_serve_wall is not None:
        # Fixed work, so regression = wall time; a 25% wall ceiling is
        # the old 20% rate floor restated in time (1 / 0.8 = 1.25).
        ceiling = 1.25 * prior_serve_wall
        serve_gate.update({
            "baseline_wall_s": round(prior_serve_wall, 3),
            "ceiling_wall_s": round(ceiling, 3),
            "current_wall_s": serve_a["wall_s"],
            "ok": serve_a["wall_s"] <= ceiling,
        })
    else:
        serve_gate["ok"] = True
        serve_gate["note"] = (
            "skipped: no committed serve wall-seconds baseline to compare "
            "against" if gate else "disabled via --no-gate")

    payload: Dict[str, Any] = {
        "protocol": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "quick": quick,
            "kernel_reps": reps,
            "note": "events/sec medians; macro slices single-run wall "
                    "seconds; digests are sha256 over the sorted report "
                    "JSON",
        },
        "baseline_pre_fastpath": BASELINE_PRE_FASTPATH,
        "baseline_pre_serve_fastpath": BASELINE_PRE_SERVE_FASTPATH,
        "current": {
            "kernel_microbench": kernel,
            "tpcc_slice": tpcc,
            "serve_micro": micro,
            "chaos_slice": chaos_a,
            "serve_slice": serve_a,
        },
        "kernel_speedup_vs_baseline": round(speedup, 2),
        "serve_speedup_vs_baseline": round(serve_speedup, 2),
        "serve_regression_gate": serve_gate,
        "determinism": {
            "chaos_digest": chaos_a["digest"],
            "chaos_digest_rerun": chaos_b["digest"],
            "serve_digest": serve_a["digest"],
            "serve_digest_rerun": serve_b["digest"],
            "ch_digest": ch["digest"],
            "ch_digest_rerun": ch["digest_rerun"],
            "mux_digest": mux_a["digest"],
            "mux_digest_rerun": mux_b["digest"],
            "stable": deterministic,
        },
        "peak_rss_kb": _peak_rss_kb(),
    }

    if out:
        out_dir = os.path.dirname(out)
        _write_report(out, payload, echo)
        columnar_payload = {
            "protocol": {
                "python": platform.python_version(),
                "platform": sys.platform,
                "quick": quick,
                "note": "same deployment, same queries, row mode first; "
                        "speedup = row wall seconds / batch+PQ wall "
                        "seconds, so the ratio is machine-independent",
            },
            "ch_slice": ch,
            "ch_regression_gate": ch_gate,
        }
        _write_report(os.path.join(out_dir, "BENCH_columnar.json"),
                      columnar_payload, echo)
        mux_payload = {
            "protocol": {
                "python": platform.python_version(),
                "platform": sys.platform,
                "quick": quick,
                "note": "10k parked sessions multiplexed over 4 execution "
                        "lanes (equal lane budget to serve_micro's 4 "
                        "sessions); statements/sec is best-of-two wall "
                        "rates, the digest is virtual-time deterministic",
            },
            "baseline": {
                "serve_micro_statements_per_sec": round(micro_denominator),
                "note": "pre-multiplexing 4-session serve_micro ceiling; "
                        "frozen (carried forward from the committed "
                        "BENCH_mux.json) so serve-path speedups never move "
                        "the 5x goalpost",
            },
            "current": {
                "mux": mux_a,
                "mux_statements_per_sec_rerun":
                    mux_b["statements_per_sec"],
            },
            "mux_gate": mux_gate,
        }
        _write_report(os.path.join(out_dir, "BENCH_mux.json"), mux_payload,
                      echo)

    echo("kernel speedup vs pre-fast-path baseline: %.2fx" % speedup)
    echo("serve slice speedup vs pre-serve-fast-path baseline: %.2fx"
         % serve_speedup)
    echo("peak RSS: %.1f MiB" % (payload["peak_rss_kb"] / 1024.0))
    if profile:
        echo("")
        echo("--- kernel microbench profile ---")
        echo(_profile_kernel())
        echo("--- serve slice profile ---")
        echo(_profile_serve())
    failed = False
    if not deterministic:
        echo("DETERMINISM GATE FAILED: same-seed report digests differ "
             "between runs")
        failed = True
    else:
        echo("determinism gate: ok (chaos and serve digests stable)")
    if not serve_gate["ok"]:
        echo("SERVE REGRESSION GATE FAILED: %.2fs wall is more than 25%% "
             "above the committed baseline %.2fs" % (
                 serve_gate["current_wall_s"],
                 serve_gate["baseline_wall_s"]))
        failed = True
    elif prior_serve_wall is not None:
        echo("serve regression gate: ok (%.2fs wall vs ceiling %.2fs)" % (
            serve_gate["current_wall_s"], serve_gate["ceiling_wall_s"]))
    if not ch_gate["ok"]:
        if ch_gate.get("parity_failed"):
            echo("CH PARITY GATE FAILED: batch+PQ results diverged from "
                 "the row-mode baseline")
        else:
            echo("CH REGRESSION GATE FAILED: %.2fx speedup is more than "
                 "20%% below the committed %.2fx" % (
                     ch_gate["current_speedup"],
                     ch_gate["baseline_speedup"]))
        failed = True
    elif prior_ch_speedup is not None:
        echo("ch regression gate: ok (%.2fx speedup vs floor %.2fx)" % (
            ch_gate["current_speedup"], ch_gate["floor_speedup"]))
    if not mux_gate["ok"]:
        if not mux_gate["fair"]:
            echo("MUX FAIRNESS GATE FAILED: a higher-weight tenant's P99 "
                 "wait exceeds 2x a lower-weight tenant's")
        if mux_gate["speedup_vs_serve_micro"] < mux_gate["required_speedup"]:
            echo("MUX SPEEDUP GATE FAILED: %.2fx vs serve_micro is below "
                 "the required %.1fx" % (
                     mux_gate["speedup_vs_serve_micro"],
                     mux_gate["required_speedup"]))
        if not mux_gate.get("regression_ok", True):
            echo("MUX REGRESSION GATE FAILED: %s stmt/s is more than 20%% "
                 "below the committed baseline %s stmt/s" % (
                     "{:,}".format(mux_gate["mux_statements_per_sec"]),
                     "{:,}".format(mux_gate["baseline_statements_per_sec"])))
        failed = True
    else:
        echo("mux gate: ok (%.2fx vs serve_micro, fair WFQ waits%s)" % (
            mux_gate["speedup_vs_serve_micro"],
            ", %s stmt/s vs floor %s" % (
                "{:,}".format(mux_gate["mux_statements_per_sec"]),
                "{:,}".format(mux_gate["floor_statements_per_sec"]))
            if prior_mux_rate is not None else ""))
    return 1 if failed else 0
