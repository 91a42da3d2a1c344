"""The four benchmark workloads.

Each workload has three steps, driven by ``bench/harness.py``:

- ``setup(seed)`` builds and starts a deployment, loads its data and
  warms it (timed as ``setup_s``);
- ``run(state)`` is the timed phase: a fixed amount of *virtual* work,
  so its virtual results depend only on the seed, while its host time
  is what the simulator costs on this machine;
- ``check(state, outcome)`` verifies the outputs after the clock stops.

Workloads use the public surface only: ``DeploymentSpec``,
``TpccDatabase``/``TpccClient``, ``run_tpcc_sharded``,
``QuerySession.execute``, the ``SessionMux`` statement methods, proxy
sessions and ``Deployment.registry``.  Every input comes from the seed: the
deployment's own seed sequence, and named streams derived from it for
the benchmark's arrivals and key draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import DeploymentSpec
from repro.common import KB, MB, OverloadError, QueryError, TransactionAborted
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.sim.core import AllOf
from repro.workloads.tpcc import (
    TpccClient,
    TpccConfig,
    TpccDatabase,
    run_tpcc_sharded,
)
from repro.workloads.tpcch import (
    CH_QUERIES,
    TpcchConfig,
    TpcchDatabase,
    ch_query_sql,
)

from .metrics import percentile

__all__ = ["Outcome", "WORKLOADS"]

#: Money compares to the cent, as the TPC-C consistency conditions do.
CENTS = 0.01


@dataclass
class Outcome:
    """What one timed phase produced."""

    #: Virtual seconds per completed operation.
    latencies: List[float]
    attempted: int
    #: Operations that did not complete: errors, sheds, deadline misses.
    failed: int
    #: Virtual seconds over which ``latencies`` were taken.
    virt_seconds: float
    #: Transactions that completed by rolling back (TPC-C lost races and
    #: deadlock victims): ordinary outcomes, counted in failed_ratio.
    aborted: int = 0
    #: (label, operations completed, host seconds) per chunk of the
    #: timed phase: a TPC-C slice, a CH query, a serve load phase.  A
    #: label names the same work in every unit of a seed.
    chunks: List[Tuple[str, int, float]] = field(default_factory=list)
    #: Deterministic lines for the report (per-rate tables and the like).
    notes: List[str] = field(default_factory=list)
    #: Inputs to the per-layer metrics that only the workload can see.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Deterministic results folded into the run's identity digest.
    results: Any = None
    #: Workload-specific headline numbers (not end-to-end metrics).
    headline: Dict[str, float] = field(default_factory=dict)


@dataclass
class State:
    dep: Any
    terminals: List[Any] = field(default_factory=list)
    session: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# TPC-C: the commit path (single primary, and two shards with 2PC)
# ---------------------------------------------------------------------------

class Tpcc:
    """Closed loop of zero-think-time TPC-C terminals on one primary.

    The REDO log goes to an AStore SegmentRing; no EBP, so pages live in
    the DRAM buffer pool (the data fits it) and ship to PageStore.  As in
    ``run_tpcc``, each transaction draws its warehouse, so eight terminals
    on two warehouses contend for warehouse and district rows; a lost
    race (two Delivery transactions picking the same oldest new order)
    rolls back and counts as aborted.
    """

    name = "tpcc"
    config = TpccConfig(warehouses=2)
    clients = 8
    #: Virtual seconds of traffic run inside set-up, before timing.
    warmup = 0.01
    #: Virtual seconds of the timed phase, host-timed in this many
    #: equal slices (the terminals run through them without a barrier).
    duration = 0.2
    slices = 16

    def spec(self, seed: int) -> DeploymentSpec:
        return DeploymentSpec.astore_log(seed=seed)

    def load(self, dep):
        database = TpccDatabase(dep.engine, self.config,
                                dep.seeds.stream("tpcc-load"))
        dep.run_until(dep.env.process(database.load(), name="bench-load"))
        terminals = [
            TpccClient(database, dep.seeds.stream("tpcc-client-%d" % index))
            for index in range(self.clients)
        ]
        self.drive(dep, terminals, self.warmup)
        return terminals

    @staticmethod
    def drive(dep, terminals, duration: float) -> None:
        env = dep.env
        dep.run_until(AllOf(env, [
            env.process(t.run_for(duration), name="bench-terminal-%d" % i)
            for i, t in enumerate(terminals)
        ]))

    def reader(self, dep):
        return dep.engine

    def setup(self, seed: int) -> State:
        dep = self.spec(seed).build()
        dep.start()
        return State(dep, terminals=self.load(dep))

    def run(self, state: State) -> Outcome:
        dep, terminals = state.dep, state.terminals
        env = dep.env
        marks = [(len(t.latencies.samples), t.committed, t.aborted)
                 for t in terminals]
        start = env.now
        done = AllOf(env, [
            env.process(t.run_for(self.duration), name="bench-terminal-%d" % i)
            for i, t in enumerate(terminals)
        ])
        chunks = []
        for index in range(self.slices):
            before = sum(t.committed for t in terminals)
            clock = time.perf_counter()
            if index < self.slices - 1:
                dep.run_for(start + self.duration * (index + 1) / self.slices
                            - env.now)
            else:
                dep.run_until(done)
            chunks.append(("slice-%d" % index,
                           sum(t.committed for t in terminals) - before,
                           time.perf_counter() - clock))
        latencies: List[float] = []
        committed = aborted = 0
        for terminal, (samples, done, lost) in zip(terminals, marks):
            latencies.extend(terminal.latencies.samples[samples:])
            committed += terminal.committed - done
            aborted += terminal.aborted - lost
        return Outcome(
            latencies=latencies,
            attempted=committed + aborted,
            failed=0,
            aborted=aborted,
            virt_seconds=env.now - start,
            chunks=chunks,
            extra=self.extra(dep),
            results={"committed": committed, "aborted": aborted},
        )

    def extra(self, dep) -> Dict[str, float]:
        return {}

    def check(self, state: State, outcome: Outcome) -> Dict[str, bool]:
        return {"ytd_ledger": not self.ledger_violations(state)}

    def ledger_violations(self, state: State) -> List[str]:
        """W_YTD = sum(D_YTD), and each D_YTD equals the committed
        payments the terminals recorded for that district."""
        dep = state.dep
        ledger: Dict[Tuple[int, int], float] = {}
        for terminal in state.terminals:
            for key, amount in terminal.committed_payments.items():
                ledger[key] = ledger.get(key, 0.0) + amount
        reader = self.reader(dep)
        config = self.config
        violations: List[str] = []

        def audit():
            for w_id in range(1, config.warehouses + 1):
                warehouse = yield from reader.read_row(
                    None, "warehouse", (w_id,))
                districts = 0.0
                for d_id in range(1, config.districts_per_warehouse + 1):
                    district = yield from reader.read_row(
                        None, "district", (w_id, d_id))
                    districts += district[6]
                    paid = ledger.get((w_id, d_id), 0.0)
                    if abs(district[6] - paid) > CENTS:
                        violations.append(
                            "D_YTD(%d,%d) %.2f != payments %.2f"
                            % (w_id, d_id, district[6], paid))
                if abs(warehouse[7] - districts) > CENTS:
                    violations.append("W_YTD(%d) %.2f != sum D_YTD %.2f"
                                      % (w_id, warehouse[7], districts))

        dep.run_until(dep.env.process(audit(), name="bench-ledger-audit"))
        return violations


class TpccTwoPhase(Tpcc):
    """TPC-C on two shards; remote NewOrder items commit through 2PC.

    ``run_tpcc_sharded`` pins terminals to home warehouses round-robin:
    two terminals per warehouse.
    """

    name = "tpcc-2pc"
    config = TpccConfig(warehouses=4, remote_item_prob=0.1)
    #: Twice the single-primary run: with two shards the latency median
    #: falls between transaction types and moves with the seed's mix.
    duration = 0.4
    slices = 32

    def spec(self, seed: int) -> DeploymentSpec:
        return DeploymentSpec.astore_log(seed=seed).with_shards(2)

    def load(self, dep):
        _tps, _latency, terminals = run_tpcc_sharded(
            dep, self.config, clients=self.clients, duration=self.warmup)
        return terminals

    def reader(self, dep):
        return dep.shard_session(home=0)

    def extra(self, dep) -> Dict[str, float]:
        return {"in_doubt_unresolved":
                dep.coordinator.counters()["unresolved_in_doubt"]}

    def check(self, state: State, outcome: Outcome) -> Dict[str, bool]:
        checks = super().check(state, outcome)
        checks["no_unresolved_in_doubt"] = (
            outcome.extra["in_doubt_unresolved"] == 0)
        return checks


# ---------------------------------------------------------------------------
# CH-benCHmark: the analytic read path (EBP + push-down)
# ---------------------------------------------------------------------------

def canonical_rows(result) -> List[tuple]:
    """Rows rounded and sorted: push-down merges may permute ORDER BY
    ties and reassociate float sums in the last digits."""
    rows = [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in result.rows
    ]
    return sorted(rows, key=repr)


class Ch:
    """The 22 CH queries as one sequential stream (closed loop, one
    client), columnar batch execution with cost-based push-down.

    A 16-page DRAM buffer pool sits in front of ~2.5 MB of data that the
    128 MB EBP holds entirely.
    """

    name = "ch"
    config = TpcchConfig(
        warehouses=2, customers_per_district=100, items=1500,
        initial_orders_per_district=100, suppliers=200, string_scale=1.0,
    )
    queries = tuple(sorted(CH_QUERIES))
    #: Timed passes over the 22 queries.
    passes = 3

    def spec(self, seed: int) -> DeploymentSpec:
        return DeploymentSpec.astore_pq(
            seed=seed, ebp_capacity_bytes=128 * MB,
        ).with_engine(buffer_pool_bytes=16 * 16 * KB)

    def setup(self, seed: int) -> State:
        dep = self.spec(seed).build()
        dep.start()
        database = TpcchDatabase(dep.engine, self.config,
                                 dep.seeds.stream("ch-load"))

        def load(env):
            yield from database.load()
            yield env.timeout(0.3)  # let eviction populate the EBP

        dep.run_until(dep.env.process(load(dep.env), name="bench-ch-load"))
        session = dep.new_session(
            enable_pushdown=True, force_hash_joins=True, batch_mode=True,
            pushdown_cost_based=True,
        )
        state = State(dep, session=session)
        self.run_queries(state, session)  # warm-up pass
        return state

    def run_queries(self, state: State, session, chunks=None):
        """Run the 22 queries once; with ``chunks``, append one
        (label, 1, host seconds) per query."""
        dep = state.dep
        env = dep.env
        results = {}
        latencies = []
        for qno in self.queries:
            start = env.now
            clock = time.perf_counter()
            proc = env.process(session.execute(ch_query_sql(qno)),
                               name="bench-ch-q%d" % qno)
            dep.run_until(proc)
            if chunks is not None:
                chunks.append(("q%d" % qno, 1, time.perf_counter() - clock))
            latencies.append(env.now - start)
            results[qno] = proc.value
        return results, latencies

    def run(self, state: State) -> Outcome:
        env = state.dep.env
        start = env.now
        latencies: List[float] = []
        chunks = []
        for _ in range(self.passes):
            results, pass_latencies = self.run_queries(
                state, state.session, chunks)
            latencies.extend(pass_latencies)
        state.extra["results"] = results
        return Outcome(
            latencies=latencies,
            attempted=len(latencies),
            failed=0,
            virt_seconds=env.now - start,
            chunks=chunks,
            results={
                str(qno): [r.columns, [list(row) for row in r.rows]]
                for qno, r in results.items()
            },
        )

    def check(self, state: State, outcome: Outcome) -> Dict[str, bool]:
        """Every batch + push-down result equals the row-mode result."""
        row_session = state.dep.new_session(enable_pushdown=False,
                                            batch_mode=False)
        row_results, _ = self.run_queries(state, row_session)
        batch = state.extra["results"]
        return {"row_mode_parity": all(
            batch[q].columns == row_results[q].columns
            and canonical_rows(batch[q]) == canonical_rows(row_results[q])
            for q in self.queries
        )}


# ---------------------------------------------------------------------------
# Serving: open loop through the session mux, replicas and a view
# ---------------------------------------------------------------------------

SERVE_TABLE = "sbserve"
POINT_SQL = "SELECT k, version FROM sbserve WHERE k = ?"
AGG_SQL = ("SELECT grp, COUNT(*) AS n, SUM(version) AS total "
           "FROM sbserve GROUP BY grp ORDER BY grp")
VIEW = ("sbserve_by_grp",
        "SELECT grp, COUNT(*) AS n, SUM(version) AS total "
        "FROM sbserve GROUP BY grp")

#: Statement kinds: a version-bump write, a view-served aggregate, a
#: prepared point SELECT and a routed row read.
WRITE, AGGREGATE, PREPARED, READ_ROW = (
    "write", "aggregate", "prepared", "read_row")


@dataclass
class Phase:
    """Statements of one load phase of ``serve``."""

    #: Offered statements per virtual second; 0 for the closed loop.
    rate: float
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    inflight_mid: int = 0
    inflight_end: int = 0
    virt_seconds: float = 0.0


class Serve:
    """Parked mux sessions of three tenants over two standby replicas.

    The traffic is the ``run_serving_mux`` scenario's: a visit picks a
    session and issues a burst of 1-4 statements back to back, each 8%
    writes, 62% prepared point SELECTs and 30% routed row reads; here a
    tenth of the draws become aggregates that a maintained view answers
    (the reads keep their 62:30 ratio).  Reads go to the replicas under
    the session's read-your-writes token, so a read after the session's
    own write waits for standby REDO apply.

    The timed phase first runs a closed loop of eight zero-think-time
    workers per tenant: its goodput moves with the per-statement
    latency, and its statements are the latency samples of the
    end-to-end metrics.  Then it runs open loop in virtual time at fixed
    offered rates up to and past saturation (Poisson visits; each
    statement is timed from its due time: the visit's arrival, then the
    previous statement's end); the highest rate that meets the latency
    limit is ``virt_slo_rate``.  Below saturation a point read costs a
    fixed statement CPU, so open-loop medians would be that constant on
    every seed.  The primary's buffer pool is smaller than the table, so
    writes reach the EBP and PageStore tiers.
    """

    name = "serve"
    keys = 6000
    groups = 16
    pad = 160
    sessions = 10000
    #: (tenant, WFQ weight, share of the session population).
    tenants = (("gold", 4, 0.1), ("silver", 2, 0.2), ("bronze", 1, 0.7))
    lanes = 8
    #: Cumulative draw thresholds of the statement mix.
    mix = ((0.08, WRITE), (0.18, AGGREGATE), (0.73, PREPARED),
           (1.00, READ_ROW))
    #: Statements per visit are drawn uniformly from this range.
    burst = (1, 4)
    #: Offered rates, statements per virtual second.  Backlogs start to
    #: grow between 90k and 150k, depending on the seed; past about
    #: 200k, statements are shed.
    rates = (60000.0, 90000.0, 120000.0, 150000.0)
    #: Expected statements per rate (the window is this over the rate).
    statements_per_rate = 3000
    #: Closed loop: workers per tenant, and statements per host-timed
    #: chunk.  Fewer statements leave the seed's start-up transient in
    #: the median (9% spread over ten seeds at 9,600 statements).
    workers_per_tenant = 8
    closed_chunks = 4
    closed_statements = 4500
    #: Statements of the warm-up burst run in set-up.
    warmup_statements = 600
    #: The p99 latency limit a rate must meet.
    limit_ms = 3.0
    primary_pool_pages = 32

    def spec(self, seed: int) -> DeploymentSpec:
        return (
            DeploymentSpec.astore_ebp(seed=seed)
            .with_engine(buffer_pool_bytes=self.primary_pool_pages * 16 * KB)
            .with_replicas(2)
            .with_multiplexing(self.lanes,
                               {name: w for name, w, _ in self.tenants})
            .with_views([VIEW])
        )

    def setup(self, seed: int) -> State:
        dep = self.spec(seed).build()
        dep.start()
        engine = dep.engine
        engine.create_table(
            SERVE_TABLE,
            Schema([Column("k", INT()), Column("grp", INT()),
                    Column("version", INT()), Column("pad", VARCHAR(200))]),
            ["k"],
        )
        pad = "p" * self.pad

        def load():
            for first in range(1, self.keys + 1, 500):
                txn = engine.begin()
                for k in range(first, min(first + 500, self.keys + 1)):
                    yield from engine.insert(
                        txn, SERVE_TABLE, [k, k % self.groups, 0, pad])
                yield from engine.commit(txn)

        dep.run_until(dep.env.process(load(), name="bench-serve-load"))
        dep.fleet.sync_catalogs()
        tail = engine.log.persistent_lsn
        by_tenant: Dict[str, List[Any]] = {}
        for name, _weight, share in self.tenants:
            for j in range(int(round(self.sessions * share))):
                ms = dep.mux_session("%s-%d" % (name, j), name)
                ms.lsns[0] = tail
                by_tenant.setdefault(name, []).append(ms)
        state = State(dep, extra={
            "sessions": [ms for group in by_tenant.values() for ms in group],
            "by_tenant": by_tenant,
            "busy": set(),
            "audits": {},
            "rng": dep.seeds.stream("bench-serve"),
            "violations": [],
            "lag_max": 0,
        })
        # Warm-up: a short burst binds every lane, fills the plan caches
        # and pins replicas; then let replicas and the view catch up.
        rate = self.rates[0]
        self.open_loop(state, Phase(rate), self.warmup_statements / rate)
        self.settle(dep)
        return state

    def settle(self, dep, timeout: float = 1.0) -> None:
        deadline = dep.env.now + timeout
        while not dep.views.caught_up() and dep.env.now < deadline:
            dep.run_for(0.002)

    def visit(self, state: State, ms, due: float, phase: Phase):
        """Generator: one session's burst of statements.

        The first statement is due at the visit's arrival, each later
        one when the previous ended; a statement's latency runs from its
        due time to its end.
        """
        dep = state.dep
        mux = dep.mux
        rng = state.extra["rng"]
        written = state.extra["audits"].setdefault(ms.name, {})
        try:
            for _ in range(rng.randint(*self.burst)):
                draw = rng.random()
                kind = next(k for bound, k in self.mix if draw < bound)
                key = rng.randint(1, self.keys)
                phase.attempted += 1
                try:
                    yield from self.statement(state, ms, kind, key, written)
                except (OverloadError, TransactionAborted, QueryError):
                    phase.failed += 1
                    return
                phase.latencies.append(dep.env.now - due)
                due = dep.env.now
        finally:
            state.extra["busy"].discard(ms.name)
            for handle in dep.fleet.handles:
                lag = handle.replica.lag_lsn
                if lag > state.extra["lag_max"]:
                    state.extra["lag_max"] = lag

    def statement(self, state: State, ms, kind: str, key: int,
                  written: Dict[int, int]):
        """Generator: one statement; reads are audited against the
        versions this session wrote."""
        mux = state.dep.mux
        if kind == AGGREGATE:
            yield from mux.execute(ms, AGG_SQL)
            return
        if kind == WRITE:
            written[key] = yield from mux.write(ms, self.bump(state.dep, key))
            return
        if kind == READ_ROW:
            row = yield from mux.read_row(ms, SERVE_TABLE, (key,))
            seen = None if row is None else row[2]
        else:
            result = yield from mux.prepare(ms, POINT_SQL).execute(key)
            seen = result.rows[0][1] if result.rows else None
        expect = written.get(key)
        if seen is None or (expect is not None and seen < expect):
            state.extra["violations"].append(
                "t=%.6f %s key %d read %r after writing %r"
                % (state.dep.env.now, ms.name, key, seen, expect))

    @staticmethod
    def bump(dep, key: int):
        """The write: bump one row's version, returning the new one."""
        engine = dep.engine

        def work(txn):
            row = yield from engine.read_row(
                txn, SERVE_TABLE, (key,), for_update=True)
            yield from engine.update(
                txn, SERVE_TABLE, (key,), {"version": row[2] + 1})
            return row[2] + 1

        return work

    @staticmethod
    def idle_session(state: State, sessions: List[Any]):
        """A random session of ``sessions`` with no visit in flight."""
        rng = state.extra["rng"]
        busy = state.extra["busy"]
        index = rng.randint(0, len(sessions) - 1)
        while sessions[index].name in busy:
            index = (index + 1) % len(sessions)
        ms = sessions[index]
        busy.add(ms.name)
        return ms

    def arrivals(self, state: State, phase: Phase, window: float,
                 procs: List):
        """Generator: Poisson visits for ``window`` virtual seconds, at
        the visit rate that offers ``phase.rate`` statements a second."""
        env = state.dep.env
        rng = state.extra["rng"]
        busy = state.extra["busy"]
        visit_rate = phase.rate / (sum(self.burst) / 2.0)
        end = env.now + window
        mid = env.now + window / 2.0
        sampled_mid = False
        while True:
            gap = rng.expovariate(visit_rate)
            if env.now + gap >= end:
                break
            yield env.timeout(gap)
            if not sampled_mid and env.now >= mid:
                phase.inflight_mid = len(busy)
                sampled_mid = True
            ms = self.idle_session(state, state.extra["sessions"])
            procs.append(env.process(
                self.visit(state, ms, env.now, phase),
                name="bench-serve-visit"))
        yield env.timeout(end - env.now)
        phase.inflight_end = len(busy)

    def open_loop(self, state: State, phase: Phase, window: float
                  ) -> Tuple[str, int, float]:
        """Run ``phase`` open loop for ``window`` virtual seconds, then
        drain it; returns (label, statements completed, host seconds)."""
        dep = state.dep
        env = dep.env
        start = env.now
        procs: List = []
        clock = time.perf_counter()
        dep.run_until(env.process(self.arrivals(state, phase, window, procs),
                                  name="bench-serve-arrivals"))
        dep.run_until(AllOf(env, procs))
        phase.virt_seconds = env.now - start
        return ("rate-%d" % phase.rate, len(phase.latencies),
                time.perf_counter() - clock)

    def worker(self, state: State, sessions: List[Any], phase: Phase,
               target: int):
        """Generator: zero-think-time visits until the phase has issued
        ``target`` statements."""
        env = state.dep.env
        while phase.attempted < target:
            ms = self.idle_session(state, sessions)
            yield from self.visit(state, ms, env.now, phase)

    def closed_loop(self, state: State, phase: Phase, target: int,
                    label: str) -> Tuple[str, int, float]:
        dep = state.dep
        env = dep.env
        start = env.now
        done = len(phase.latencies)
        target += phase.attempted
        clock = time.perf_counter()
        dep.run_until(AllOf(env, [
            env.process(self.worker(state, sessions, phase, target),
                        name="bench-serve-worker")
            for sessions in state.extra["by_tenant"].values()
            for _ in range(self.workers_per_tenant)
        ]))
        timing = (label, len(phase.latencies) - done,
                  time.perf_counter() - clock)
        phase.virt_seconds += env.now - start
        return timing

    def meets_limit(self, phase: Phase) -> bool:
        if phase.failed or not phase.latencies:
            return False
        growing = phase.inflight_end > phase.inflight_mid + self.lanes
        return (percentile(phase.latencies, 99.0) * 1000.0 <= self.limit_ms
                and not growing)

    def run(self, state: State) -> Outcome:
        state.extra["lag_max"] = 0
        chunks: List[Tuple[str, int, float]] = []
        closed = Phase(0.0)
        for index in range(self.closed_chunks):
            chunks.append(self.closed_loop(state, closed,
                                           self.closed_statements,
                                           "closed-%d" % index))
        phases = []
        for rate in self.rates:
            phase = Phase(rate)
            chunks.append(self.open_loop(state, phase,
                                         self.statements_per_rate / rate))
            phases.append(phase)
        notes = []
        for p in phases:
            notes.append(
                "rate %6.0f/s: %5d sent, %d failed, p99 %.4f ms over %d, "
                "in flight mid/end %d/%d, meets %.1f ms: %s"
                % (p.rate, p.attempted, p.failed,
                   percentile(p.latencies, 99.0) * 1000.0, len(p.latencies),
                   p.inflight_mid, p.inflight_end, self.limit_ms,
                   "yes" if self.meets_limit(p) else "no"))
        notes.append(
            "closed loop (%d workers): %d sent, %d failed, goodput %.1f/s"
            % (self.workers_per_tenant * len(self.tenants), closed.attempted,
               closed.failed, len(closed.latencies) / closed.virt_seconds))
        slo_rate = max([p.rate for p in phases if self.meets_limit(p)],
                       default=0.0)
        return Outcome(
            latencies=closed.latencies,
            attempted=sum(p.attempted for p in phases + [closed]),
            failed=sum(p.failed for p in phases + [closed]),
            virt_seconds=closed.virt_seconds,
            chunks=chunks,
            notes=notes,
            extra={"standby_lag_max": state.extra["lag_max"]},
            results={"phases": [(p.rate, p.attempted, p.failed,
                                 p.inflight_mid, p.inflight_end)
                                for p in phases + [closed]]},
            headline={"virt_slo_rate": slo_rate},
        )

    def check(self, state: State, outcome: Outcome) -> Dict[str, bool]:
        """Zero stale or missing reads, and the view-served aggregate
        equals a direct rescan on the primary once the view caught up."""
        dep = state.dep
        self.settle(dep)
        session = dep.frontend_session("bench-view-audit")
        session.note_commit_lsn(dep.engine.log.persistent_lsn)
        served = dep.env.process(session.execute(AGG_SQL))
        dep.run_until(served)
        route = session.last_route or ""
        direct = dep.env.process(dep.frontend.primary_session.execute(AGG_SQL))
        dep.run_until(direct)
        return {
            "no_stale_or_missing_reads": not state.extra["violations"],
            "view_served": route.startswith("view:"),
            "view_equals_rescan": (
                served.value.columns == direct.value.columns
                and served.value.rows == direct.value.rows),
        }


WORKLOADS = {w.name: w for w in (Tpcc(), Ch(), Serve(), TpccTwoPhase())}
