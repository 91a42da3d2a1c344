"""The layers the traced run times, and the per-layer metrics it reports.

``ENTRY_POINTS`` names, per layer, the public methods the traced run
wraps with spans (``bench/tracing.py``); ``COUNTED`` names the hot
synchronous functions that are only counted and timed.  Every process
the kernel starts runs inside a span of the layer whose package defines
its generator, so daemon work (REDO apply, view folding, group commit)
is billed to its own layer rather than to the kernel.

``layer_counts`` turns the registry deltas of one timed phase, and
``layer_times`` the tracer's spans, into the ``per_layer`` metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import percentile
from .tracing import Tracer

__all__ = [
    "ENTRY_POINTS",
    "COUNTED",
    "LAYERS",
    "PER_LAYER",
    "install",
    "RegistryProbe",
    "layer_counts",
    "layer_times",
]

#: Layers reported, in print order.  ``workload`` is the TPC-C terminal code
#: and the benchmark's own request code, kept apart so the kernel's
#: remainder holds only scheduling.
LAYERS = ("sim", "astore", "storage", "engine", "query", "frontend",
          "views", "shard", "workload")

#: layer -> ((module, class, (methods...), op_root), ...)
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...], bool], ...]] = {
    "sim": (
        ("repro.sim.core", "Environment", ("run", "run_until_event"), False),
        ("repro.sim.resources", "CpuPool", ("consume",), False),
        ("repro.sim.devices", "StorageDevice", ("read", "write"), False),
        ("repro.sim.network", "RdmaFabric", ("post", "post_chain"), False),
        ("repro.sim.network", "RpcNetwork", ("send", "call"), False),
    ),
    "astore": (
        ("repro.astore.client", "AStoreClient",
         ("create", "open", "delete", "write", "read", "read_entries",
          "reset", "write_header", "refresh_routes", "renew_lease"), False),
        ("repro.astore.segment_ring", "SegmentRing",
         ("initialize", "append", "recover"), False),
        ("repro.astore.server", "AStoreServer",
         ("one_sided_write", "one_sided_read", "overwrite_header",
          "scan_entries", "reset_segment", "allocate_segment",
          "release_segment", "run_cleanup_cycle", "scan_ebp_pages"), False),
    ),
    "storage": (
        ("repro.storage.pagestore", "PageStoreService",
         ("ship_records", "read_page"), False),
        ("repro.storage.pagestore", "PageStoreServer",
         ("receive_records", "catch_up", "serve_gossip", "read_page"), False),
        ("repro.storage.logstore", "LogStore", ("append",), False),
    ),
    "engine": (
        ("repro.engine.dbengine", "DBEngine",
         ("fetch_page", "begin", "insert", "read_row", "update", "delete",
          "commit", "prepare", "commit_prepared", "abort_prepared",
          "log_decision", "rollback"), False),
        ("repro.engine.ebp", "ExtendedBufferPool",
         ("cache_page", "get_page", "flush_dirty_lsns", "run_compaction"),
         False),
        ("repro.engine.standby", "StandbyReplica",
         ("fetch_page", "read_row"), False),
        ("repro.engine.txn", "LockManager", ("acquire",), False),
        ("repro.engine.wal", "LogBuffer", ("submit",), False),
    ),
    "query": (
        ("repro.query.executor", "QuerySession",
         ("execute", "execute_statement", "execute_partial_select",
          "execute_point", "execute_plan"), True),
        ("repro.query.executor", "PreparedStatement", ("execute",), True),
        ("repro.query.pushdown", "PushdownRuntime",
         ("run_scan", "run_hash_build"), False),
    ),
    "frontend": (
        ("repro.frontend.mux", "SessionMux",
         ("read_row", "execute", "write"), True),
        ("repro.frontend.mux", "MuxPrepared", ("execute",), True),
        ("repro.frontend.proxy", "ProxySession",
         ("read_row", "execute", "write", "run_write"), True),
        ("repro.frontend.proxy", "PreparedProxyStatement", ("execute",),
         True),
        ("repro.frontend.proxy", "SqlProxy",
         ("routed_read", "view_read", "single_shard_select",
          "scatter_select", "prepared_execute", "distributed_dml"), False),
        ("repro.frontend.admission", "TenantAdmission", ("acquire",), False),
        ("repro.frontend.admission", "AdmissionController", ("admit",),
         False),
        ("repro.frontend.fleet", "ReplicaFleet", ("wait_for_lsn",), False),
    ),
    "views": (
        ("repro.views.maintainer", "ViewMaintainer",
         ("match", "wait_for_lsn", "serve"), False),
    ),
    "shard": (
        ("repro.shard.coordinator", "Coordinator",
         ("begin", "insert", "update", "delete", "read_row", "commit",
          "rollback"), False),
        ("repro.shard.robustness", "CommitFence",
         ("acquire_read", "acquire_write"), False),
        ("repro.shard.robustness", "GlobalDeadlockDetector", ("sweep",),
         False),
    ),
    "workload": (
        ("repro.workloads.tpcc", "TpccClient", ("run_one",), True),
    ),
}

#: counter name -> (layer, ((module, class, method), ...)): hot
#: synchronous calls that get a call count and host time, billed to the
#: layer, but no span object per call.
COUNTED: Dict[str, Tuple[str, Tuple[Tuple[str, str, str], ...]]] = {
    "codec": ("engine", (
        ("repro.engine.codec", "Schema", "encode"),
        ("repro.engine.codec", "Schema", "decode"),
        ("repro.engine.codec", "Schema", "decode_into"),
    )),
    "parse": ("query", (
        ("repro.query.parser", "Parser", "__init__"),
        ("repro.query.parser", "Parser", "statement"),
    )),
    "plan": ("query", (
        ("repro.query.planner", "Planner", "plan_select"),
    )),
}

#: Statement-cache lookups: (module, class, method, hit counter attr).
CACHE_LOOKUPS = (
    ("repro.query.cache", "ParseCache", "entry", "hits"),
    ("repro.query.executor", "QuerySession", "cached_plan",
     "plan_cache_hits"),
)

#: per_layer metric name -> unit, in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.host_self_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.device_queue_wait_s", "s"),
    ("sim.rdma_verbs", "count"),
    ("sim.rdma_bytes", "bytes"),
    ("astore.host_self_s", "s"),
    ("astore.log_writes", "count"),
    ("astore.log_write_p99_us", "us"),
    ("astore.ebp_reads", "count"),
    ("astore.ebp_writes", "count"),
    ("astore.retries", "count"),
    ("astore.server_cpu_busy_s", "s"),
    ("storage.host_self_s", "s"),
    ("storage.page_reads", "count"),
    ("storage.redo_records_received", "count"),
    ("storage.server_cpu_busy_s", "s"),
    ("engine.host_self_s", "s"),
    ("engine.codec_calls", "count"),
    ("engine.codec_host_s", "s"),
    ("engine.statements", "count"),
    ("engine.aborted", "count"),
    ("engine.lock_waits", "count"),
    ("engine.commit_wait_p50_us", "us"),
    ("engine.commit_wait_p99_us", "us"),
    ("engine.log_flushes", "count"),
    ("engine.records_per_flush", "ratio"),
    ("engine.bp_hit_ratio", "ratio"),
    ("engine.bp_evictions", "count"),
    ("engine.fetch_bp", "count"),
    ("engine.fetch_ebp", "count"),
    ("engine.fetch_pagestore", "count"),
    ("engine.ebp_hit_ratio", "ratio"),
    ("engine.standby_lag_bytes_max", "bytes"),
    ("query.host_self_s", "s"),
    ("query.parse_host_s", "s"),
    ("query.plan_host_s", "s"),
    ("query.stmt_cache_hit_ratio", "ratio"),
    ("query.pushdown_fragments", "count"),
    ("query.pushdown_pages_ebp", "count"),
    ("query.pushdown_pages_local", "count"),
    ("query.pushdown_fallback_pages", "count"),
    ("frontend.host_self_s", "s"),
    ("frontend.statements", "count"),
    ("frontend.replica_read_ratio", "ratio"),
    ("frontend.primary_fallbacks", "count"),
    ("frontend.lsn_wait_p99_ms", "ms"),
    ("frontend.shed", "count"),
    ("frontend.mux_binds", "count"),
    ("frontend.tenant_wait_p99_ms.gold", "ms"),
    ("frontend.tenant_wait_p99_ms.silver", "ms"),
    ("frontend.tenant_wait_p99_ms.bronze", "ms"),
    ("views.host_self_s", "s"),
    ("views.served_ratio", "ratio"),
    ("views.records_folded", "count"),
    ("views.rescans", "count"),
    ("views.wait_p99_ms", "ms"),
    ("shard.host_self_s", "s"),
    ("shard.two_phase_ratio", "ratio"),
    ("shard.commit_p99_ms", "ms"),
    ("shard.in_doubt_unresolved", "count"),
    ("shard.deadlock_victims", "count"),
    ("workload.host_self_s", "s"),
    ("trace.host_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_PACKAGE_LAYER = {
    "sim": "sim", "astore": "astore", "storage": "storage",
    "engine": "engine", "query": "query", "frontend": "frontend",
    "views": "views", "shard": "shard", "workloads": "workload",
}


def layer_of_generator(generator) -> str:
    """The layer a process belongs to: the package of its generator's
    code; code outside ``repro`` (the benchmark's own) is ``workload``."""
    code = getattr(generator, "gi_code", None)
    if code is None:
        return "workload"
    parts = code.co_filename.replace(os.sep, "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return _PACKAGE_LAYER.get(parts[index + 1], "sim")
    return "workload"


def _resolve(module: str, cls: str):
    return getattr(importlib.import_module(module), cls)


def install(tracer: Tracer) -> None:
    """Patch every entry point, counted call and cache lookup."""
    env_cls = _resolve("repro.sim.core", "Environment")
    tracer.patch(env_cls, "process",
                 lambda fn: tracer.process_wrapper(fn, layer_of_generator))
    for layer, entries in ENTRY_POINTS.items():
        for module, cls_name, methods, op_root in entries:
            owner = _resolve(module, cls_name)
            for method in methods:
                label = "%s.%s" % (cls_name, method)
                tracer.patch(
                    owner, method,
                    lambda fn, label=label, layer=layer, root=op_root:
                    tracer.span_wrapper(fn, label, layer, root),
                )
    for counter, (layer, entries) in COUNTED.items():
        for module, cls_name, method in entries:
            tracer.patch(
                _resolve(module, cls_name), method,
                lambda fn, counter=counter, layer=layer:
                tracer.counted_wrapper(fn, counter, layer),
            )
    calls = tracer.calls
    calls["cache_lookups"] = calls["cache_hits"] = 0
    for module, cls_name, method, attr in CACHE_LOOKUPS:

        def make(fn, attr=attr):
            def wrapper(self, *args, **kwargs):
                before = getattr(self, attr)
                result = fn(self, *args, **kwargs)
                calls["cache_lookups"] += 1
                calls["cache_hits"] += getattr(self, attr) - before
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        tracer.patch(_resolve(module, cls_name), method, make)


# ---------------------------------------------------------------------------
# Registry reads
# ---------------------------------------------------------------------------

def flatten(node: Any, prefix: str = "", out: Optional[Dict] = None
            ) -> Dict[str, Any]:
    """``{dotted.name: leaf}`` for a nested registry snapshot."""
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, "%s.%s" % (prefix, key) if prefix else str(key),
                    out)
    else:
        out[prefix] = node
    return out


def _strip_shard(name: str) -> str:
    head, _, rest = name.partition(".")
    if head.startswith("shard") and head[5:].isdigit() and rest:
        return rest
    return name


#: Latency recorders whose samples the per-layer metrics read.
_RECORDERS = (
    "astore.client.log-client.write",
    "engine.txn.commit_wait",
    "frontend.fleet_lsn_wait",
    "frontend.tenant.gold.wait",
    "frontend.tenant.silver.wait",
    "frontend.tenant.bronze.wait",
)


class RegistryProbe:
    """Registry state at the start of a timed phase, to diff against.

    Only registered names are read, so probing never adds a metric.
    """

    def __init__(self, registry):
        self.registry = registry
        self.flat = flatten(registry.snapshot())
        self.sample_marks = {
            name: len(registry.latency(name).samples)
            for name in self._recorders()
        }

    def _recorders(self) -> List[str]:
        names = set()
        for key in self.registry.flat():
            if _strip_shard(key) in _RECORDERS:
                names.add(key)
        return sorted(names)

    def delta(self) -> Dict[str, Any]:
        """Numeric registry leaves changed since the probe, by name."""
        after = flatten(self.registry.snapshot())
        out = {}
        for key, value in after.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            before = self.flat.get(key, 0)
            if isinstance(before, bool) or not isinstance(before, (int, float)):
                before = 0
            out[key] = value - before
        return out

    def new_samples(self, name: str) -> List[float]:
        """Samples recorded since the probe, across shard copies."""
        samples: List[float] = []
        for key, mark in self.sample_marks.items():
            if _strip_shard(key) == name:
                samples.extend(self.registry.latency(key).samples[mark:])
        return samples


def total(delta: Dict[str, Any], name: str) -> float:
    """``name`` summed over shards: the deployment-wide key if present,
    else the sum of its ``shardK.`` copies."""
    if name in delta:
        return delta[name]
    return sum(v for k, v in delta.items() if _strip_shard(k) == name
               and k != name)


def total_matching(delta: Dict[str, Any], prefix: str, suffix: str) -> float:
    """Sum of every ``prefix*suffix`` leaf (wildcard middle), shards too."""
    return sum(
        v for k, v in delta.items()
        if _strip_shard(k).startswith(prefix) and k.endswith(suffix)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(samples: Iterable[float], pct: float, scale: float) -> float:
    samples = list(samples)
    return percentile(samples, pct) * scale if samples else 0.0


def layer_counts(probe: RegistryProbe, events: int,
                 extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics that come from the registry: deterministic
    for one seed, identical in traced and untraced runs."""
    d = probe.delta()
    log_writes = total_matching(d, "astore.client.log-client.", ".writes")
    bp_hits = total(d, "buffer_pool.hits")
    bp_misses = total(d, "buffer_pool.misses")
    ebp_hits = total(d, "ebp.hits")
    ebp_misses = total(d, "ebp.misses")
    flushes = total(d, "engine.log_flushes")
    replica_reads = total(d, "frontend.proxy.reads_replica")
    primary_reads = total(d, "frontend.proxy.reads_primary")
    single = total(d, "coordinator.single_shard_commits")
    two_phase = total(d, "coordinator.two_phase_commits")
    read_only = total(d, "coordinator.read_only_commits")
    served = total(d, "frontend.proxy.views_served")
    bounced = total(d, "frontend.proxy.views_bounced")
    return {
        "sim.events": events,
        "sim.device_queue_wait_s": total_matching(
            d, "sim.device.", ".queue_wait_s"),
        "sim.rdma_verbs": total_matching(d, "sim.rdma.", ".verbs_posted"),
        "sim.rdma_bytes": total_matching(d, "sim.rdma.", ".bytes_moved"),
        "astore.log_writes": log_writes,
        "astore.log_write_p99_us": _p(
            probe.new_samples("astore.client.log-client.write"), 99, 1e6),
        "astore.ebp_reads": total_matching(
            d, "astore.client.ebp-client.", ".reads"),
        "astore.ebp_writes": total_matching(
            d, "astore.client.ebp-client.", ".writes"),
        "astore.retries": total_matching(d, "astore.client.", ".retries"),
        "astore.server_cpu_busy_s": total_matching(
            d, "astore.servers.", ".cpu_busy_s"),
        "storage.page_reads": total(d, "pagestore.page_reads"),
        "storage.redo_records_received": total_matching(
            d, "pagestore.servers.", ".records_received"),
        "storage.server_cpu_busy_s": total_matching(
            d, "pagestore.servers.", ".cpu_busy_s"),
        "engine.statements": total(d, "engine.statements"),
        "engine.aborted": total(d, "engine.aborted"),
        "engine.lock_waits": total(d, "engine.lock_waits"),
        "engine.commit_wait_p50_us": _p(
            probe.new_samples("engine.txn.commit_wait"), 50, 1e6),
        "engine.commit_wait_p99_us": _p(
            probe.new_samples("engine.txn.commit_wait"), 99, 1e6),
        "engine.log_flushes": flushes,
        "engine.records_per_flush": _ratio(
            total(d, "engine.records_flushed"), flushes),
        "engine.bp_hit_ratio": _ratio(bp_hits, bp_hits + bp_misses),
        "engine.bp_evictions": total(d, "buffer_pool.evictions"),
        "engine.fetch_bp": total(d, "engine.page_fetch.bp_hit"),
        "engine.fetch_ebp": total(d, "engine.page_fetch.ebp_hit"),
        "engine.fetch_pagestore": total(d, "engine.page_fetch.pagestore_read"),
        "engine.ebp_hit_ratio": _ratio(ebp_hits, ebp_hits + ebp_misses),
        "engine.standby_lag_bytes_max": extra.get("standby_lag_max", 0),
        "query.pushdown_fragments": total(d, "query.pushdown.fragments"),
        "query.pushdown_pages_ebp": total(d, "query.pushdown.pages_via_ebp"),
        "query.pushdown_pages_local": total(d, "query.pushdown.pages_local"),
        "query.pushdown_fallback_pages": total(
            d, "query.pushdown.fallback_pages"),
        "frontend.statements": total(d, "frontend.mux.statements"),
        "frontend.replica_read_ratio": _ratio(
            replica_reads, replica_reads + primary_reads),
        "frontend.primary_fallbacks": primary_reads,
        "frontend.lsn_wait_p99_ms": _p(
            probe.new_samples("frontend.fleet_lsn_wait"), 99, 1e3),
        "frontend.shed": total(d, "frontend.shedding.rejects")
        + total_matching(d, "frontend.mux.shed.", ""),
        "frontend.mux_binds": total(d, "frontend.mux.binds"),
        "frontend.tenant_wait_p99_ms.gold": _p(
            probe.new_samples("frontend.tenant.gold.wait"), 99, 1e3),
        "frontend.tenant_wait_p99_ms.silver": _p(
            probe.new_samples("frontend.tenant.silver.wait"), 99, 1e3),
        "frontend.tenant_wait_p99_ms.bronze": _p(
            probe.new_samples("frontend.tenant.bronze.wait"), 99, 1e3),
        "views.served_ratio": _ratio(served, served + bounced),
        "views.records_folded": total(d, "views.maintainer.records_folded"),
        "views.rescans": total(d, "views.maintainer.rescans"),
        "shard.two_phase_ratio": _ratio(
            two_phase, single + two_phase + read_only),
        "shard.in_doubt_unresolved": extra.get("in_doubt_unresolved", 0),
        "shard.deadlock_victims": total(
            d, "shard.deadlock_detector.victims_aborted"),
    }


def layer_times(tracer: Tracer, host_s: float, untraced_host_s: float
                ) -> Dict[str, float]:
    """The per-layer metrics that come from the spans of a traced phase."""
    calls = tracer.calls

    def host(counter: str) -> float:
        span = tracer.counted.get(counter)
        return span.host_self if span is not None else 0.0

    out = {
        "%s.host_self_s" % layer: tracer.layer_self.get(layer, 0.0)
        for layer in LAYERS
    }
    out.update({
        "engine.codec_calls": calls.get("codec", 0),
        "engine.codec_host_s": host("codec"),
        "query.parse_host_s": host("parse"),
        "query.plan_host_s": host("plan"),
        "query.stmt_cache_hit_ratio": _ratio(
            calls.get("cache_hits", 0), calls.get("cache_lookups", 0)),
        "views.wait_p99_ms": _p(
            tracer.virt_durations("ViewMaintainer.wait_for_lsn"), 99, 1e3),
        "shard.commit_p99_ms": _p(
            tracer.virt_durations("Coordinator.commit"), 99, 1e3),
        "trace.host_s": host_s,
        "trace.overhead_ratio": (
            host_s / untraced_host_s if untraced_host_s else 0.0),
    })
    return out
