"""The view maintainer: REDO feed -> deltas -> materialized view state.

One ``ViewMaintainer`` daemon owns every registered view.  Per view it
subscribes one ``RedoFeed`` on the primary, decodes each durable
REDO record into +-1 Z-set deltas, and folds them into the view's state
(group key -> weighted aggregate states, or a plain Z-set for
projection views), stamped with an applied-LSN **watermark**: the state
is exactly the view query's answer over all records with LSN <= the
watermark.

Decode needs before-images.  Ordinary updates/deletes log their
``undo_row``; the one exception is the CLR delete that compensates an
aborted insert, which only names the insert's LSN (``compensates``).
The maintainer therefore remembers insert images per LSN until the
owning transaction's commit/abort marker, and resolves CLR deletes
through that map.  Anything unresolvable flips ``needs_rebuild``.

Each ``MaintainedView`` is a :class:`repro.engine.redo.RedoConsumer`
plug-in: the consumer owns the feed, the poll loop, the crash/recover
lifecycle and the one catch-up, a fuzzy page rebuild (first build, feed
overflow, crash recovery, decode miss).  The view supplies the fold of a
drained batch and the per-page absorb step of the rebuild, which records
each scanned page's LSN in ``page_seen`` so feed records already
reflected in a scanned image are skipped (ARIES redo check).

Serving is O(result): finalize the per-group states (or expand the
Z-set), shape to the querying statement's items, apply its ORDER
BY/LIMIT with the executor's own comparators, and return a
``QueryResult`` byte-identical to a fresh executor rescan at the same
LSN.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..common import MS, US, PageId, QueryError
from ..engine.redo import RedoConsumer
from ..query.aggstate import finalize_groups, new_states, update_states
from ..query.ast import ColumnRef, Select
from ..query.executor import (
    PAGE_CPU,
    ROW_CPU,
    project_row,
    shape_result,
)
from ..query.planner import match_view_select
from ..sim.core import Environment
from ..sim.resources import CpuPool
from .definition import ViewDefinition
from .zset import ZSet

__all__ = ["MaintainedView", "ViewMaintainer"]

#: CPU charged per REDO record decoded + folded.
FOLD_CPU = 3 * US
#: Fixed CPU charged per view-served query (shape + dispatch).
SERVE_CPU = 4 * US


def _qualified(table, values) -> Dict[str, Any]:
    """One decoded base row keyed by qualified column name."""
    return {
        "%s.%s" % (table.name, name): value
        for name, value in zip(table.schema.names, values)
    }


def _fold_row(definition: ViewDefinition, groups, zset: ZSet,
              row: Dict[str, Any], weight: int) -> bool:
    """Fold one weighted base row into view state; False if filtered out."""
    if definition.where is not None and not definition.where.eval(row):
        return False
    if definition.is_aggregate:
        key = tuple(expr.eval(row) for expr in definition.group_by)
        entry = groups.get(key)
        if entry is None:
            entry = [0, new_states(definition.aggregates)]
            groups[key] = entry
        entry[0] += weight
        update_states(entry[1], definition.aggregates, row, weight)
        if entry[0] == 0:
            # Annihilation: the group has no surviving base rows.
            del groups[key]
    else:
        zset.add(
            tuple(item.expr.eval(row) for item in definition.items), weight
        )
    return True


class MaintainedView(RedoConsumer):
    """One view's live state: a REDO consumer folding deltas."""

    record_cpu = FOLD_CPU
    page_cpu = PAGE_CPU

    def __init__(self, env: Environment, engine, cpu: CpuPool,
                 definition: ViewDefinition):
        super().__init__(env, engine, cpu)
        self.definition = definition
        self.records_folded = 0
        self.deltas_applied = 0
        self.serves = 0
        self.decode_misses = 0
        # The first build is a rebuild even on a fresh primary.
        self.needs_rebuild = True
        self.install(self.new_image())

    @property
    def size(self) -> int:
        return len(self.groups) if self.definition.is_aggregate else len(self.zset)

    def stats(self) -> Dict[str, int]:
        feed = self.feed
        return {
            "watermark": self.applied_lsn,
            "size": self.size,
            "records_folded": self.records_folded,
            "deltas_applied": self.deltas_applied,
            "rescans": self.rebuilds,
            "serves": self.serves,
            "decode_misses": self.decode_misses,
            "feed_depth": len(feed) if feed is not None else 0,
            "feed_overflows": feed.overflows if feed is not None else 0,
        }

    # ------------------------------------------------------------------
    # RedoConsumer plug-in: the rebuild image
    # ------------------------------------------------------------------
    def rebuild_tables(self):
        try:
            return [self.primary.catalog.table(self.definition.table)]
        except QueryError:
            return []  # Not created yet: the view starts empty.

    def new_image(self):
        """(groups, zset, page_seen), all empty."""
        return OrderedDict(), ZSet(), {}

    def absorb(self, image, table, page) -> None:
        groups, zset, page_seen = image
        page_seen[page.page_id] = page.page_lsn
        for _slot, raw in page.slots():
            row = _qualified(table, table.schema.decode(raw))
            _fold_row(self.definition, groups, zset, row, 1)

    def install(self, image) -> None:
        groups, zset, page_seen = image
        #: group key -> [surviving row weight, per-aggregate states].
        self.groups: "OrderedDict[tuple, list]" = groups
        self.zset = zset
        #: page -> page-LSN captured by the last rebuild; feed records
        #: at or below it are already in the scanned image.
        self.page_seen: Dict[PageId, int] = page_seen
        self.page_seen_max = max(page_seen.values()) if page_seen else 0
        #: insert LSN -> row image, for resolving insert-compensating
        #: CLR deletes (the only records without a logged before-image).
        self.undo_images: Dict[int, bytes] = {}
        self.txn_lsns: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # RedoConsumer plug-in: folding a drained batch
    # ------------------------------------------------------------------
    def apply(self, batch) -> None:
        """Host-side: decode and fold one LSN-ordered durable batch.

        The watermark (``applied_lsn``) only advances past records
        actually folded (or provably irrelevant), so on a decode miss
        the state still equals the fold of everything <= the watermark
        and serving stays sound while the rebuild is pending.
        """
        catalog = self.primary.catalog
        definition = self.definition
        for record in batch:
            if record.is_marker:
                self._evict_images(record)
                self.applied_lsn = max(self.applied_lsn, record.lsn)
                continue
            op = record.op
            if op.kind == "format":
                self.applied_lsn = max(self.applied_lsn, record.lsn)
                continue
            try:
                table = catalog.by_space(record.page_id.space_no)
            except QueryError:
                table = None
            if table is None or table.name != definition.table:
                self.applied_lsn = max(self.applied_lsn, record.lsn)
                continue
            if (
                self.page_seen
                and record.lsn <= self.page_seen.get(record.page_id, 0)
            ):
                # Rebuild overlap: the scanned image already holds this
                # record's effect.  Still remember insert images — a
                # post-rebuild CLR delete may compensate this insert.
                if op.kind == "insert":
                    self._remember(record)
                self.applied_lsn = max(self.applied_lsn, record.lsn)
                continue
            deltas = self._deltas_of(table, record)
            if deltas is None:
                self.decode_misses += 1
                self.needs_rebuild = True
                return
            for values, weight in deltas:
                row = _qualified(table, values)
                if _fold_row(definition, self.groups, self.zset, row, weight):
                    self.deltas_applied += 1
            self.records_folded += 1
            self.applied_lsn = max(self.applied_lsn, record.lsn)
        if self.page_seen and self.applied_lsn >= self.page_seen_max:
            # Every in-flight record from the rebuild window has drained.
            self.page_seen.clear()

    def _deltas_of(self, table, record):
        """(decoded values, weight) deltas for one record; None = miss."""
        op = record.op
        decode = table.schema.decode
        if op.kind == "insert":
            self._remember(record)
            return [(decode(op.row), 1)]
        if op.kind == "update":
            old_row = record.undo_row
            if old_row is None:
                old_row = self._recall(record)
                if old_row is None:
                    return None
            return [(decode(old_row), -1), (decode(op.row), 1)]
        if op.kind == "delete":
            old_row = record.undo_row
            if old_row is None:
                old_row = self._recall(record)
                if old_row is None:
                    return None
            return [(decode(old_row), -1)]
        return []

    def _remember(self, record) -> None:
        self.undo_images[record.lsn] = record.op.row
        self.txn_lsns.setdefault(record.txn_id, []).append(record.lsn)

    def _recall(self, record) -> Optional[bytes]:
        if record.clr and record.compensates >= 0:
            return self.undo_images.get(record.compensates)
        return None

    def _evict_images(self, marker) -> None:
        lsns = self.txn_lsns.pop(marker.txn_id, None)
        if lsns:
            for lsn in lsns:
                self.undo_images.pop(lsn, None)


class ViewMaintainer:
    """Runs one REDO consumer per view and serves eligible SELECTs."""

    def __init__(
        self,
        env: Environment,
        engine,
        definitions,
        feed_bound: int = 65536,
        poll_interval: float = 2 * MS,
        wait_poll: float = 0.5 * MS,
        cores: int = 2,
    ):
        self.env = env
        self.engine = engine
        self.cpu = CpuPool(env, cores=cores)
        self.feed_bound = feed_bound
        self.wait_poll = wait_poll
        self.views: "OrderedDict[str, MaintainedView]" = OrderedDict()
        for definition in definitions:
            if definition.name in self.views:
                raise QueryError("duplicate view name %r" % definition.name)
            self.views[definition.name] = MaintainedView(
                env, engine, self.cpu, definition
            )
        self.poll_interval = poll_interval
        #: False between :meth:`crash` and :meth:`recover`.
        self.alive = True
        self.crashes = 0
        self.recoveries = 0
        self.lsn_waits = 0
        self.lsn_wait_timeouts = 0
        self._started = False

    @property
    def poll_interval(self) -> float:
        return self._poll_interval

    @poll_interval.setter
    def poll_interval(self, value: float) -> None:
        """Every view's poll cadence (an operator may stall them all)."""
        self._poll_interval = value
        for view in self.views.values():
            view.poll_interval = value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for view in self.views.values():
            view.start(self.poll_interval, bound=self.feed_bound,
                       name="view-%s" % view.definition.name)

    def crash(self) -> None:
        """Lose all volatile view state (the standby crash model)."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        for view in self.views.values():
            view.crash()

    def recover(self) -> None:
        """Come back up: every view rebuilds, then rejoins its feed."""
        if self.alive:
            return
        self.alive = True
        self.recoveries += 1
        for view in self.views.values():
            self.env.process(
                view.recover(), name="view-%s-recover" % view.definition.name
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def match(
        self, statement
    ) -> Optional[Tuple[MaintainedView, List[int]]]:
        """The view (plus item mapping) able to answer ``statement``."""
        if not isinstance(statement, Select):
            return None
        for view in self.views.values():
            definition = view.definition
            mapping = match_view_select(statement, definition.select)
            if mapping is None:
                continue
            if not definition.is_aggregate and statement.order_by:
                # Projection views materialize item tuples only: ORDER BY
                # must name a ColumnRef the view stores.
                stored = [
                    item.expr
                    for item in definition.items
                    if isinstance(item.expr, ColumnRef)
                ]
                if not all(
                    isinstance(expr, ColumnRef) and expr in stored
                    for expr, _desc in statement.order_by
                ):
                    continue
            return view, mapping
        return None

    def wait_for_lsn(self, view: MaintainedView, lsn: int, max_wait: float):
        """Generator: True once the view watermark covers ``lsn``."""
        if not view.alive:
            return False
        if view.applied_lsn >= lsn:
            return True
        self.lsn_waits += 1
        deadline = self.env.now + max_wait
        while True:
            yield self.env.timeout(self.wait_poll)
            if view.alive and view.applied_lsn >= lsn:
                return True
            if not view.alive or self.env.now >= deadline:
                self.lsn_wait_timeouts += 1
                return False

    def serve(self, view: MaintainedView, statement: Select,
              item_map: List[int]):
        """Generator: answer ``statement`` from view state, O(result).

        Returns None if a crash lands mid-serve (caller reroutes).
        Output parity with the executor: the same aggregate states and
        finalize step (:mod:`repro.query.aggstate`, including the
        identity row for empty ungrouped aggregates), and the
        executor's own projection, ORDER BY and LIMIT shaping.
        """
        definition = view.definition
        epoch = view.epoch
        units = view.size if view.size else 1
        if statement.order_by:
            import math

            units += units * max(1.0, math.log2(max(units, 2)))
        yield from self.cpu.consume(SERVE_CPU + ROW_CPU * units)
        if not view.alive or view.epoch != epoch:
            return None
        columns = [item.output_name for item in statement.items]
        if definition.is_aggregate:
            names = [group_expr.key for group_expr in definition.group_by]
            groups = {
                key: (dict(zip(names, key)), entry[1])
                for key, entry in view.groups.items()
            }
            rows = [
                project_row(statement.items, columns, row)
                for row in finalize_groups(
                    groups, definition.aggregates, bool(definition.group_by)
                )
            ]
        else:
            rows = []
            for stored, weight in view.zset.items():
                out = {
                    item.expr.key: stored[index]
                    for index, item in enumerate(definition.items)
                    if isinstance(item.expr, ColumnRef)
                }
                out.update(zip(columns, (stored[i] for i in item_map)))
                rows.extend([out] * weight)
        view.serves += 1
        return shape_result(columns, rows, statement.order_by, statement.limit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def caught_up(self) -> bool:
        """True when every view is live and folded to the durable tail."""
        return self.alive and all(
            view.caught_up() for view in self.views.values()
        )

    def counters(self) -> Dict[str, int]:
        views = self.views.values()
        return {
            "alive": int(self.alive),
            "views": len(self.views),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "lsn_waits": self.lsn_waits,
            "lsn_wait_timeouts": self.lsn_wait_timeouts,
            "records_folded": sum(v.records_folded for v in views),
            "deltas_applied": sum(v.deltas_applied for v in views),
            "rescans": sum(v.rebuilds for v in views),
            "serves": sum(v.serves for v in views),
            "decode_misses": sum(v.decode_misses for v in views),
        }
