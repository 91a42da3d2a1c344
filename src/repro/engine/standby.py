"""Read-only standby instance fed by the REDO stream.

The paper's second future-work item (Section VIII): "expand the usage of
EBP ... it could be used by stand-by instances that serve read-only
queries."  This module implements that standby:

- it is a :class:`repro.engine.redo.RedoConsumer`: it *subscribes to the
  primary's REDO stream* (the same records shipped to PageStore) and
  applies them to its own page images, maintaining its own B+-tree
  indexes incrementally - inserts/updates/deletes carry enough
  information (op row + logged before image) to keep secondary indexes
  correct without re-scanning;
- reads go through its own small DRAM buffer pool, then the *shared* EBP
  (read-only - the standby never writes pages back), then PageStore via
  the primary's graceful-degradation read path (so an AStore outage
  degrades the standby the same way it degrades the primary);
- replication lag is explicit: the standby exposes ``applied_lsn`` and
  reads are snapshot-consistent to that LSN;
- it can *crash* (lose all volatile state) and *recover* through the
  consumer's page rebuild, then rejoin the REDO feed - the serving
  layer's replica fleet drives this cycle under chaos.  The same rebuild
  catches up a standby attached after REDO became durable, or one whose
  feed overflowed; it builds a separate image and installs it in one
  step, so reads never see a half-built standby.

The standby deliberately reuses the primary's catalog *schemas* but keeps
fully independent indexes and page bookkeeping, so a primary crash never
corrupts it.  ``sync_catalog`` mirrors lazily, so a standby built before
the workload's tables exist picks them up on first touch.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..common import US, PageId, QueryError
from ..sim.core import Environment
from ..sim.resources import CpuPool
from ..storage.pagestore import PageStoreService
from .bufferpool import BufferPool
from .ebp import ExtendedBufferPool
from .page import Page, apply_op
from .redo import RedoConsumer
from .table import Catalog, Table
from .wal import RedoRecord

__all__ = ["StandbyReplica"]


class StandbyReplica(RedoConsumer):
    """A read-only compute node trailing the primary's REDO stream."""

    def __init__(
        self,
        env: Environment,
        primary,
        buffer_pool_bytes: int = 16 * 1024 * 1024,
        cores: int = 8,
        use_ebp: bool = True,
    ):
        super().__init__(env, primary, CpuPool(env, cores=cores))
        self.pagestore: PageStoreService = primary.pagestore
        self.ebp: Optional[ExtendedBufferPool] = (
            primary.ebp if use_ebp else None
        )
        self.catalog = Catalog()
        # Standby-local page images, applied from the REDO stream.
        self.pages: Dict[PageId, Page] = {}
        self.records_applied = 0
        self.buffer_pool = BufferPool(buffer_pool_bytes,
                                      page_size=primary.config.page_size)
        self.sync_catalog()

    def sync_catalog(self) -> None:
        """Mirror primary table definitions created since the last sync.

        Schemas are immutable metadata; indexes and page bookkeeping stay
        independent.  Mirroring in creation order keeps tablespace numbers
        aligned, which the REDO feed relies on (records address pages by
        ``space_no``).
        """
        if len(self.catalog) != len(self.primary.catalog):
            self._mirror(self.catalog)

    def _mirror(self, catalog: Catalog) -> None:
        for table in self.primary.catalog.tables():
            if table.name in catalog:
                continue
            mirrored = catalog.create_table(
                table.name, table.schema, table.key_columns, table.priority
            )
            if mirrored.space_no != table.space_no:
                raise QueryError(
                    "standby tablespace drift: %s is space %d on the primary "
                    "but %d here" % (table.name, table.space_no,
                                     mirrored.space_no)
                )
            for name, index in table.secondary.items():
                mirrored.add_secondary_index(name, list(index.columns))

    # ------------------------------------------------------------------
    # RedoConsumer plug-in
    # ------------------------------------------------------------------
    def apply(self, batch) -> None:
        for record in batch:
            self._apply_record(record)

    def rebuild_tables(self):
        return list(self.primary.catalog.tables())

    def new_image(self):
        """(mirrored catalog, page images), both empty."""
        catalog = Catalog()
        self._mirror(catalog)
        return catalog, {}

    def absorb(self, image, table, page) -> None:
        catalog, pages = image
        mirrored = catalog.table(table.name)
        page_no = page.page_id.page_no
        pages[page.page_id] = page
        mirrored.note_page(page_no, page.free_bytes)
        for slot, raw in page.slots():
            values = mirrored.schema.decode(raw)
            if mirrored.lookup(mirrored.key_of(values)) is None:
                mirrored.index_insert(values, (page_no, slot))

    def install(self, image) -> None:
        catalog, pages = image
        # Keep the live Table objects (sessions and planners hold them);
        # take over the rebuilt indexes and page bookkeeping instead.
        self.sync_catalog()
        for table in self.catalog.tables():
            if table.name in catalog:
                table.adopt(catalog.table(table.name))
        self.pages = pages
        self.buffer_pool.clear()

    def _apply_record(self, record: RedoRecord) -> None:
        self.applied_lsn = max(self.applied_lsn, record.lsn)
        self.records_applied += 1
        if record.is_marker:
            return
        page = self.pages.get(record.page_id)
        if page is None:
            page = Page(record.page_id, size=self.primary.config.page_size)
            self.pages[record.page_id] = page
        elif page.page_lsn >= record.lsn:
            # ARIES-style redo check: the page image already reflects this
            # record (a rebuild's page scan included it), so the indexes
            # rebuilt from that image do too - skip maintenance.
            return
        table = self._table_for(record.page_id)
        op = record.op
        # Index maintenance BEFORE mutating the page (we may need the
        # pre-image still stored in the slot).
        if table is not None:
            if op.kind == "insert":
                values = table.schema.decode(op.row)
                if table.lookup(table.key_of(values)) is None:
                    table.index_insert(
                        values, (record.page_id.page_no, op.slot)
                    )
            elif op.kind == "update":
                old_row = record.undo_row
                if old_row is None:
                    try:
                        old_row = page.get(op.slot)
                    except KeyError:
                        old_row = None
                new_values = table.schema.decode(op.row)
                if old_row is not None:
                    old_values = table.schema.decode(old_row)
                    table.index_update(
                        old_values, new_values,
                        (record.page_id.page_no, op.slot),
                    )
            elif op.kind == "delete":
                old_row = record.undo_row
                if old_row is None:
                    try:
                        old_row = page.get(op.slot)
                    except KeyError:
                        old_row = None
                if old_row is not None:
                    old_values = table.schema.decode(old_row)
                    if table.lookup(table.key_of(old_values)) is not None:
                        table.index_delete(old_values)
        apply_op(page, op, record.lsn)
        if table is not None:
            # Keep page bookkeeping live so standby SQL sequential scans
            # see the same page set the primary does.
            table.note_page(record.page_id.page_no, page.free_bytes)
        # Our page image supersedes any buffer-pool copy.
        self.buffer_pool.drop(record.page_id)

    def _table_for(self, page_id: PageId) -> Optional[Table]:
        try:
            return self.catalog.by_space(page_id.space_no)
        except QueryError:
            self.sync_catalog()
        try:
            return self.catalog.by_space(page_id.space_no)
        except QueryError:
            return None

    # ------------------------------------------------------------------
    # Read path (the DBEngine read subset, standby-flavoured)
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: PageId):
        """Generator: local image -> BP -> shared EBP -> PageStore.

        The PageStore leg reuses the primary's graceful-degradation read
        (``DBEngine._read_from_pagestore``): when an EBP miss is caused by
        an AStore server death, the force-ship + retry loop there rides
        out REDO apply lag exactly as it does for the primary, instead of
        failing the standby read.
        """
        local = self.pages.get(page_id)
        if local is not None:
            yield from self.cpu.consume(1 * US)
            return local
        page = self.buffer_pool.get(page_id)
        if page is not None:
            return page
        if self.ebp is not None:
            page = yield from self.ebp.get_page(page_id, 0)
        if page is None:
            page = yield from self.primary._read_from_pagestore(page_id, 0)
        self.buffer_pool.put(page)
        return page

    def peek_page(self, page_id: PageId):
        """Synchronous probe of the local image / buffer pool.

        Returns ``(page, extra_cpu)`` when the page is resident -
        ``extra_cpu`` is the CPU charge :meth:`fetch_page` would have
        made for that tier - else None.  Point-read paths use this to
        coalesce the page charge into their statement charge (one
        ``consume`` per statement instead of two); callers must charge
        ``extra_cpu`` themselves.
        """
        local = self.pages.get(page_id)
        if local is not None:
            return local, 1 * US
        page = self.buffer_pool.get(page_id)
        if page is not None:
            return page, 0.0
        return None

    def read_row(self, table_name: str, key: Tuple[Any, ...]):
        """Generator: snapshot point read at the standby's applied LSN."""
        self.sync_catalog()
        table = self.catalog.table(table_name)
        locator = table.lookup(key)
        if locator is None:
            yield from self.cpu.consume(self.primary.config.stmt_cpu)
            return None
        page_no, slot = locator
        page_id = PageId(table.space_no, page_no)
        # Probe before charging so a resident page's fetch cost folds
        # into the statement's single CPU charge (same total virtual
        # time, half the event-loop trips on the hot path).
        hit = self.peek_page(page_id)
        if hit is not None:
            page, extra = hit
            yield from self.cpu.consume(self.primary.config.stmt_cpu + extra)
        else:
            yield from self.cpu.consume(self.primary.config.stmt_cpu)
            page = yield from self.fetch_page(page_id)
        try:
            return table.schema.decode(page.get(slot))
        except KeyError:
            return None
