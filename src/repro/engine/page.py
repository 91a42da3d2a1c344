"""Slotted data pages and the page-level REDO operations.

veDB follows the log-is-database principle: the DBEngine never ships whole
pages to storage; it ships REDO records describing page mutations, and
PageStore replays them.  Correctness therefore hinges on one function -
:func:`apply_op` - being used identically by the engine (mutating its
buffer-pool copy) and by PageStore (replaying the log).  The test suite
checks that property directly.

Rows are stored encoded (see :mod:`repro.engine.codec`); a page tracks real
byte occupancy so fill factors and working-set sizes are honest.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, Optional, Tuple

from ..common import PAGE_SIZE, PageId, ReproError, slotted_dataclass

__all__ = ["Page", "PageOp", "apply_op", "PAGE_HEADER_BYTES", "SLOT_OVERHEAD"]

#: Fixed page header: checksum, page LSN, slot directory stub, pointers.
PAGE_HEADER_BYTES = 96
#: Per-slot directory entry overhead.
SLOT_OVERHEAD = 8


class PageFullError(ReproError):
    """The row does not fit in the page's free space."""


@slotted_dataclass
class PageOp:
    """One REDO-logged mutation of a single page.

    ``kind`` is one of ``insert``, ``update``, ``delete``, ``format``.
    ``row`` carries the encoded row bytes for insert/update; ``format``
    (re)initialises an empty page and is emitted on page allocation.
    """

    kind: str
    slot: int = 0
    row: Optional[bytes] = None

    VALID_KINDS = ("insert", "update", "delete", "format")

    def __post_init__(self):
        if self.kind not in self.VALID_KINDS:
            raise ValueError("unknown page op kind %r" % self.kind)
        if self.kind in ("insert", "update") and self.row is None:
            raise ValueError("%s op requires row bytes" % self.kind)

    @property
    def log_bytes(self) -> int:
        """Approximate serialized REDO size of this operation."""
        base = 40  # op header: lsn, page id, kind, slot
        return base + (len(self.row) if self.row is not None else 0)


class Page:
    """A slotted page holding encoded rows.

    Slots are small integers assigned by the page; deleting a slot frees
    its bytes.  ``page_lsn`` records the LSN of the last applied mutation,
    which is what the EBP index and PageStore use for staleness checks.
    """

    def __init__(self, page_id: PageId, size: int = PAGE_SIZE):
        if size <= PAGE_HEADER_BYTES:
            raise ValueError("page size too small")
        self.page_id = page_id
        self.size = size
        self.page_lsn = 0
        self._rows: Dict[int, bytes] = {}
        self._next_slot = 0
        self._used = PAGE_HEADER_BYTES

    # -- occupancy ----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.size - self._used

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def fits(self, row: bytes) -> bool:
        return len(row) + SLOT_OVERHEAD <= self.free_bytes

    # -- row access -----------------------------------------------------------
    def get(self, slot: int) -> bytes:
        try:
            return self._rows[slot]
        except KeyError:
            raise KeyError("page %s has no slot %d" % (self.page_id, slot))

    def slots(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate (slot, row) in slot order."""
        for slot in sorted(self._rows):
            yield slot, self._rows[slot]

    # -- mutations (used only through apply_op) -------------------------------
    def _insert(self, slot: int, row: bytes) -> None:
        if slot in self._rows:
            raise ReproError("slot %d already occupied" % slot)
        need = len(row) + SLOT_OVERHEAD
        if need > self.free_bytes:
            raise PageFullError(
                "row of %d bytes does not fit (%d free)" % (len(row), self.free_bytes)
            )
        self._rows[slot] = row
        self._used += need
        if slot >= self._next_slot:
            self._next_slot = slot + 1

    def _update(self, slot: int, row: bytes) -> None:
        old = self._rows.get(slot)
        if old is None:
            raise ReproError("update of empty slot %d" % slot)
        delta = len(row) - len(old)
        if delta > self.free_bytes:
            raise PageFullError("updated row does not fit")
        self._rows[slot] = row
        self._used += delta

    def _delete(self, slot: int) -> None:
        old = self._rows.pop(slot, None)
        if old is None:
            raise ReproError("delete of empty slot %d" % slot)
        self._used -= len(old) + SLOT_OVERHEAD

    def _format(self) -> None:
        self._rows.clear()
        self._next_slot = 0
        self._used = PAGE_HEADER_BYTES

    def allocate_slot(self) -> int:
        """Next slot an insert would use (engine-side helper)."""
        return self._next_slot

    # -- copying ---------------------------------------------------------------
    def clone(self) -> "Page":
        """Deep copy - used when shipping a page image across components."""
        other = Page(self.page_id, self.size)
        other.page_lsn = self.page_lsn
        other._rows = dict(self._rows)
        other._next_slot = self._next_slot
        other._used = self._used
        return other

    def same_content(self, other: "Page") -> bool:
        return (
            self.page_id == other.page_id
            and self.page_lsn == other.page_lsn
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return "<Page %s lsn=%d rows=%d used=%d/%d>" % (
            self.page_id,
            self.page_lsn,
            self.row_count,
            self.used_bytes,
            self.size,
        )


def apply_op(page: Page, op: PageOp, lsn: int) -> None:
    """Apply a REDO operation to a page, advancing its page LSN.

    Idempotence: an op with ``lsn <= page.page_lsn`` has already been
    applied and is skipped - the standard ARIES page-LSN test, relied on
    when PageStore gossip re-delivers records.
    """
    if lsn <= page.page_lsn:
        return
    if op.kind == "insert":
        page._insert(op.slot, op.row)
    elif op.kind == "update":
        page._update(op.slot, op.row)
    elif op.kind == "delete":
        page._delete(op.slot)
    elif op.kind == "format":
        page._format()
    page.page_lsn = lsn
