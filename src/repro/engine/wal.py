"""Write-ahead logging: REDO records, LSN allocation, and the log buffer.

veDB uses ARIES-style REDO with the log-is-database twist: REDO records are
the *only* thing the engine persists.  Records carry page-level operations
(:class:`~repro.engine.page.PageOp`); LSNs are byte offsets in a single
conceptual log stream, allocated here.

The :class:`LogBuffer` implements group commit: transactions deposit their
records and wait; a single log-writer process drains the buffer, performs
one storage write for the whole batch, and wakes every waiter.  Group
commit is what couples storage write latency to transaction throughput -
the faster AStore completes a flush, the more batches per second, the lower
the commit latency under load.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..common import PageId, slotted_dataclass
from ..sim.core import Environment, Event
from .page import PageOp

__all__ = ["RedoRecord", "LsnAllocator", "LogBuffer", "encode_records_size"]


@slotted_dataclass
class RedoRecord:
    """One page-level REDO record.

    ``txn_id`` groups records for undo decisions; ``back_link`` is the LSN
    of the previous record *of the same PageStore segment* - the paper's
    mechanism for PageStore replicas to detect gaps and gossip.

    ``undo_row`` is the before image for update/delete records: the engine
    logs immediately (ARIES steal/no-force), so crash recovery must be able
    to roll back loser transactions whose records persisted.
    """

    lsn: int
    txn_id: int
    page_id: PageId
    op: PageOp
    back_link: int = -1
    commit: bool = False  # commit marker record
    abort: bool = False  # abort marker (rollback fully compensated)
    clr: bool = False  # compensation record written by rollback
    #: For CLRs: the LSN of the original record this compensates.
    compensates: int = -1
    undo_row: Optional[bytes] = None
    #: Two-phase commit markers.  A prepare marker makes a participant's
    #: vote durable (its data records are flushed no later than the marker,
    #: FIFO group commit); a decision marker is the coordinator's durable
    #: commit decision for a global transaction.  Both carry the global
    #: transaction id so recovery can match in-doubt participants against
    #: decisions.
    prepare: bool = False
    decision: bool = False
    gtid: Optional[str] = None

    @property
    def is_marker(self) -> bool:
        """Markers live in the log only; PageStore never applies them."""
        return self.commit or self.abort or self.prepare or self.decision

    @property
    def log_bytes(self) -> int:
        undo = len(self.undo_row) if self.undo_row is not None else 0
        return self.op.log_bytes + undo + 24  # lsn + txn + backlink framing


def encode_records_size(records: List[RedoRecord]) -> int:
    """Total serialized size of a record batch."""
    return sum(record.log_bytes for record in records)


class LsnAllocator:
    """Monotonic LSN source; LSNs are byte offsets in the log stream."""

    def __init__(self, start: int = 1):
        self._next = start

    @property
    def current(self) -> int:
        return self._next

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of log space; returns the record's LSN."""
        lsn = self._next
        self._next += max(nbytes, 1)
        return lsn

    def advance_to(self, lsn: int) -> None:
        """Recovery: resume allocation after the recovered tail."""
        if lsn >= self._next:
            self._next = lsn + 1


class LogBuffer:
    """Group-commit staging area in front of the log store.

    ``flush_fn(records, nbytes)`` is a generator performing the durable
    write (either LogStore.append or SegmentRing.append); the writer
    process batches whatever accumulated while the previous flush was in
    flight - classic group commit, no timers needed.
    """

    def __init__(
        self,
        env: Environment,
        flush_fn: Callable[[List[RedoRecord], int], Any],
        max_batch_bytes: int = 1024 * 1024,
    ):
        self.env = env
        self.flush_fn = flush_fn
        self.max_batch_bytes = max_batch_bytes
        self._pending: Deque[Tuple[RedoRecord, Optional[Event]]] = deque()
        self._wakeup: Optional[Event] = None
        self.persistent_lsn = 0
        self.flushes = 0
        self.records_flushed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, records: List[RedoRecord], wait: bool = True) -> Optional[Event]:
        """Queue records; returns an Event that fires once durable.

        With ``wait=False`` the records ride along with the next flush but
        nobody blocks on them (non-commit records inside a transaction).
        """
        if not records:
            raise ValueError("empty record batch")
        done = Event(self.env) if wait else None
        for index, record in enumerate(records):
            is_last = index == len(records) - 1
            self._pending.append((record, done if (wait and is_last) else None))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return done

    # ------------------------------------------------------------------
    # Log-writer process
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the single log-writer daemon."""
        if self._running:
            return
        self._running = True
        self.env.process(self._writer_loop(), name="log-writer")

    def _writer_loop(self):
        while True:
            if not self._pending:
                self._wakeup = Event(self.env)
                yield self._wakeup
                self._wakeup = None
            batch: List[Tuple[RedoRecord, Optional[Event]]] = []
            batch_bytes = 0
            while self._pending and batch_bytes < self.max_batch_bytes:
                record, done = self._pending.popleft()
                batch.append((record, done))
                batch_bytes += record.log_bytes
            records = [record for record, _ in batch]
            yield from self.flush_fn(records, batch_bytes)
            self.flushes += 1
            self.records_flushed += len(records)
            self.persistent_lsn = max(self.persistent_lsn, records[-1].lsn)
            for _, done in batch:
                if done is not None and not done.triggered:
                    done.succeed(self.persistent_lsn)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)
