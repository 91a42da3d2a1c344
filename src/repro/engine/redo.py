"""The one REDO consumer: feed, poll loop, crash/recover, page rebuild.

Standby replicas (:mod:`repro.engine.standby`) and materialized views
(:mod:`repro.views.maintainer`) both follow the primary's durable REDO
stream.  :class:`RedoConsumer` owns what they share: the subscription
and poll loop (drain, dedup, epoch-checked CPU charge), the
crash/recover lifecycle, and the one catch-up - a fuzzy page rebuild -
for every gap the feed cannot cover: a late subscription, an overflow,
a crash, or a plug-in's request (a view's first build or decode miss).
A consumer that subscribes before any REDO is durable starts with a
live feed instead.

Plug-ins (subclasses) supply :meth:`RedoConsumer.apply` for a drained
batch and the rebuild's image steps (``new_image``, ``absorb`` one page,
``install``), and set the CPU charged per record and per page.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..common import MS, US, PageId, StorageError
from .wal import RedoRecord

__all__ = ["RedoConsumer", "RedoFeed", "feed_stats"]


class RedoFeed:
    """One subscriber's incremental REDO queue (host-side, bounded).

    Group commit publishes each durable batch once into every feed
    (:meth:`repro.engine.dbengine.DBEngine.subscribe_redo`).  ``stale``
    means the queue no longer covers the subscriber's gap - set on
    subscription, after an overflow, and by a crash - and tells the
    consumer to rebuild before going incremental again.  Publishing
    skips stale feeds (the rebuild reads everything durable anyway), so
    a dead subscriber costs nothing and the queue never grows past
    ``bound``.

    All of this is plain Python bookkeeping: no events, no virtual time.
    """

    __slots__ = ("bound", "stale", "published", "overflows", "_queue")

    def __init__(self, bound: int = 65536):
        self.bound = bound
        self.stale = True
        self.published = 0
        self.overflows = 0
        self._queue: List[RedoRecord] = []

    def __len__(self) -> int:
        return len(self._queue)

    def publish(self, records: List[RedoRecord]) -> None:
        """Queue one durable, LSN-ordered batch (markers included)."""
        if self.stale:
            return
        if len(self._queue) + len(records) > self.bound:
            # Subscriber fell too far behind: drop the queue and force a
            # rebuild rather than buffering unboundedly.
            self.stale = True
            self._queue = []
            self.overflows += 1
            return
        self._queue.extend(records)
        self.published += len(records)

    def clear(self) -> None:
        self._queue = []

    def drain(self) -> List[RedoRecord]:
        """Take every queued record."""
        batch = self._queue
        self._queue = []
        return batch


def feed_stats(feeds: Iterable[RedoFeed]) -> Dict[str, int]:
    """Aggregate subscriber feed pressure (deployment gauges).

    ``depth`` is the total queued backlog; ``overflows`` counts queue
    drops, each of which cost its subscriber one rebuild.
    """
    feeds = list(feeds)
    return {
        "subscribers": len(feeds),
        "depth": sum(len(feed) for feed in feeds),
        "published": sum(feed.published for feed in feeds),
        "overflows": sum(feed.overflows for feed in feeds),
        "stale": sum(1 for feed in feeds if feed.stale),
    }


class RedoConsumer:
    """Base class of everything that follows the primary's REDO stream."""

    #: CPU charged per REDO record applied, and per row of a rebuilt page.
    record_cpu = 3 * US
    #: Fixed CPU charged per rebuilt page.
    page_cpu = 0.0

    def __init__(self, env, primary, cpu):
        self.env = env
        self.primary = primary
        self.cpu = cpu
        self.feed = None
        self.poll_interval = 2 * MS
        #: Every record with LSN <= this is reflected in the state.
        self.applied_lsn = 0
        #: Set by a plug-in (or a failed rebuild) to ask for a rebuild.
        self.needs_rebuild = False
        #: False after :meth:`crash` until :meth:`recover` completes.
        self.alive = True
        #: Bumped by every crash; in-flight applies, rebuild pages and
        #: readers that straddle a crash observe it and discard.
        self.epoch = 0
        self.crashes = 0
        self.recoveries = 0
        #: Rebuild passes started; with the epoch, it tells a rebuild
        #: whether a crash or a newer rebuild has superseded it.
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Plug-in interface
    # ------------------------------------------------------------------
    def apply(self, batch: List[RedoRecord]) -> None:
        """Host-side: apply one LSN-ordered durable batch."""
        raise NotImplementedError

    def rebuild_tables(self):
        """The primary tables whose pages a rebuild scans."""
        raise NotImplementedError

    def new_image(self):
        """A fresh, empty rebuild image."""
        raise NotImplementedError

    def absorb(self, image, table, page) -> None:
        """Fold one page image of primary ``table`` into ``image``."""
        raise NotImplementedError

    def install(self, image) -> None:
        """Make ``image`` the live state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Subscription and the poll loop
    # ------------------------------------------------------------------
    def start(self, poll_interval: float = 2 * MS, bound: int = 65536,
              name: str = "redo-apply") -> None:
        """Subscribe to the primary's durable REDO stream."""
        if self.feed is not None:
            return
        self.poll_interval = poll_interval
        self.feed = self.primary.subscribe_redo(bound=bound)
        if not self.needs_rebuild and self.primary.log.persistent_lsn == 0:
            self.feed.stale = False  # Nothing durable yet: nothing to miss.
        self.env.process(self._poll_loop(), name=name)

    def _poll_loop(self):
        while True:
            yield self.env.timeout(self.poll_interval)
            if not self.alive:
                continue
            feed = self.feed
            if self.needs_rebuild or feed.stale:
                yield from self.rebuild()
                continue
            batch = feed.drain()
            applied = self.applied_lsn
            if batch and batch[0].lsn <= applied:
                # A rebuild already covered these records.
                batch = [r for r in batch if r.lsn > applied]
            if not batch:
                continue
            epoch = self.epoch
            yield from self.cpu.consume(self.record_cpu * len(batch))
            if self.epoch != epoch:
                continue  # Crashed while charging: the target state is gone.
            self.apply(batch)

    def caught_up(self) -> bool:
        """True when live and applied up to the primary's durable tail."""
        feed = self.feed
        return (
            self.alive
            and feed is not None
            and not feed.stale
            and not self.needs_rebuild
            and not len(feed)
            and self.applied_lsn >= self.primary.log.persistent_lsn
        )

    @property
    def lag_lsn(self) -> int:
        """How far the consumer trails the primary's durable tail."""
        return max(0, self.primary.log.persistent_lsn - self.applied_lsn)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail: all volatile state is lost.

        Always bumps the epoch - also while a recovery is in flight, so
        that recovery's rebuild sees the crash and gives up.
        """
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        if self.feed is not None:
            # The queue no longer matches the (lost) applied state; the
            # publisher skips the feed until the next rebuild.
            self.feed.stale = True
            self.feed.clear()
        self.applied_lsn = 0
        self.install(self.new_image())

    def recover(self):
        """Generator: rebuild, then come back alive.

        Returns False, still down, when a crash or a storage outage cut
        the rebuild short.
        """
        if self.alive:
            return True
        if not (yield from self.rebuild()):
            return False
        self.alive = True
        self.recoveries += 1
        return True

    # ------------------------------------------------------------------
    # The catch-up: a fuzzy page rebuild
    # ------------------------------------------------------------------
    def rebuild(self):
        """Generator: rebuild the state from the primary's pages.

        Clears the feed and marks it live *in the same host step* that
        captures the durable tail, so every record that becomes durable
        later reaches the feed.  Each page is then read at its
        authoritative version (a record durable at the tail was applied
        to the primary's page before it became durable), folded into a
        fresh image, and the image is installed at the tail.  Feed
        records a scanned image already holds are skipped by page LSN.
        Returns True once installed; False if a crash or a newer
        rebuild (an overlapping :meth:`recover`) superseded this one, or
        storage could not serve a page (the old state keeps serving and
        the poll loop retries).
        """
        primary = self.primary
        while True:
            feed = self.feed
            feed.clear()
            feed.stale = False
            self.needs_rebuild = False
            tail = primary.log.persistent_lsn
            self.rebuilds += 1
            stamp = (self.epoch, self.rebuilds)
            image = self.new_image()
            for table in self.rebuild_tables():
                for page_no in sorted(table.page_nos):
                    page_id = PageId(table.space_no, page_no)
                    try:
                        page = yield from self._read_fresh(
                            page_id, primary.page_versions.get(page_id, 0)
                        )
                    except StorageError:
                        if stamp == (self.epoch, self.rebuilds):
                            self.needs_rebuild = True
                        return False
                    yield from self.cpu.consume(
                        self.page_cpu
                        + self.record_cpu * max(1, page.row_count)
                    )
                    if stamp != (self.epoch, self.rebuilds):
                        return False
                    self.absorb(image, table, page)
            if feed.stale:
                continue  # Overflowed again while scanning; go around.
            self.install(image)
            self.applied_lsn = tail
            return True

    def _read_fresh(self, page_id: PageId, required: int):
        """Generator: ``page_id`` at LSN >= ``required``, or StorageError.

        PageStore can serve an image *behind* ``required`` while the
        covering REDO still sits in the primary's ship queue (only a
        replica with parked records raises).  The rebuild just cleared
        its feed, so it cannot wait for the gap there: force a ship and
        retry until the image is fresh.
        """
        primary = self.primary
        attempts = 0
        while True:
            page = yield from primary._read_from_pagestore(page_id, required)
            if page.page_lsn >= required:
                return page
            attempts += 1
            if attempts > 8:
                raise StorageError(
                    "page %s stuck at %d, need %d"
                    % (page_id, page.page_lsn, required)
                )
            yield from primary._ship_now()
            yield self.env.timeout(0.5 * MS)
