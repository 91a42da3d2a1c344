"""Integration tests for the DBEngine: DML, transactions, recovery."""

import pytest

from repro.common import KB, MB, PageId, QueryError, TransactionAborted
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentConfig


def account_schema():
    return Schema(
        [
            Column("id", INT()),
            Column("name", VARCHAR(32)),
            Column("balance", DECIMAL(2)),
        ]
    )


def make_deployment(kind="astore_log", **engine_overrides):
    factory = getattr(DeploymentConfig, kind)
    engine = EngineConfig(**engine_overrides) if engine_overrides else EngineConfig()
    dep = Deployment(factory(engine=engine))
    dep.start()
    dep.engine.create_table("accounts", account_schema(), ["id"])
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def test_insert_commit_read():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [1, "alice", 100.0])
        yield from engine.commit(txn)
        return (yield from engine.read_row(None, "accounts", (1,)))

    assert run(dep, work(dep.env)) == [1, "alice", 100.0]
    assert dep.engine.committed == 1


def test_duplicate_key_rejected():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [1, "a", 1.0])
        yield from engine.insert(txn, "accounts", [1, "b", 2.0])

    with pytest.raises(QueryError, match="duplicate"):
        run(dep, work(dep.env))


def test_update_and_delete():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [1, "a", 1.0])
        yield from engine.insert(txn, "accounts", [2, "b", 2.0])
        yield from engine.commit(txn)
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (1,), {"balance": 42.5})
        yield from engine.delete(txn, "accounts", (2,))
        yield from engine.commit(txn)
        one = yield from engine.read_row(None, "accounts", (1,))
        two = yield from engine.read_row(None, "accounts", (2,))
        return one, two

    one, two = run(dep, work(dep.env))
    assert one == [1, "a", 42.5]
    assert two is None


def test_update_missing_row_raises():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (99,), {"balance": 1.0})

    with pytest.raises(QueryError):
        run(dep, work(dep.env))


def test_rollback_restores_everything():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        setup = engine.begin()
        yield from engine.insert(setup, "accounts", [1, "a", 10.0])
        yield from engine.commit(setup)
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [2, "b", 20.0])
        yield from engine.update(txn, "accounts", (1,), {"balance": 999.0})
        yield from engine.delete(txn, "accounts", (1,))
        yield from engine.rollback(txn)
        one = yield from engine.read_row(None, "accounts", (1,))
        two = yield from engine.read_row(None, "accounts", (2,))
        return one, two

    one, two = run(dep, work(dep.env))
    assert one == [1, "a", 10.0]
    assert two is None
    assert dep.engine.aborted == 1


def test_row_lock_serializes_writers():
    dep = make_deployment()
    engine = dep.engine
    order = []

    def setup(env):
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [1, "hot", 0.0])
        yield from engine.commit(txn)

    run(dep, setup(dep.env))

    def writer(env, name, hold):
        txn = engine.begin()
        row = yield from engine.read_row(txn, "accounts", (1,), for_update=True)
        order.append(("start", name))
        yield env.timeout(hold)
        yield from engine.update(
            txn, "accounts", (1,), {"balance": row[2] + 1.0}
        )
        yield from engine.commit(txn)
        order.append(("done", name))

    p1 = dep.env.process(writer(dep.env, "t1", 0.01))
    p2 = dep.env.process(writer(dep.env, "t2", 0.01))
    from repro.sim.core import AllOf

    dep.env.run_until_event(AllOf(dep.env, [p1, p2]))
    assert order[0] == ("start", "t1")
    assert order[1] == ("done", "t1")  # t2 could not start until t1 finished

    def check(env):
        return (yield from engine.read_row(None, "accounts", (1,)))

    assert run(dep, check(dep.env))[2] == 2.0  # both increments applied


def test_deadlock_detected_and_victim_aborted():
    dep = make_deployment()
    engine = dep.engine

    def setup(env):
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [1, "a", 0.0])
        yield from engine.insert(txn, "accounts", [2, "b", 0.0])
        yield from engine.commit(txn)

    run(dep, setup(dep.env))
    outcomes = []

    def clasher(env, first, second, delay):
        txn = engine.begin()
        try:
            yield from engine.read_row(txn, "accounts", (first,), for_update=True)
            yield env.timeout(delay)
            yield from engine.read_row(txn, "accounts", (second,), for_update=True)
            yield from engine.commit(txn)
            outcomes.append("committed")
        except TransactionAborted:
            yield from engine.rollback(txn)
            outcomes.append("aborted")

    p1 = dep.env.process(clasher(dep.env, 1, 2, 0.01))
    p2 = dep.env.process(clasher(dep.env, 2, 1, 0.01))
    from repro.sim.core import AllOf

    dep.env.run_until_event(AllOf(dep.env, [p1, p2]))
    assert sorted(outcomes) == ["aborted", "committed"]
    assert engine.locks.deadlocks == 1


def test_lock_table_holds_only_keys_in_use():
    dep = make_deployment(lock_wait_timeout=0.01)
    engine = dep.engine
    locks = engine.locks

    def in_use(key):
        lock = locks._locks[key]
        return lock.count > 0 or lock.queue_length > 0

    def setup(env):
        txn = engine.begin()
        for i in range(5):
            yield from engine.insert(txn, "accounts", [i, "u%d" % i, 0.0])
        yield from engine.commit(txn)
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (1,), {"balance": 1.0})
        yield from engine.rollback(txn)

    run(dep, setup(dep.env))
    assert locks._locks == {}  # after commit and rollback

    seen = []

    def holder(env):
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (2,), {"balance": 2.0})
        yield env.timeout(0.05)
        seen.extend((key, in_use(key)) for key in locks._locks)
        yield from engine.commit(txn)

    def waiter(env):
        yield env.timeout(0.001)
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (3,), {"balance": 3.0})
        try:
            yield from engine.update(txn, "accounts", (2,), {"balance": 9.0})
        except TransactionAborted:
            yield from engine.rollback(txn)

    from repro.sim.core import AllOf

    procs = [dep.env.process(holder(dep.env)),
             dep.env.process(waiter(dep.env))]
    dep.env.run_until_event(AllOf(dep.env, procs))
    assert locks.timeouts == 1
    # After the waiter's timeout only the holder's row is left, held.
    assert len(seen) == 1 and seen[0][1]
    assert locks._locks == {}


def test_pages_flow_to_pagestore():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        for i in range(50):
            yield from engine.insert(txn, "accounts", [i, "user", float(i)])
        yield from engine.commit(txn)
        yield env.timeout(0.05)  # let the shipper run

    run(dep, work(dep.env))
    table = engine.catalog.table("accounts")
    pages = dep.pagestore.pages_of_space(table.space_no)
    total_rows = sum(page.row_count for page in pages)
    assert total_rows == 50


def test_crash_recovery_committed_data_survives():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        for i in range(30):
            yield from engine.insert(txn, "accounts", [i, "u%d" % i, float(i)])
        yield from engine.commit(txn)
        txn = engine.begin()
        yield from engine.update(txn, "accounts", (5,), {"balance": 5555.0})
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    engine.crash()
    assert engine.catalog.table("accounts").row_count == 0  # indexes gone

    def recovery(env):
        stats = yield from engine.recover()
        row = yield from engine.read_row(None, "accounts", (5,))
        return stats, row

    stats, row = run(dep, recovery(dep.env))
    assert row == [5, "u5", 5555.0]
    assert engine.catalog.table("accounts").row_count == 30
    assert stats["committed_txns"] >= 2


def test_crash_recovery_uncommitted_txn_rolled_back():
    dep = make_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "accounts", [1, "committed", 1.0])
        yield from engine.commit(txn)
        # In-flight transaction: logged (immediate logging) but no marker.
        loser = engine.begin()
        yield from engine.insert(loser, "accounts", [2, "loser", 2.0])
        yield from engine.update(loser, "accounts", (1,), {"balance": 666.0})
        # Force the log to flush the loser's records before the crash.
        waiter = engine.begin()
        yield from engine.insert(waiter, "accounts", [3, "flushed", 3.0])
        yield from engine.commit(waiter)
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    engine.crash()

    def recovery(env):
        stats = yield from engine.recover()
        one = yield from engine.read_row(None, "accounts", (1,))
        two = yield from engine.read_row(None, "accounts", (2,))
        return stats, one, two

    stats, one, two = run(dep, recovery(dep.env))
    assert one == [1, "committed", 1.0]  # loser's update undone
    assert two is None  # loser's insert undone
    assert stats["losers_undone"] >= 2


def test_recovery_with_ebp_rebuild():
    dep = Deployment(
        DeploymentConfig.astore_ebp(
            engine=EngineConfig(buffer_pool_bytes=8 * 16 * KB),
            ebp_capacity_bytes=8 * MB,
        )
    )
    dep.start()
    engine = dep.engine
    from repro.engine.codec import VARCHAR as VC

    wide_schema = Schema(
        [
            Column("id", INT()),
            Column("name", VARCHAR(32)),
            Column("balance", DECIMAL(2)),
            Column("pad", VC(4200)),  # ~4 rows/page so inserts spill
        ]
    )
    engine.create_table("accounts", wide_schema, ["id"])

    def work(env):
        for chunk in range(8):
            txn = engine.begin()
            for i in range(chunk * 25, chunk * 25 + 25):
                yield from engine.insert(
                    txn, "accounts", [i, "u", float(i), "p" * 4096]
                )
            yield from engine.commit(txn)
        yield env.timeout(0.3)
        return len(dep.ebp.index)

    cached_before = run(dep, work(dep.env))
    assert cached_before > 0
    engine.crash()

    def recovery(env):
        stats = yield from engine.recover()
        row = yield from engine.read_row(None, "accounts", (150,))
        return stats, row

    stats, row = run(dep, recovery(dep.env))
    assert row[:3] == [150, "u", 150.0]
    assert stats["ebp_entries"] > 0


def test_read_row_missing_returns_none():
    dep = make_deployment()

    def work(env):
        return (yield from dep.engine.read_row(None, "accounts", (404,)))

    assert run(dep, work(dep.env)) is None


def test_row_migration_on_growing_update():
    dep = make_deployment()
    engine = dep.engine
    schema = Schema([Column("id", INT()), Column("data", VARCHAR(0))])
    engine.create_table("blobs", schema, ["id"])

    def work(env):
        txn = engine.begin()
        # Fill one page nearly full with small rows.
        for i in range(10):
            yield from engine.insert(txn, "blobs", [i, "x" * 1500])
        yield from engine.commit(txn)
        txn = engine.begin()
        # Grow row 0 far beyond its page's free space.
        yield from engine.update(txn, "blobs", (0,), {"data": "y" * 9000})
        yield from engine.commit(txn)
        row = yield from engine.read_row(None, "blobs", (0,))
        return row

    row = run(dep, work(dep.env))
    assert row[1] == "y" * 9000
    table = engine.catalog.table("blobs")
    assert table.row_count == 10
