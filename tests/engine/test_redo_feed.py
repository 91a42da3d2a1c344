"""Tests for the incremental REDO feed and the consumer that drains it."""

from repro import Deployment, DeploymentSpec
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.standby import StandbyReplica


def build():
    dep = Deployment(DeploymentSpec.astore_ebp(seed=19))
    dep.start()
    engine = dep.engine
    engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", VARCHAR(40))]),
        ["k"],
    )
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def capture_batches(standby, lsns):
    """Record every LSN the standby applies, in application order."""
    original = standby.apply

    def wrapped(batch):
        lsns.extend(record.lsn for record in batch)
        original(batch)

    standby.apply = wrapped


def test_feed_applies_identical_lsn_sequence_as_rescan():
    dep = build()
    engine = dep.engine
    fed = StandbyReplica(dep.env, engine)
    fed.start()
    fed_lsns = []
    capture_batches(fed, fed_lsns)

    def work(env):
        for wave in range(6):
            txn = engine.begin()
            for i in range(10):
                yield from engine.insert(
                    txn, "kv", [wave * 10 + i, "w%d" % wave])
            yield from engine.commit(txn)
            yield env.timeout(0.01)
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    durable = run(dep, engine.log_backend.recover())
    # Subscribed before any REDO was durable: the feed starts live and
    # delivers the whole durable log, in order, with no rebuild.
    assert fed_lsns and fed_lsns == [record.lsn for record in durable]
    assert fed.applied_lsn == engine.log.persistent_lsn
    assert fed.records_applied == len(durable)
    assert fed.feed.published == len(durable)
    assert fed.rebuilds == 0
    for key in (0, 35, 59):
        assert run(dep, fed.read_row("kv", (key,))) == [key, "w%d" % (key // 10)]


def test_feed_crash_recover_rejoins_via_rescan():
    dep = build()
    engine = dep.engine
    standby = StandbyReplica(dep.env, engine)
    standby.start()

    def phase(env, base):
        txn = engine.begin()
        for i in range(20):
            yield from engine.insert(txn, "kv", [base + i, "v"])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, phase(dep.env, 0))
    standby.crash()
    assert standby.feed.stale  # crash poisons the feed
    assert len(standby.feed) == 0

    run(dep, phase(dep.env, 100))  # lands while the standby is down
    assert run(dep, standby.recover())
    assert standby.rebuilds == 1
    run(dep, phase(dep.env, 200))  # applied via the feed after rejoin

    assert standby.rebuilds == 1
    for key in (5, 105, 205):
        row = run(dep, standby.read_row("kv", (key,)))
        assert row == [key, "v"]
    assert standby.applied_lsn == engine.log.persistent_lsn
    # A standby attached now catches up by the same rebuild.
    late = StandbyReplica(dep.env, engine)
    late.start()

    def settle(env):
        yield env.timeout(0.05)

    run(dep, settle(dep.env))
    assert late.rebuilds == 1
    assert late.applied_lsn == standby.applied_lsn
    assert run(dep, late.read_row("kv", (105,))) == [105, "v"]


def test_feed_overflow_falls_back_to_rescan():
    dep = build()
    engine = dep.engine
    feed = engine.subscribe_redo(bound=4)
    feed.stale = False  # pretend a subscriber already synced

    def work(env):
        txn = engine.begin()
        for i in range(10):
            yield from engine.insert(txn, "kv", [i, "v"])
        yield from engine.commit(txn)

    run(dep, work(dep.env))
    assert feed.stale  # 10 records overflow the bound of 4
    assert feed.overflows == 1
    assert len(feed) == 0  # cleared, subscriber must rebuild


def test_standby_overflow_rebuilds_while_serving():
    dep = build()
    engine = dep.engine
    standby = StandbyReplica(dep.env, engine)
    standby.start(poll_interval=0.02, bound=8)

    def load(env, base, count):
        txn = engine.begin()
        for i in range(base, base + count):
            yield from engine.insert(txn, "kv", [i, "v"])
        yield from engine.commit(txn)

    run(dep, load(dep.env, 0, 4))
    dep.run_for(0.05)
    assert standby.rebuilds == 0 and standby.applied_lsn > 0
    run(dep, load(dep.env, 100, 30))  # 30 records overflow the bound of 8
    assert standby.feed.overflows == 1
    # Until the rebuild installs, the standby keeps serving its old state.
    assert run(dep, standby.read_row("kv", (2,))) == [2, "v"]
    dep.run_for(0.1)
    assert standby.rebuilds == 1
    assert standby.lag_lsn == 0
    assert run(dep, standby.read_row("kv", (129,))) == [129, "v"]
    assert standby.catalog.table("kv").row_count == 34
