"""TPC-C workload tests: loader shape, transactions, consistency checks."""

import pytest

from repro import Deployment, DeploymentConfig
from repro.sim.core import AllOf
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase, _c_last


SMALL = TpccConfig(
    warehouses=2, districts_per_warehouse=3, customers_per_district=8, items=30
)


def build(config=SMALL, seed=11):
    dep = Deployment(DeploymentConfig.astore_log(seed=seed))
    dep.start()
    database = TpccDatabase(dep.engine, config, dep.seeds.stream("load"))
    proc = dep.env.process(database.load())
    dep.env.run_until_event(proc)
    return dep, database


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def read(dep, table, key):
    return run(dep, dep.engine.read_row(None, table, key))


def test_loader_row_counts():
    dep, database = build()
    catalog = dep.engine.catalog
    assert catalog.table("warehouse").row_count == 2
    assert catalog.table("district").row_count == 6
    assert catalog.table("customer").row_count == 48
    assert catalog.table("item").row_count == 30
    assert catalog.table("stock").row_count == 60
    assert catalog.table("orders").row_count == 0


def test_loader_with_initial_orders():
    config = TpccConfig(
        warehouses=1, districts_per_warehouse=2, customers_per_district=8,
        items=30, initial_orders_per_district=10,
    )
    dep, database = build(config)
    catalog = dep.engine.catalog
    assert catalog.table("orders").row_count == 20
    assert catalog.table("order_line").row_count > 100
    # Undelivered tail sits in new_order; ~30% per the loader.
    assert 0 < catalog.table("new_order").row_count < 20
    district = read(dep, "district", (1, 1))
    assert district[7] == 11  # d_next_o_id advanced past the loaded orders


def test_c_last_syllables():
    assert _c_last(0) == "BARBARBAR"
    assert _c_last(371) == "PRICALLYOUGHT"
    assert _c_last(999) == "EINGEINGEING"


def test_new_order_transaction_effects():
    dep, database = build()
    client = TpccClient(database, dep.seeds.stream("c0"))

    def work(env):
        txn = dep.engine.begin()
        yield from client.txn_new_order(txn)
        yield from dep.engine.commit(txn)

    run(dep, work(dep.env))
    catalog = dep.engine.catalog
    assert catalog.table("orders").row_count == 1
    assert catalog.table("new_order").row_count == 1
    assert catalog.table("order_line").row_count >= 1
    # Some district's next_o_id advanced to 2.
    advanced = 0
    for w in range(1, 3):
        for d in range(1, 4):
            district = read(dep, "district", (w, d))
            if district[7] == 2:
                advanced += 1
    assert advanced == 1


def test_payment_updates_ytd_chain():
    dep, database = build()
    client = TpccClient(database, dep.seeds.stream("c0"),
                        home_warehouse=1)

    def work(env):
        txn = dep.engine.begin()
        yield from client.txn_payment(txn)
        yield from dep.engine.commit(txn)

    run(dep, work(dep.env))
    warehouse = read(dep, "warehouse", (1,))
    assert warehouse[7] > 0  # w_ytd grew
    assert dep.engine.catalog.table("history").row_count == 1


def test_delivery_clears_new_orders():
    dep, database = build()
    client = TpccClient(database, dep.seeds.stream("c0"), home_warehouse=1)

    def work(env):
        for _ in range(3):
            txn = dep.engine.begin()
            yield from client.txn_new_order(txn)
            yield from dep.engine.commit(txn)
        before = dep.engine.catalog.table("new_order").row_count
        txn = dep.engine.begin()
        yield from client.txn_delivery(txn)
        yield from dep.engine.commit(txn)
        after = dep.engine.catalog.table("new_order").row_count
        return before, after

    before, after = run(dep, work(dep.env))
    assert before >= 1
    assert after < before


def test_mix_is_weighted_correctly():
    dep, database = build()
    client = TpccClient(database, dep.seeds.stream("mix"))
    draws = [client._pick_type() for _ in range(4000)]
    share = draws.count("new_order") / len(draws)
    assert 0.40 < share < 0.50
    share = draws.count("payment") / len(draws)
    assert 0.38 < share < 0.48


def test_consistency_w_ytd_equals_sum_d_ytd():
    """TPC-C consistency condition 1 after a concurrent run."""
    dep, database = build()
    clients = [
        TpccClient(database, dep.seeds.stream("c%d" % i)) for i in range(6)
    ]
    procs = [dep.env.process(c.run_for(0.15)) for c in clients]
    dep.env.run_until_event(AllOf(dep.env, procs))
    for w_id in range(1, 3):
        warehouse = read(dep, "warehouse", (w_id,))
        d_sum = 0.0
        for d_id in range(1, 4):
            district = read(dep, "district", (w_id, d_id))
            d_sum += district[6]
        assert warehouse[7] == pytest.approx(d_sum, abs=0.01)


def test_consistency_d_next_o_id_matches_orders():
    """Consistency condition 2: max(o_id) + 1 == d_next_o_id."""
    dep, database = build()
    clients = [
        TpccClient(database, dep.seeds.stream("c%d" % i)) for i in range(4)
    ]
    procs = [dep.env.process(c.run_for(0.15)) for c in clients]
    dep.env.run_until_event(AllOf(dep.env, procs))
    orders = dep.engine.catalog.table("orders")
    for w_id in range(1, 3):
        for d_id in range(1, 4):
            district = read(dep, "district", (w_id, d_id))
            max_o = 0
            for key, _loc in orders.pk_index.range((w_id, d_id), None):
                if key[:2] != (w_id, d_id):
                    break
                max_o = max(max_o, key[2])
            assert district[7] == max_o + 1


def test_run_one_records_latency_and_commits():
    dep, database = build()
    client = TpccClient(database, dep.seeds.stream("c0"))

    def work(env):
        for _ in range(10):
            yield from client.run_one()

    run(dep, work(dep.env))
    assert client.committed + client.aborted == 10
    assert client.latencies.count == client.committed
    assert client.latencies.mean > 0


def test_short_run_leaves_no_finished_processes_behind():
    # A finished process is released once its waiters resumed, even when
    # the deadline it raced (the 1 s replica-write and 2 s lock-wait
    # timeouts) is still queued: what stays are the daemons.
    import gc

    from repro.sim.core import Process
    from repro.workloads.tpcc import run_tpcc

    clients = 4
    dep = Deployment(DeploymentConfig.astore_log(seed=11))
    dep.start()
    _, aggregate, _ = run_tpcc(dep, SMALL, clients=clients, duration=0.02)
    assert aggregate.count > 100
    gc.collect()
    procs = [obj for obj in gc.get_objects() if type(obj) is Process]
    daemons = sum(1 for proc in procs if proc.is_alive)
    assert daemons < 30
    assert len(procs) <= daemons + clients + 8
