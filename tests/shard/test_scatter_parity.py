"""Scatter-gather parity: a 2-shard frontend answers every SELECT exactly
as one engine holding the same rows does — aggregates ordered by an
aggregate or an output alias, LIMIT over a global order, DISTINCT
aggregates, and ORDER BY on columns the query does not select."""

import pytest

from repro.engine.codec import INT, Column, Schema
from repro.harness.deployment import DeploymentSpec
from repro.shard import ShardKeySpec

SCHEMA = Schema(
    [Column("k", INT()), Column("v", INT()), Column("w", INT(), nullable=True)]
)

#: k, v, w — w is NULL on every fourth row.
ROWS = [
    (k, [0, 1, 2, 0, 1, 2, 2, 1, 2, 1, 0, 2][k], None if k % 4 == 0 else k % 5)
    for k in range(12)
]
INSERT = "INSERT INTO kv VALUES %s" % ", ".join(
    "(%d, %d, %s)" % (k, v, "NULL" if w is None else w) for k, v, w in ROWS
)

QUERIES = [
    "SELECT v, COUNT(*) FROM kv GROUP BY v ORDER BY COUNT(*) DESC, v",
    "SELECT v, MAX(k) FROM kv GROUP BY v ORDER BY MAX(k) DESC LIMIT 2",
    "SELECT v, AVG(k) AS a FROM kv GROUP BY v ORDER BY a",
    "SELECT v, COUNT(DISTINCT w) AS d FROM kv GROUP BY v ORDER BY d, v",
    "SELECT v, SUM(k) AS s, MIN(w) FROM kv GROUP BY v ORDER BY s DESC",
    "SELECT SUM(DISTINCT v), AVG(DISTINCT w), MAX(DISTINCT w) FROM kv",
    "SELECT COUNT(*), SUM(v), MIN(w) FROM kv WHERE k < 0",
    "SELECT COUNT(*), SUM(k) FROM kv",
    "SELECT v FROM kv GROUP BY v ORDER BY v DESC",
    "SELECT k FROM kv ORDER BY v DESC, k LIMIT 4",
    "SELECT k, w FROM kv ORDER BY w, k",
    "SELECT k, w FROM kv ORDER BY w DESC, k LIMIT 5",
    "SELECT k AS x, v FROM kv ORDER BY x + v DESC, x LIMIT 5",
    "SELECT k * 2 AS x FROM kv ORDER BY v, x",
    "SELECT k, v FROM kv ORDER BY k DESC LIMIT 3",
]


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


@pytest.fixture(scope="module")
def engines():
    single = DeploymentSpec.astore_ebp(seed=41, astore_servers=3).build()
    single.start()
    single.engine.create_table("kv", SCHEMA, ["k"])
    single_session = single.new_session()
    run(single, single_session.execute(INSERT))

    sharded = (
        DeploymentSpec.astore_ebp(seed=43, astore_servers=3)
        .with_shards(2)
        .with_replicas(2)
        .build()
    )
    sharded.start()
    sharded.shard_session().create_table("kv", SCHEMA, ["k"])
    sharded.shardmap.set_table("kv", ShardKeySpec(column_pos=0))
    for stack in sharded.shards:
        stack.fleet.sync_catalogs()
    client = sharded.frontend_session("client")
    run(sharded, client.execute(INSERT))
    # Both shards hold rows, so every query below really scatters.
    for shard in range(2):
        count = run(sharded, sharded.new_session(shard=shard).execute(
            "SELECT COUNT(*) FROM kv"
        ))
        assert count.rows[0][0] > 0
    return single, single_session, sharded, client


@pytest.mark.parametrize("sql", QUERIES)
def test_scatter_matches_single_engine(engines, sql):
    single, single_session, sharded, client = engines
    expected = run(single, single_session.execute(sql))
    before = sharded.frontend.scatter_selects
    got = run(sharded, client.execute(sql))
    assert sharded.frontend.scatter_selects == before + 1
    assert got.columns == expected.columns
    assert got.rows == expected.rows


def test_distinct_sum_is_a_sum_not_a_count(engines):
    _single, _session, sharded, client = engines
    result = run(sharded, client.execute("SELECT SUM(DISTINCT k) FROM kv"))
    assert result.rows == [(66.0,)]  # 0 + 1 + ... + 11, not 12 values
