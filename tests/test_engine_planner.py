"""Local planner lowering tests: physical operator selection."""

import pytest

from repro.engine import physical
from repro.engine.database import Database
from repro.engine.fdw import ForeignScan
from repro.errors import ExecutionError
from repro.relational import algebra
from repro.relational.builder import build_plan
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_statement
from repro.sql.types import INTEGER, varchar


@pytest.fixture
def db():
    database = Database("D")
    database.create_table(
        "t",
        Schema([Field("k", INTEGER), Field("v", INTEGER)]),
        [(i, i * 2) for i in range(50)],
    )
    database.create_table(
        "u",
        Schema([Field("k", INTEGER), Field("w", varchar(4))]),
        [(i, f"w{i}") for i in range(0, 50, 5)],
    )
    return database


def lower(db, sql):
    plan = build_plan(parse_statement(sql), db.catalog)
    plan = db.planner.optimize(plan)
    return db.planner.to_physical(plan)


def find_ops(plan, kind):
    found = []

    def walk(node):
        if isinstance(node, kind):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(plan)
    return found


def test_equi_join_lowered_to_hash_join(db):
    plan = lower(db, "SELECT t.v FROM t, u WHERE t.k = u.k")
    assert find_ops(plan, physical.HashJoin)
    assert not find_ops(plan, physical.NestedLoopJoin)


def test_non_equi_join_lowered_to_nested_loop(db):
    plan = lower(db, "SELECT t.v FROM t, u WHERE t.k < u.k")
    assert find_ops(plan, physical.NestedLoopJoin)
    assert not find_ops(plan, physical.HashJoin)


def test_cross_join_lowered_to_nested_loop(db):
    plan = lower(db, "SELECT t.v FROM t CROSS JOIN u")
    (join,) = find_ops(plan, physical.NestedLoopJoin)
    assert join.kind == "CROSS"


def test_left_join_lowered_to_hash_left(db):
    plan = lower(db, "SELECT t.v FROM t LEFT JOIN u ON t.k = u.k")
    (join,) = find_ops(plan, physical.HashJoin)
    assert join.kind == "LEFT"


@pytest.mark.parametrize("kind", ["INNER", "LEFT"])
def test_mixed_condition_hashes_with_a_residual(kind):
    """An equi conjunct plus anything else used to run as a nested
    loop (seconds at a few thousand rows a side); it hashes on the equi
    conjunct and checks the rest on each key match."""
    database = Database("D")
    database.create_table(
        "a",
        Schema([Field("x", INTEGER), Field("y", INTEGER)]),
        [(1, 10), (1, 11), (2, 20), (None, 30), (4, 40), (5, 50)],
    )
    database.create_table(
        "b",
        Schema([Field("x", INTEGER), Field("z", INTEGER)]),
        [(1, 1), (1, 5), (2, 7), (None, 0), (5, 9), (6, 2)],
    )
    join_sql = "JOIN" if kind == "INNER" else "LEFT JOIN"
    logical = build_plan(
        parse_statement(
            f"SELECT * FROM a {join_sql} b "
            "ON a.x = b.x AND b.z < 6 AND a.y <> 11"
        ),
        database.catalog,
    )
    while not isinstance(logical, algebra.Join):
        (logical,) = logical.children()
    pairs, residual = logical.hash_keys()
    assert len(pairs) == 1 and residual is not None
    assert logical.equi_keys() is None

    def lowered():
        (join,) = find_ops(
            database.planner.to_physical(logical), physical.HashJoin
        )
        return join

    join = lowered()
    assert join.kind == kind and join.residual is not None
    assert not join.build_left
    inputs = lowered()
    nested = physical.NestedLoopJoin(
        inputs.left,
        inputs.right,
        logical.schema,
        logical.condition,
        kind,
    )
    want = list(nested.rows())
    matched = [(1, 10, 1, 1), (1, 10, 1, 5)]
    padded = [
        row + (None, None)
        for row in [(1, 11), (2, 20), (None, 30), (4, 40), (5, 50)]
    ]
    assert sorted(want, key=repr) == sorted(
        matched + (padded if kind == "LEFT" else []), key=repr
    )
    assert list(join.rows()) == want
    batch_join = lowered()
    assert [
        row for batch in batch_join.batches() for row in batch
    ] == want
    assert batch_join.rows_out == join.rows_out == len(want)


def test_aggregate_and_sort_lowering(db):
    plan = lower(
        db,
        "SELECT w, COUNT(*) AS n FROM u GROUP BY w ORDER BY n DESC LIMIT 2",
    )
    assert find_ops(plan, physical.HashAggregate)
    assert find_ops(plan, physical.SortOp)
    assert find_ops(plan, physical.LimitOp)


def test_distinct_lowering(db):
    plan = lower(db, "SELECT DISTINCT w FROM u")
    assert find_ops(plan, physical.DistinctOp)


@pytest.mark.parametrize(
    "sql, labels",
    [
        # every column of the input, in order: a renaming adds no operator
        ("SELECT k, v FROM t", ["SeqScan[t]"]),
        (
            "SELECT k AS a, v AS b FROM t WHERE k > 40",
            ["Filter[k > 40]", "SeqScan[t]"],
        ),
        (
            "SELECT t.k, t.v, u.k, u.w FROM t, u WHERE t.k = u.k",
            ["HashJoin[INNER, 1 keys, build=right]", "SeqScan[t]", "SeqScan[u]"],
        ),
        # the pruning projection narrows; the SELECT list over it is free
        ("SELECT id, v FROM fact", ["Project[2 cols]", "SeqScan[fact]"]),
        ("SELECT k FROM t", ["Project[1 cols]", "SeqScan[t]"]),
        # a reordering computes; over the pruning projection the two
        # position maps compose into one operator
        ("SELECT v, k FROM t", ["Project[2 cols]", "SeqScan[t]"]),
        ("SELECT v, id FROM fact", ["Project[2 cols]", "SeqScan[fact]"]),
    ],
)
def test_identity_projection_is_a_renaming(db, sql, labels):
    db.create_table(
        "fact",
        Schema([Field("id", INTEGER), Field("d", INTEGER), Field("v", INTEGER)]),
        [(i, i % 5, i * 2) for i in range(50)],
    )
    plan = lower(db, sql)
    assert [op.label() for op in plan.walk()] == labels
    batch_plan = lower(db, sql)
    rows = list(plan.rows())
    assert [row for batch in batch_plan.batches() for row in batch] == rows
    assert rows == db.execute(sql).rows
    assert [(op.label(), op.rows_out) for op in plan.walk()] == [
        (op.label(), op.rows_out) for op in batch_plan.walk()
    ]


def test_placeholder_scan_rejected_by_executor(db):
    placeholder = algebra.Scan(
        "ph",
        "x",
        Schema([Field("a", INTEGER)]),
        placeholder=True,
        requalify=False,
    )
    with pytest.raises(ExecutionError, match="placeholder"):
        db.planner.to_physical(placeholder)


def test_an_alias_adds_no_operator(db):
    def lowered(sql):
        plan = build_plan(parse_statement(sql), db.catalog)
        return db.planner.to_physical(plan)

    aliased = lowered("SELECT q.v FROM (SELECT v FROM t) AS q")
    plain = lowered("SELECT v FROM t")
    labels = [op.label() for op in aliased.walk()]
    assert labels == [op.label() for op in plain.walk()]
    assert labels == ["Project[1 cols]", "SeqScan[t]"]
    rows = list(aliased.rows())
    assert len(rows) == 50
    assert rows == list(plain.rows())


def test_foreign_scan_used_for_foreign_tables():
    from repro.engine.fdw import RemoteServer
    from repro.net.network import Network

    network = Network()
    network.add_node("L")
    network.add_node("R")
    local = Database("L", node="L")
    remote = Database("R", node="R")
    remote.create_table(
        "src", Schema([Field("a", INTEGER)]), [(1,), (2,)]
    )
    local.register_server(
        "R", RemoteServer("R", remote, network, "L", "R")
    )
    local.execute(
        "CREATE FOREIGN TABLE f (a INTEGER) SERVER R "
        "OPTIONS (table_name 'src')"
    )
    plan = build_plan(parse_statement("SELECT a FROM f"), local.catalog)
    plan = local.planner.optimize(plan)
    physical_plan = local.planner.to_physical(plan)
    scans = find_ops(physical_plan, ForeignScan)
    assert scans and scans[0].tag == "fdw:src"
