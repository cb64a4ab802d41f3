"""The hash join's build side (``HashJoin.build_left``).

``CostModel.node_self_cost`` prices a conditioned join as if the hash
table went on the smaller input; the planner now makes the executor do
that.  The operator must return the same bag whichever side it builds
on, pulled row by row or chunk by chunk; the planner must pick the
smaller side from the estimates of the plan's own build, keep LEFT
joins and ties on the right, and re-decide when an INSERT moves the
sizes — the choice lives in the memoized plan, so it is as fresh as the
memo's stamp.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.engine import physical, vector
from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.federation.deployment import Deployment
from repro.fuzz.reference import Reference, same_rows
from repro.obs.context import QueryContext
from repro.relational.builder import build_plan
from repro.relational.optimizer import push_filters
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.types import DOUBLE, INTEGER, varchar
from repro.workloads.tpch import query

from conftest import assert_same_rows
from test_engine_planner import lower

L_SCHEMA = Schema(
    [Field("a", INTEGER, "l"), Field("b", INTEGER, "l"), Field("x", INTEGER, "l")]
)
R_SCHEMA = Schema(
    [Field("a", INTEGER, "r"), Field("b", INTEGER, "r"), Field("y", INTEGER, "r")]
)


def make_join(
    left_rows: Sequence[tuple],
    right_rows: Sequence[tuple],
    key_count: int,
    build_left: bool,
    kind: str = "INNER",
) -> physical.HashJoin:
    """A hash join over two in-memory inputs on their first
    ``key_count`` columns, compiled the way the planner compiles it."""
    names = ["a", "b"][:key_count]
    refs = [(ast.ColumnRef(n, "l"), ast.ColumnRef(n, "r")) for n in names]
    return physical.HashJoin(
        physical.ValuesScan(L_SCHEMA, list(left_rows), "l"),
        physical.ValuesScan(R_SCHEMA, list(right_rows), "r"),
        refs,
        L_SCHEMA.concat(R_SCHEMA),
        kind=kind,
        build_left=build_left,
    )


def run(op: physical.PhysicalPlan, mode: str, hint: Optional[int] = None):
    """Pull ``op`` to the end: through ``rows()`` (``mode="row"``) or
    through ``batches(hint)``."""
    if mode == "row":
        return list(op.rows())
    return [row for batch in op.batches(hint) for row in batch]


def reference_join(left_rows, right_rows, key_count) -> Counter:
    """The inner equi join by definition: every pair whose keys are
    equal and free of NULLs, left columns first."""
    return Counter(
        lrow + rrow
        for lrow in left_rows
        for rrow in right_rows
        if lrow[:key_count] == rrow[:key_count]
        and None not in lrow[:key_count]
    )


def counts(op: physical.PhysicalPlan) -> List[Tuple[str, int]]:
    return [(node.label(), node.rows_out) for node in op.walk()]


# -- (i) the operator: same bag from either side, however it is pulled -----

CASES = {
    "pk-fk": (
        [(i, 0, i * 10) for i in range(5)],
        [(i % 5, 0, i) for i in range(23)],
    ),
    "null keys on both sides": (
        [(1, 1, 10), (None, 1, 11), (2, None, 12), (3, 3, 13)],
        [(1, 1, 20), (None, 1, 21), (2, None, 22), (None, None, 23), (3, 3, 24)],
    ),
    "duplicates on the left": (
        [(1, 1, 10), (1, 1, 11), (2, 2, 12)],
        [(1, 1, 20), (2, 2, 21), (4, 4, 22)],
    ),
    "duplicates on the right": (
        [(1, 1, 10), (2, 2, 12), (4, 4, 13)],
        [(1, 1, 20), (1, 1, 21), (2, 2, 22)],
    ),
    "duplicates on both": (
        [(1, 1, 10), (1, 1, 11), (2, 2, 12), (2, 2, 13)],
        [(1, 1, 20), (1, 1, 21), (2, 2, 22), (2, 2, 23), (2, 2, 24)],
    ),
    "empty left": ([], [(1, 1, 20), (2, 2, 21)]),
    "empty right": ([(1, 1, 10), (2, 2, 11)], []),
    "no key in common": ([(1, 1, 10)], [(2, 2, 20)]),
    "several batches": (
        [(i % 700, i % 7, i) for i in range(2 * vector.BATCH_SIZE + 5)],
        [(i, i % 7, -i) for i in range(vector.BATCH_SIZE + 9)],
    ),
}


@pytest.mark.parametrize("mode", ["row", "batch"])
@pytest.mark.parametrize("key_count", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_either_build_side_returns_the_join(case, key_count, mode):
    left_rows, right_rows = CASES[case]
    want = reference_join(left_rows, right_rows, key_count)
    for build_left in (False, True):
        op = make_join(left_rows, right_rows, key_count, build_left)
        assert Counter(run(op, mode)) == want, f"build_left={build_left}"
        assert op.rows_out == sum(want.values())
        # both inputs are drained whichever side is the table
        assert op.left.rows_out == len(left_rows)
        assert op.right.rows_out == len(right_rows)


@pytest.mark.parametrize("build_left", [False, True])
def test_limit_hint_smaller_than_one_batch(build_left):
    left_rows, right_rows = CASES["duplicates on both"]
    want = reference_join(left_rows, right_rows, 1)
    op = make_join(left_rows, right_rows, 1, build_left)
    got = run(op, "batch", hint=3)
    assert len(got) == 3 and op.rows_out == 3
    assert not Counter(got) - want
    limited = physical.LimitOp(make_join(left_rows, right_rows, 1, build_left), 3)
    assert not Counter(run(limited, "row")) - want
    assert limited.rows_out == 3


def test_only_a_plain_inner_join_builds_left():
    with pytest.raises(ExecutionError, match="build"):
        make_join([], [], 1, build_left=True, kind="LEFT")
    scan = physical.ValuesScan(L_SCHEMA, [], "l")
    with pytest.raises(ExecutionError, match="build"):
        physical.HashJoin(
            scan,
            physical.ValuesScan(R_SCHEMA, [], "r"),
            [(ast.ColumnRef("a", "l"), ast.ColumnRef("a", "r"))],
            L_SCHEMA.concat(R_SCHEMA),
            residual=ast.Literal(True),
            build_left=True,
        )


_value = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_table = st.lists(st.tuples(_value, _value, st.integers(0, 99)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(left_rows=_table, right_rows=_table, key_count=st.sampled_from([1, 2]))
def test_build_side_never_changes_the_bag(left_rows, right_rows, key_count):
    want = reference_join(left_rows, right_rows, key_count)
    for build_left in (False, True):
        for mode in ("row", "batch"):
            op = make_join(left_rows, right_rows, key_count, build_left)
            assert Counter(run(op, mode)) == want


# -- (ii) + (iii) the planner's choice, and sqlite's answer to it ---------


def tables(small: int = 10, big: int = 200):
    return [
        (
            "small",
            Schema([Field("k", INTEGER), Field("s", varchar(8))]),
            [(i, f"s{i}") for i in range(small)],
        ),
        (
            "big",
            Schema([Field("k", INTEGER), Field("v", DOUBLE)]),
            [(i % 25, float(i)) for i in range(big)],
        ),
        (
            "big2",
            Schema([Field("k", INTEGER), Field("w", INTEGER)]),
            [(i % 25, i) for i in range(big)],
        ),
    ]


def make_database(small: int = 10, big: int = 200) -> Database:
    database = Database("D")
    for name, schema, rows in tables(small, big):
        database.create_table(name, schema, rows)
    return database


def hash_joins(op: physical.PhysicalPlan) -> List[physical.HashJoin]:
    return [node for node in op.walk() if isinstance(node, physical.HashJoin)]


def test_both_orientations_build_on_the_small_table():
    database = make_database()
    (join,) = hash_joins(
        lower(database, "SELECT s, v FROM small, big WHERE small.k = big.k")
    )
    assert join.label() == "HashJoin[INNER, 1 keys, build=left]"
    (join,) = hash_joins(
        lower(database, "SELECT s, v FROM big, small WHERE small.k = big.k")
    )
    assert join.label() == "HashJoin[INNER, 1 keys, build=right]"


def test_a_tie_builds_right():
    (join,) = hash_joins(
        lower(make_database(), "SELECT v, w FROM big, big2 WHERE big.k = big2.k")
    )
    assert join.label() == "HashJoin[INNER, 1 keys, build=right]"


def test_a_left_join_builds_right_whatever_the_sizes():
    (join,) = hash_joins(
        lower(
            make_database(),
            "SELECT s, v FROM small LEFT JOIN big ON small.k = big.k",
        )
    )
    assert join.label() == "HashJoin[LEFT, 1 keys, build=right]"


def test_a_plan_lowered_without_estimates_builds_right():
    database = make_database()
    plan = build_plan(
        parse_statement("SELECT s, v FROM small, big WHERE small.k = big.k"),
        database.catalog,
    )
    (join,) = hash_joins(database.planner.to_physical(push_filters(plan)))
    assert not join.build_left


THREE_WAY = (
    "SELECT small.s, big.v, big2.w FROM big2, big, small "
    "WHERE small.k = big.k AND big.k = big2.k AND big2.w < 150"
)


def test_row_and_batch_agree_on_a_build_left_plan():
    """Across joins that build on the left: sqlite's rows, and the same
    rows, order and every operator's ``rows_out`` whether the plan is
    pulled through ``rows()`` or ``batches()``."""
    outputs = {}
    for mode in ("row", "batch"):
        op = lower(make_database(), THREE_WAY)
        assert any(join.build_left for join in hash_joins(op))
        outputs[mode] = (run(op, mode), counts(op))
    assert outputs["row"] == outputs["batch"]
    rows = outputs["batch"][0]
    assert rows, "the plan under test must return rows"
    schema = make_database().execute(THREE_WAY).schema
    want = Reference(tables()).rows(parse_statement(THREE_WAY), schema)
    assert same_rows(rows, want)


# -- (iv) the choice is as fresh as the memo entry -------------------------


def _executed_join(database: Database, sql: str):
    """Run ``sql``; return its rows and the label of the one hash join
    it executed, read off the operator spans."""
    with QueryContext() as ctx:
        rows = database.execute(sql).rows
    (label,) = [
        span.name
        for span in ctx.root.find_all(kind="operator")
        if span.name.startswith("HashJoin[")
    ]
    return rows, label


def test_an_insert_that_reverses_the_sizes_flips_the_side():
    database = make_database(small=10, big=40)
    sql = "SELECT s, v FROM small, big WHERE small.k = big.k"
    before, label = _executed_join(database, sql)
    assert "build=left" in label
    (entry,) = database._memo.values()
    # not before: the same entry, hence the same side, until a write
    _, label = _executed_join(database, sql)
    assert "build=left" in label
    assert list(database._memo.values()) == [entry]

    values = ", ".join(f"({100 + i}, 'n{i}')" for i in range(60))
    database.execute(f"INSERT INTO small VALUES {values}")
    after, label = _executed_join(database, sql)
    assert "build=right" in label
    assert_same_rows(before, after)


def _join_spans(report) -> List[Tuple[str, int, int]]:
    """``(label, left rows, right rows)`` of every executed hash join,
    read off the operator spans the engines recorded."""
    out = []
    for span in report.context.root.find_all(kind="operator"):
        if span.name.startswith("HashJoin["):
            left, right = [
                child.attributes["rows_out"]
                for child in span.children
                if child.kind == "operator"
            ]
            out.append((span.name, left, right))
    return out


def test_partitioned_branches_each_report_their_side():
    """The 4-shard / 2-worker federation of ``test_plan_memo``: pool
    threads lower memoized plans concurrently; every branch join says
    which side it built and the answer is the unpartitioned one."""

    def deployment(partitioned: bool) -> Deployment:
        dep = Deployment(
            {f"p{i}": "postgres" for i in range(1, 5)},
            parallel_workers=2 if partitioned else 1,
        )
        dep.load_table(
            "p1",
            "facts",
            Schema([Field("k", INTEGER), Field("v", DOUBLE)]),
            [(i, float(i % 13)) for i in range(400)],
        )
        dep.load_table(
            "p2",
            "dims",
            Schema([Field("k", INTEGER), Field("name", varchar(8))]),
            [(i, f"d{i % 5}") for i in range(0, 400, 30)],
        )
        if partitioned:
            dep.partition_table("facts", "k", ["p1", "p2", "p3", "p4"])
        return dep

    sql = (
        "SELECT dims.name, SUM(facts.v) AS total FROM dims, facts "
        "WHERE facts.k = dims.k GROUP BY dims.name"
    )
    plain = XDB(deployment(False)).submit(sql).result.rows
    xdb = XDB(deployment(True), movement_policy="explicit")
    for _ in range(2):
        report = xdb.submit(sql)
        assert_same_rows(report.result.rows, plain)
        joins = _join_spans(report)
        assert len(joins) >= 4
        for label, left, right in joins:
            assert label.endswith("build=left]") or label.endswith("build=right]")
            # 14 dimension rows against a ~100-row shard
            assert (left if "build=left" in label else right) == min(left, right)


# -- (v) hedged branches run clones ----------------------------------------


def test_clone_keeps_the_side_and_resets_the_counters():
    left_rows, right_rows = CASES["pk-fk"]
    op = make_join(left_rows, right_rows, 1, build_left=True)
    first = run(op, "batch")
    dup = op.clone()
    assert dup.build_left and dup.label() == op.label()
    assert [n.rows_out for n in dup.walk()] == [0, 0, 0]
    assert dup.left is not op.left and dup.right is not op.right
    assert run(dup, "row") == first
    assert counts(dup) == counts(op)


# -- (vi) the property the change is for -----------------------------------


def test_tpch_hash_tables_hold_the_smaller_input():
    """Q3–Q10 on TD1: Σ build rows ≤ 1.2 × Σ min(build, probe), from the
    executed operators' ``rows_out`` (7.8× before the build side
    followed the estimates)."""
    deployment, _ = build_tpch_deployment("TD1", 0.002)
    xdb = XDB(deployment)
    built = smaller = 0
    for name in ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10"):
        for label, left, right in _join_spans(xdb.submit(query(name))):
            built += left if "build=left" in label else right
            smaller += min(left, right)
    assert smaller > 0
    assert built <= 1.2 * smaller, (built, smaller)
