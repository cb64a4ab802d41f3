"""Restriction ORs: the per-relation restrictions a join's OR implies.

``restrict_ors`` adds, for each relation that every disjunct of an OR
conjunct has a part over, the OR of those parts; ``push_filters`` then
places it like any other conjunct.  The member engines run it just
before pushdown (``LocalPlanner.optimize``), so a postgres wrapper
ships a foreign table's restriction as the remote WHERE.
"""

from __future__ import annotations

from contextlib import closing

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.engine.database import Database
from repro.fuzz.reference import Reference, same_rows
from repro.relational import algebra
from repro.relational.builder import build_plan
from repro.relational.optimizer import restrict_ors
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.render import render
from repro.sql.types import INTEGER, varchar
from repro.workloads.tpch import query

NATIONS = ["FRANCE", "GERMANY", "PERU", "CHINA"]
TABLES = [
    (
        "nation",
        Schema([Field("n_nationkey", INTEGER), Field("n_name", varchar(25))]),
        list(enumerate(NATIONS)),
    ),
    (
        "supplier",
        Schema([Field("s_suppkey", INTEGER), Field("s_nationkey", INTEGER)]),
        [(i, i % 4) for i in range(40)],
    ),
    (
        "customer",
        Schema([Field("c_custkey", INTEGER), Field("c_nationkey", INTEGER)]),
        [(i, [1, 0, 3, 2][i % 4]) for i in range(40)],
    ),
]

Q7_SHAPE = """
    SELECT s.s_suppkey, n1.n_name AS supp_nation, n2.n_name AS cust_nation
    FROM supplier s, customer c, nation n1, nation n2
    WHERE s.s_suppkey = c.c_custkey
      AND s.s_nationkey = n1.n_nationkey
      AND c.c_nationkey = n2.n_nationkey
      AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
        OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
"""


def _database(tables=TABLES) -> Database:
    database = Database("D")
    for name, schema, rows in tables:
        database.create_table(name, schema, rows)
    return database


def _nodes(plan, kind):
    found = [plan] if isinstance(plan, kind) else []
    for child in plan.children():
        found += _nodes(child, kind)
    return found


def _derived(database, sql):
    """Rendered conjuncts ``restrict_ors`` adds to the query's filter."""
    plan = build_plan(parse_statement(sql), database.catalog)
    (before,) = _nodes(plan, algebra.Filter)
    restricted = restrict_ors(plan)
    (after,) = _nodes(restricted, algebra.Filter)
    present = ast.conjuncts(before.predicate)
    return [
        render(conjunct)
        for conjunct in ast.conjuncts(after.predicate)
        if conjunct not in present
    ], restricted


def _rendered_filters(plan):
    return [render(node.predicate) for node in _nodes(plan, algebra.Filter)]


def test_q7_shape_derives_one_restriction_per_nation_alias():
    database = _database()
    derived, restricted = _derived(database, Q7_SHAPE)
    assert derived == [
        "n1.n_name = 'FRANCE' OR n1.n_name = 'GERMANY'",
        "n2.n_name = 'GERMANY' OR n2.n_name = 'FRANCE'",
    ]
    # Nothing is derived twice: a second pass finds them present.
    assert restrict_ors(restricted) is restricted
    result = database.execute(Q7_SHAPE)
    with closing(Reference(TABLES)) as reference:
        want = reference.rows(parse_statement(Q7_SHAPE), result.schema)
    assert result.rows and same_rows(result.rows, want)


def test_nothing_is_derived_for_a_relation_some_disjunct_lacks():
    derived, _ = _derived(
        _database(),
        """
        SELECT s.s_suppkey FROM supplier s, nation n1, nation n2
        WHERE s.s_nationkey = n1.n_nationkey
          AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
            OR n1.n_nationkey = 3
            OR (s.s_suppkey < 4 AND n1.n_name = 'PERU'))
        """,
    )
    # n1 has a part in every arm; n2 and s do not.
    assert derived == [
        "n1.n_name = 'FRANCE' OR n1.n_nationkey = 3 OR n1.n_name = 'PERU'"
    ]


def test_an_or_over_one_relation_derives_nothing():
    derived, _ = _derived(
        _database(),
        "SELECT n.n_name FROM nation n "
        "WHERE (n.n_nationkey = 1 AND n.n_name = 'GERMANY') "
        "OR n.n_nationkey = 2",
    )
    assert derived == []


LEFT_TABLES = [
    ("t", Schema([Field("k", INTEGER), Field("x", INTEGER)]),
     [(i, i % 3) for i in range(12)]),
    ("u", Schema([Field("k", INTEGER), Field("y", INTEGER)]),
     [(i, i % 5) for i in range(0, 12, 2)] + [(7, None)]),
]
LEFT_SQL = (
    "SELECT t.k, t.x, u.y FROM t LEFT JOIN u ON t.k = u.k "
    "WHERE (t.x = 1 AND u.y IS NULL) OR (t.x = 2 AND u.y = 3)"
)


def test_padded_side_restriction_stays_above_a_left_join():
    database = _database(LEFT_TABLES)
    plan = database.planner.optimize(
        build_plan(parse_statement(LEFT_SQL), database.catalog)
    )
    (join,) = _nodes(plan, algebra.Join)
    assert join.kind == "LEFT"
    # t's restriction goes below the join on the preserved side ...
    assert _rendered_filters(join.left) == ["t.x = 1 OR t.x = 2"]
    # ... u's, with its IS NULL arm, stays above: nothing filters u.
    assert _rendered_filters(join.right) == []
    above = [
        text
        for node in _nodes(plan, algebra.Filter)
        if join in _nodes(node, algebra.Join)
        for text in [render(c) for c in ast.conjuncts(node.predicate)]
    ]
    assert "(u.y IS NULL) OR u.y = 3" in above
    result = database.execute(LEFT_SQL)
    with closing(Reference(LEFT_TABLES)) as reference:
        want = reference.rows(parse_statement(LEFT_SQL), result.schema)
    assert same_rows(result.rows, want)
    # k = 1 (padded), k = 7 (a NULL y) and k = 8 (y = 3).  Below the
    # join, the restriction would drop u's rows for k = 4 and 10 and
    # pad them into the IS NULL arm.
    assert sorted(row[0] for row in result.rows) == [1, 7, 8]


def test_td1_q7_ships_the_restriction_to_the_orders_side():
    deployment, data = build_tpch_deployment("TD1", 0.001)
    xdb = XDB(deployment)
    xdb.warm_metadata()
    report = xdb.submit(query("Q7"))
    view = report.deployed.edge_views[1]
    (scan,) = [
        span
        for span in report.context.root.find_all(kind="operator")
        if span.attributes.get("db") == "db1"
        and span.name.startswith("ForeignScan[db2:")
        and f"FROM {view}" in span.name
    ]
    assert scan.name.endswith(
        f"FROM {view} WHERE n_name = 'GERMANY' OR n_name = 'FRANCE']"
    )
    (edge,) = [e for e in report.plan.edges if e.placeholder == "xin_2"]
    # Without the restriction every order crosses this edge.
    assert edge.moved_rows <= len(data.rows_of("orders")) // 5
    assert edge.moved_rows == scan.attributes["rows_out"]


# -- property: any two-table OR of ANDs answers as sqlite does ---------------

PROPERTY_SCHEMAS = {
    "t": Schema([Field("k", INTEGER), Field("a", INTEGER), Field("b", varchar(4))]),
    "u": Schema([Field("k", INTEGER), Field("c", INTEGER), Field("d", varchar(4))]),
}
keys = st.one_of(st.none(), st.integers(0, 2))
small = st.one_of(st.none(), st.integers(0, 4))
text = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]))
rows_of = st.lists(st.tuples(keys, small, text), max_size=10)


def _atom(table, column, kind):
    ref = f"{table}.{column}"
    if kind == "null":
        return st.sampled_from([f"{ref} IS NULL", f"{ref} IS NOT NULL"])
    if kind == "int":
        return st.builds(
            lambda op, v: f"{ref} {op} {v}",
            st.sampled_from(["=", "<", ">", "<>"]),
            st.integers(0, 4),
        )
    return st.builds(lambda v: f"{ref} = '{v}'", st.sampled_from(["x", "y"]))


def _atoms(table, columns):
    return [
        _atom(table, column, kind)
        for column in columns
        for kind in (("int", "null") if column in "ac" else ("text", "null"))
    ]


t_atoms = st.one_of(*_atoms("t", "ab"))
u_atoms = st.one_of(*_atoms("u", "cd"))
atoms = st.one_of(t_atoms, u_atoms, st.just("t.a = u.c"))
# Most arms test both tables, as Q7's do, so each implies a restriction
# on each; the rest are any one to three atoms.
arms = st.one_of(
    st.tuples(t_atoms, u_atoms),
    st.tuples(u_atoms, t_atoms, atoms),
    st.lists(atoms, min_size=1, max_size=3),
).map(" AND ".join)
predicates = st.lists(arms, min_size=2, max_size=3).map(
    lambda parts: " OR ".join(f"({part})" for part in parts)
)


@given(
    rows_t=rows_of,
    rows_u=rows_of,
    kind=st.sampled_from(["JOIN", "LEFT JOIN"]),
    predicate=predicates,
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_or_of_ands_over_two_tables_matches_sqlite(rows_t, rows_u, kind, predicate):
    tables = [
        ("t", PROPERTY_SCHEMAS["t"], rows_t),
        ("u", PROPERTY_SCHEMAS["u"], rows_u),
    ]
    sql = (
        f"SELECT t.k, t.a, t.b, u.k, u.c, u.d FROM t {kind} u ON t.k = u.k "
        f"WHERE {predicate}"
    )
    result = _database(tables).execute(sql)
    with closing(Reference(tables)) as reference:
        want = reference.rows(parse_statement(sql), result.schema)
    assert same_rows(result.rows, want), sql
