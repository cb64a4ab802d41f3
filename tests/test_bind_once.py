"""Bind once: a rewrite that leaves a node's input schemas unchanged
returns the node the constructor would have built, without re-running
the type check — and one that changes them still runs it."""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.engine.database import Database
from repro.errors import BindError, ReproError, TypeCheckError
from repro.relational import algebra, expressions
from repro.relational.builder import build_plan
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_expression, parse_statement
from repro.sql.types import DOUBLE, INTEGER, varchar
from repro.workloads.tpch import TABLE_NAMES, query
from repro.workloads.tpch.generator import generate_cached

from test_random_queries import _SINGLE, random_query

QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")

#: the constructor call ``with_children`` stands in for, per node type
CONSTRUCT = {
    algebra.Filter: lambda n, c: algebra.Filter(c[0], n.predicate),
    algebra.Project: lambda n, c: algebra.Project(c[0], n.items),
    algebra.Join: lambda n, c: algebra.Join(c[0], c[1], n.condition, n.kind),
    algebra.Aggregate: lambda n, c: algebra.Aggregate(
        c[0], n.keys, n.aggregates
    ),
    algebra.Sort: lambda n, c: algebra.Sort(c[0], n.keys),
}


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` — and, for a module function, of
    every other module's by-name import of it.  Returns a 1-item list."""
    function = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module in list(sys.modules.values()):
        if getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counted)
    return calls


def walk(plan):
    yield plan
    for child in plan.children():
        yield from walk(child)


def assert_fast_path_equals_constructor(plan, monkeypatch):
    """Every Filter / Project / Join / Aggregate / Sort under ``plan``:
    ``with_children(children())`` is, attribute for attribute, a fresh
    constructor call — and bound nothing to get there."""
    checked = 0
    with monkeypatch.context() as patch:
        bound = count_calls(patch, expressions, "bind")
        for node in walk(plan):
            construct = CONSTRUCT.get(type(node))
            if construct is None:
                continue
            children = node.children()
            fresh = construct(node, children)
            node.estimated_rows = 42.0  # must not survive the rewrite
            before = bound[0]
            fast = node.with_children(children)
            assert bound[0] == before
            assert fast is not node and type(fast) is type(node)
            assert vars(fast).keys() == vars(fresh).keys()
            for name, value in vars(fresh).items():
                if isinstance(value, algebra.LogicalPlan):
                    assert getattr(fast, name) is value
                else:
                    assert getattr(fast, name) == value, name
            assert fast.estimated_rows is None
            assert fast.label() == fresh.label()
            checked += 1
    return checked


@pytest.fixture(scope="module")
def tpch_db():
    database = Database("all")
    data = generate_cached(0.001, 19921)
    for table in TABLE_NAMES:
        schema, rows = data.tables[table]
        database.create_table(table, schema, list(rows))
    return database


@pytest.mark.parametrize("name", QUERIES)
def test_tpch_plans_rebuild_to_the_same_nodes(tpch_db, name, monkeypatch):
    built = build_plan(parse_statement(query(name)), tpch_db.catalog)
    optimized = tpch_db.planner.optimize(built)
    for plan in (built, optimized):
        assert assert_fast_path_equals_constructor(plan, monkeypatch) >= 3


@given(sql=random_query())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_random_plans_rebuild_to_the_same_nodes(sql, monkeypatch):
    built = build_plan(parse_statement(sql), _SINGLE.catalog)
    optimized = _SINGLE.planner.optimize(built)
    for plan in (built, optimized):
        assert assert_fast_path_equals_constructor(plan, monkeypatch) >= 1


# -- a child with a different schema still goes through the constructor ------

T = Schema(
    [Field("a", INTEGER), Field("b", DOUBLE), Field("s", varchar(8))]
)
#: ``T`` with one type changed (a: INTEGER -> VARCHAR)
T_RETYPED = Schema(
    [Field("a", varchar(8)), Field("b", DOUBLE), Field("s", varchar(8))]
)
U = Schema([Field("x", INTEGER)])


def scan(schema=T, binding="t"):
    return algebra.Scan("t", binding, schema)


def item(text, name):
    return algebra.ProjectItem(parse_expression(text), name)


NODES = {
    "filter": lambda: algebra.Filter(scan(), parse_expression("t.a + 1 > 2")),
    "project": lambda: algebra.Project(
        scan(), [item("t.a * 2", "twice"), item("t.s", "s")]
    ),
    "join": lambda: algebra.Join(
        scan(), scan(U, "u"), parse_expression("t.a + 1 = u.x")
    ),
    "aggregate": lambda: algebra.Aggregate(
        scan(),
        [item("t.s", "s")],
        [algebra.AggregateSpec("SUM", parse_expression("t.a * 2"), "total")],
    ),
    "sort": lambda: algebra.Sort(
        scan(), [algebra.SortKey(parse_expression("t.a + 1"))]
    ),
}


def outcome(build):
    try:
        node = build()
    except ReproError as error:
        return type(error), str(error)
    return node.schema, node.label()


@pytest.mark.parametrize("kind", sorted(NODES))
@pytest.mark.parametrize(
    "changed, error",
    [
        (lambda: scan(T_RETYPED), TypeCheckError),  # one type differs
        (lambda: scan(T, "other"), BindError),  # one qualifier differs
    ],
    ids=["retyped", "requalified"],
)
def test_changed_input_schema_is_type_checked_again(kind, changed, error):
    node = NODES[kind]()
    children = [changed()] + node.children()[1:]
    rebuilt = outcome(lambda: node.with_children(children))
    assert rebuilt == outcome(lambda: CONSTRUCT[type(node)](node, children))
    assert rebuilt[0] is error


def test_changed_input_schema_that_still_types_gives_the_new_schema():
    project = algebra.Project(scan(), [item("t.a", "a")])
    rebuilt = project.with_children([scan(T_RETYPED)])
    assert rebuilt.schema == Schema([Field("a", varchar(8), "t")])
    assert project.schema == Schema([Field("a", INTEGER, "t")])


# -- deterministic work guard ------------------------------------------------

#: calls made by the second ``XDB.submit`` of Q5 on TD3 (sf 0.001, seed
#: 19921) at the parent commit e0f0e56, counted exactly as below — of
#: ``compile_expression``, the closure compiler ``bind`` replaced
PARENT_COMPILE_EXPRESSION_CALLS = 767
PARENT_SCHEMA_INIT_CALLS = 315


def test_submit_binds_less_than_the_parent_commit(monkeypatch):
    deployment, _ = build_tpch_deployment("TD3", 0.001)
    xdb = XDB(deployment)
    xdb.submit(query("Q5"))  # first-touch statistics and metadata
    bound = count_calls(monkeypatch, expressions, "bind")
    schemas = count_calls(monkeypatch, Schema, "__init__")
    xdb.submit(query("Q5"))
    assert bound[0] <= 0.6 * PARENT_COMPILE_EXPRESSION_CALLS
    assert schemas[0] <= 0.6 * PARENT_SCHEMA_INIT_CALLS
