"""Logical algebra node tests: schemas, rewriting support, helpers."""

import pytest

from repro.errors import BindError, TypeCheckError
from repro.relational import algebra
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.sql.types import DOUBLE, INTEGER, TypeKind, varchar

T = Schema([Field("a", INTEGER), Field("b", DOUBLE), Field("s", varchar(8))])
U = Schema([Field("a", INTEGER), Field("w", INTEGER)])


def scan(table="t", binding=None, schema=T, db="DB"):
    return algebra.Scan(table, binding or table, schema, source_db=db)


def test_scan_requalifies_schema():
    node = scan(binding="x")
    assert all(f.relation == "x" for f in node.schema)


def test_scan_placeholder_keeps_qualifiers():
    mixed = Schema([Field("a", INTEGER, "t"), Field("w", INTEGER, "u")])
    node = algebra.Scan(
        "ph", "xin", mixed, placeholder=True, requalify=False
    )
    assert node.schema.fields[0].relation == "t"
    assert node.label().startswith("Scan[?")


def test_filter_type_checks_predicate():
    node = scan()
    algebra.Filter(node, parse_expression("t.a > 1"))
    with pytest.raises(TypeCheckError):
        algebra.Filter(node, parse_expression("t.a + 1"))


def test_filter_unknown_column():
    with pytest.raises(BindError):
        algebra.Filter(scan(), parse_expression("nope = 1"))


def test_project_schema_and_qualifiers():
    node = algebra.Project(
        scan(),
        [
            algebra.ProjectItem(parse_expression("t.a"), "a"),
            algebra.ProjectItem(parse_expression("t.a + t.b"), "total"),
        ],
    )
    assert node.schema[0].relation == "t"  # bare ref keeps qualifier
    assert node.schema[1].relation is None  # computed column does not
    assert node.schema[1].type.kind is TypeKind.DOUBLE


def test_join_schema_concat_and_equi_keys():
    left = scan("t", "t", T)
    right = scan("u", "u", U)
    node = algebra.Join(left, right, parse_expression("t.a = u.a"))
    assert len(node.schema) == len(T) + len(U)
    keys = node.equi_keys()
    assert keys is not None and len(keys) == 1
    left_key, right_key = keys[0]
    assert (left_key.table, right_key.table) == ("t", "u")


def test_equi_keys_normalizes_sides():
    node = algebra.Join(
        scan("t", "t", T), scan("u", "u", U),
        parse_expression("u.a = t.a"),
    )
    left_key, right_key = node.equi_keys()[0]
    assert left_key.table == "t" and right_key.table == "u"


def test_equi_keys_none_for_non_equi():
    node = algebra.Join(
        scan("t", "t", T), scan("u", "u", U),
        parse_expression("t.a < u.a"),
    )
    assert node.equi_keys() is None


def test_join_rejects_bad_kind():
    with pytest.raises(BindError):
        algebra.Join(scan(), scan("u", "u", U), None, "FULL")


def test_aggregate_schema_types():
    node = algebra.Aggregate(
        scan(),
        [algebra.ProjectItem(parse_expression("t.s"), "s")],
        [
            algebra.AggregateSpec("COUNT", None, "n"),
            algebra.AggregateSpec("AVG", parse_expression("t.b"), "m"),
            algebra.AggregateSpec("SUM", parse_expression("t.a"), "total"),
        ],
    )
    kinds = {f.name: f.type.kind for f in node.schema}
    assert kinds["n"] is TypeKind.BIGINT
    assert kinds["m"] is TypeKind.DOUBLE
    assert kinds["total"] is TypeKind.BIGINT


def test_aggregate_spec_requires_arg():
    with pytest.raises(BindError):
        algebra.AggregateSpec("SUM", None, "x").result_type(T)


def test_alias_rebinds():
    node = algebra.Alias(scan(binding="inner"), "outer")
    assert all(f.relation == "outer" for f in node.schema)
    assert node.label() == "Alias[outer]"


def test_with_children_rebuilds():
    original = algebra.Filter(scan(), parse_expression("t.a > 1"))
    replacement = scan()
    rebuilt = original.with_children([replacement])
    assert rebuilt.child is replacement
    assert rebuilt.predicate == original.predicate


def test_leaves_traversal():
    join = algebra.Join(
        algebra.Filter(scan(), parse_expression("t.a > 0")),
        scan("u", "u", U),
        parse_expression("t.a = u.a"),
    )
    assert [leaf.table for leaf in join.leaves()] == ["t", "u"]


def test_pretty_includes_all_nodes():
    node = algebra.Limit(
        algebra.Sort(
            algebra.Project(
                scan(), [algebra.ProjectItem(parse_expression("t.a"), "a")]
            ),
            [algebra.SortKey(parse_expression("a"), False)],
        ),
        5,
    )
    text = node.pretty()
    for token in ("Limit[5]", "Sort[", "Project[", "Scan["):
        assert token in text


def test_conjuncts_and_conjoin_helpers():
    expr = parse_expression("a = 1 AND b = 2 AND c = 3")
    parts = ast.conjuncts(expr)
    assert len(parts) == 3
    rebuilt = ast.conjoin(parts)
    assert ast.conjuncts(rebuilt) == parts
    assert ast.conjoin([]) is None
    assert ast.conjuncts(None) == []


def test_column_refs_and_referenced_tables():
    expr = parse_expression("t.a + u.w > t.b")
    refs = ast.column_refs(expr)
    assert [r.name for r in refs] == ["a", "w", "b"]
