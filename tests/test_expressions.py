"""Expression compiler tests: evaluation, 3VL, functions, casts."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import vector
from repro.errors import BindError, ExecutionError, TypeCheckError
from repro.relational.expressions import (
    add_months,
    compile_expression,
    compile_predicate,
    like_matches,
    shift_date,
    sql_and,
    sql_not,
    sql_or,
)
from repro.relational.schema import Field, Schema
from repro.sql.parser import parse_expression
from repro.sql.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    TypeKind,
    varchar,
)

SCHEMA = Schema(
    [
        Field("a", INTEGER, "t"),
        Field("b", DOUBLE, "t"),
        Field("s", varchar(10), "t"),
        Field("d", DATE, "t"),
        Field("flag", BOOLEAN, "t"),
    ]
)

ROW = (7, 2.5, "hello", datetime.date(2021, 3, 14), True)
NULL_ROW = (None, None, None, None, None)


def evaluate(text, row=ROW):
    return compile_expression(parse_expression(text), SCHEMA)(row)


# -- basic evaluation ---------------------------------------------------------


def test_column_access_qualified_and_unqualified():
    assert evaluate("a") == 7
    assert evaluate("t.a") == 7


def test_arithmetic():
    assert evaluate("a + 3") == 10
    assert evaluate("a * b") == 17.5
    assert evaluate("a - 10") == -3
    assert evaluate("a % 4") == 3


def test_division_is_float_and_zero_raises():
    assert evaluate("a / 2") == 3.5
    with pytest.raises(ExecutionError):
        evaluate("a / 0")


@pytest.mark.parametrize(
    "text, want",
    [
        ("-a % 4", -3),  # Python's % would say 1
        ("a % -4", 3),
        ("-7.5 % 2", -1.5),  # Python's % would say 0.5
        ("-b % 2", -0.5),
    ],
)
def test_modulo_takes_the_sign_of_the_dividend(text, want):
    """As in PostgreSQL, MariaDB, Hive and sqlite — in the closures and
    in the kernels alike."""
    expr = parse_expression(text)
    assert compile_expression(expr, SCHEMA)(ROW) == want
    assert vector.column_kernel(expr, SCHEMA)([ROW]) == [want]


@pytest.mark.parametrize("text", ["a % 0", "b % (a - a)", "a % 0.0"])
def test_modulo_by_zero_raises_like_division(text):
    expr = parse_expression(text)
    with pytest.raises(ExecutionError, match="division by zero"):
        compile_expression(expr, SCHEMA)(ROW)
    with pytest.raises(ExecutionError, match="division by zero"):
        vector.column_kernel(expr, SCHEMA)([ROW])


def test_comparisons():
    assert evaluate("a = 7") is True
    assert evaluate("a <> 7") is False
    assert evaluate("b >= 2.5") is True
    assert evaluate("s < 'world'") is True


def test_concat():
    assert evaluate("s || '!'") == "hello!"


def test_unary_minus():
    assert evaluate("-a") == -7


def test_case_when():
    assert evaluate("CASE WHEN a > 5 THEN 'big' ELSE 'small' END") == "big"
    assert (
        evaluate("CASE WHEN a > 50 THEN 'big' END") is None
    )  # no ELSE -> NULL


def test_between_and_in():
    assert evaluate("a BETWEEN 5 AND 9") is True
    assert evaluate("a NOT BETWEEN 5 AND 9") is False
    assert evaluate("a IN (1, 7, 9)") is True
    assert evaluate("a NOT IN (1, 7, 9)") is False


def test_like():
    assert evaluate("s LIKE 'he%'") is True
    assert evaluate("s LIKE 'h_llo'") is True
    assert evaluate("s NOT LIKE 'x%'") is True
    assert evaluate("s LIKE '%ell%'") is True


def test_like_special_chars_escaped():
    assert like_matches("a.b", "a.b") is True
    assert like_matches("axb", "a.b") is False  # '.' is literal


def test_extract():
    assert evaluate("EXTRACT(YEAR FROM d)") == 2021
    assert evaluate("EXTRACT(MONTH FROM d)") == 3
    assert evaluate("EXTRACT(DAY FROM d)") == 14


def test_date_interval_arithmetic():
    assert evaluate("d + INTERVAL '10' DAY") == datetime.date(2021, 3, 24)
    assert evaluate("d - INTERVAL '1' MONTH") == datetime.date(2021, 2, 14)
    assert evaluate("d + INTERVAL '2' YEAR") == datetime.date(2023, 3, 14)


def test_add_months_clamps_day():
    assert add_months(datetime.date(2021, 1, 31), 1) == datetime.date(
        2021, 2, 28
    )
    assert add_months(datetime.date(2020, 1, 31), 1) == datetime.date(
        2020, 2, 29
    )


def test_shift_date_rejects_bad_unit():
    with pytest.raises(ExecutionError):
        shift_date(datetime.date(2020, 1, 1), 1, "WEEK")


def test_is_null():
    assert evaluate("a IS NULL") is False
    assert evaluate("a IS NOT NULL") is True
    assert evaluate("a IS NULL", NULL_ROW) is True


# -- three-valued logic ----------------------------------------------------------


def test_kleene_tables():
    assert sql_and(True, None) is None
    assert sql_and(False, None) is False
    assert sql_or(True, None) is True
    assert sql_or(False, None) is None
    assert sql_not(None) is None


def test_null_propagation_in_comparisons():
    assert evaluate("a = 7", NULL_ROW) is None
    assert evaluate("a + 1", NULL_ROW) is None
    assert evaluate("s LIKE 'x%'", NULL_ROW) is None
    assert evaluate("a BETWEEN 1 AND 2", NULL_ROW) is None


def test_null_in_list_semantics():
    # 7 IN (1, NULL) is NULL (unknown); 7 IN (7, NULL) is TRUE.
    assert evaluate("a IN (1, NULL)") is None
    assert evaluate("a IN (7, NULL)") is True
    assert evaluate("a NOT IN (1, NULL)") is None


def test_predicate_treats_null_as_false():
    predicate = compile_predicate(parse_expression("a > 5"), SCHEMA)
    assert predicate(ROW) is True
    assert predicate(NULL_ROW) is False


def test_predicate_requires_boolean():
    with pytest.raises(TypeCheckError):
        compile_predicate(parse_expression("a + 1"), SCHEMA)


# -- scalar functions -------------------------------------------------------------


def test_scalar_functions():
    assert evaluate("UPPER(s)") == "HELLO"
    assert evaluate("LOWER('ABC')") == "abc"
    assert evaluate("LENGTH(s)") == 5
    assert evaluate("ABS(-3)") == 3
    assert evaluate("ROUND(b)") == 2.0
    assert evaluate("ROUND(2.345, 2)") == 2.35
    assert evaluate("COALESCE(NULL, a, 1)") == 7
    assert evaluate("SUBSTR(s, 2, 3)") == "ell"
    assert evaluate("CONCAT(s, '-', s)") == "hello-hello"


def test_functions_propagate_null():
    assert evaluate("UPPER(s)", NULL_ROW) is None
    assert evaluate("COALESCE(s, 'x')", NULL_ROW) == "x"


def test_unknown_function_raises():
    with pytest.raises(BindError):
        evaluate("FROBNICATE(a)")


def test_wrong_arity_raises():
    with pytest.raises(BindError):
        evaluate("LENGTH(s, s)")


def test_aggregate_in_scalar_context_raises():
    with pytest.raises(BindError):
        evaluate("SUM(a)")


# -- casts ----------------------------------------------------------------------


def test_casts():
    assert evaluate("CAST(b AS INTEGER)") == 2
    assert evaluate("CAST(a AS DOUBLE)") == 7.0
    assert evaluate("CAST(a AS VARCHAR(1))") == "7"
    assert evaluate("CAST('2020-05-06' AS DATE)") == datetime.date(2020, 5, 6)
    assert evaluate("CAST('true' AS BOOLEAN)") is True
    assert evaluate("CAST(0 AS BOOLEAN)") is False


def test_cast_failure_raises_execution_error():
    with pytest.raises(ExecutionError):
        evaluate("CAST('abc' AS INTEGER)")


# -- binding / typing errors ---------------------------------------------------------


def test_unknown_column():
    with pytest.raises(BindError):
        evaluate("nope")


def test_type_mismatch_comparison():
    with pytest.raises(TypeCheckError):
        evaluate("d > 5")


def test_arithmetic_on_text_rejected():
    with pytest.raises(TypeCheckError):
        evaluate("s + 1")


def test_interval_on_non_date_rejected():
    with pytest.raises(TypeCheckError):
        evaluate("a + INTERVAL '1' DAY")


def test_result_type_inference():
    compiled = compile_expression(parse_expression("a + 1"), SCHEMA)
    assert compiled.type.kind is TypeKind.INTEGER
    compiled = compile_expression(parse_expression("a / 2"), SCHEMA)
    assert compiled.type.kind is TypeKind.DOUBLE
    compiled = compile_expression(parse_expression("a > 1"), SCHEMA)
    assert compiled.type.kind is TypeKind.BOOLEAN


# -- property-based 3VL laws ------------------------------------------------------

TRI = st.sampled_from([True, False, None])


@given(TRI, TRI)
@settings(max_examples=100, deadline=None)
def test_de_morgan_holds_under_3vl(p, q):
    assert sql_not(sql_and(p, q)) == sql_or(sql_not(p), sql_not(q))
    assert sql_not(sql_or(p, q)) == sql_and(sql_not(p), sql_not(q))


@given(TRI, TRI, TRI)
@settings(max_examples=100, deadline=None)
def test_and_or_associativity(p, q, r):
    assert sql_and(p, sql_and(q, r)) == sql_and(sql_and(p, q), r)
    assert sql_or(p, sql_or(q, r)) == sql_or(sql_or(p, q), r)
