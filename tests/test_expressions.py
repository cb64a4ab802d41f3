"""Expression tests: binding, evaluation by kernel, 3VL, functions,
casts."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import vector
from repro.engine.database import Database
from repro.errors import BindError, ExecutionError, TypeCheckError
from repro.relational import algebra
from repro.relational.expressions import (
    add_months,
    bind,
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
    """``text`` bound over ``SCHEMA``, then run by a kernel on ``row``."""
    expr = parse_expression(text)
    bind(expr, SCHEMA)
    return vector.column_kernel(expr, SCHEMA)([row])[0]


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
    """As in PostgreSQL, MariaDB, Hive and sqlite."""
    assert evaluate(text) == want


@pytest.mark.parametrize("text", ["a % 0", "b % (a - a)", "a % 0.0"])
def test_modulo_by_zero_raises_like_division(text):
    with pytest.raises(ExecutionError, match="division by zero"):
        evaluate(text)


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
    select = vector.filter_kernel(parse_expression("a > 5"), SCHEMA)
    assert select([ROW, NULL_ROW]) == [ROW]


def test_predicate_requires_boolean():
    with pytest.raises(TypeCheckError, match="must be type boolean"):
        algebra.Filter(algebra.Scan("t", "t", SCHEMA), parse_expression("a + 1"))


@pytest.mark.parametrize(
    "text", ["a AND b > 1", "a OR b > 3", "flag AND s", "NOT a", "NOT (flag OR d)"]
)
def test_logical_operators_take_only_boolean_operands(text):
    """As in PostgreSQL ("argument of AND must be type boolean"): an
    INTEGER is no truth value, where sqlite would read 0 as false."""
    with pytest.raises(TypeCheckError, match="must be type boolean"):
        evaluate(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("flag AND NULL", None),
        ("NULL OR flag", True),
        ("NOT NULL", None),
        ("NOT flag AND a > 1", False),
    ],
)
def test_logical_operators_take_boolean_and_null_operands(text, want):
    assert evaluate(text) is want


@pytest.mark.parametrize(
    "where", ["a AND b > 1", "a OR b > 3", "NOT a", "b > 1 AND (a OR b > 3)"]
)
def test_a_filter_on_an_integer_truth_value_is_rejected(where):
    """Once answered {2, 3} and {4} where sqlite answers {2} and
    {2, 4, NULL}: a non-boolean operand's truth went by ``is False``."""
    database = Database("D")
    database.create_table(
        "t",
        Schema([Field("a", INTEGER), Field("b", INTEGER)]),
        [(1, 2), (0, 3), (None, 4), (2, None)],
    )
    with pytest.raises(TypeCheckError, match="must be type boolean"):
        database.execute(f"SELECT b FROM t WHERE {where}")


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
    assert bind(parse_expression("a + 1"), SCHEMA).kind is TypeKind.INTEGER
    assert bind(parse_expression("a / 2"), SCHEMA).kind is TypeKind.DOUBLE
    assert bind(parse_expression("a > 1"), SCHEMA).kind is TypeKind.BOOLEAN


def _integer_table():
    database = Database("D")
    database.create_table(
        "t",
        Schema([Field("a", INTEGER), Field("s", varchar(8))]),
        [(1, "x"), (0, "y"), (None, None)],
    )
    return database


def test_a_when_condition_must_be_boolean():
    """As in PostgreSQL ("argument of CASE/WHEN must be type boolean"):
    an INTEGER condition once answered 'n' for a = 1, where sqlite
    reads 1 as true and answers 'y'."""
    with pytest.raises(TypeCheckError, match="argument of CASE/WHEN must be type boolean"):
        _integer_table().execute("SELECT CASE WHEN a THEN 'y' ELSE 'n' END FROM t")
    with pytest.raises(TypeCheckError, match="CASE/WHEN"):
        evaluate("CASE WHEN a > 1 THEN 1 WHEN s THEN 2 END")
    assert evaluate("CASE WHEN NULL THEN 1 WHEN flag THEN 2 END") == 2


@pytest.mark.parametrize(
    "item",
    ["s LIKE 5", "ABS(s)", "ROUND(s)", "SUBSTR(s, s)", "SUBSTR(s, 1, s)", "ROUND(a, s)"],
)
def test_argument_types_are_checked_at_bind(item):
    """Each once raised Python's TypeError or ValueError mid-execution
    over a VARCHAR ``s``: no ReproError, and only once a row arrived."""
    with pytest.raises(TypeCheckError):
        _integer_table().execute(f"SELECT {item} FROM t")


def test_argument_type_rules_admit_null():
    assert evaluate("NULL LIKE NULL") is None
    assert evaluate("s LIKE NULL") is None
    assert evaluate("ABS(NULL)") is None
    assert evaluate("SUBSTR(s, NULL)") is None
    assert evaluate("UPPER(a)") == "7" and evaluate("LENGTH(d)") == 10


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
