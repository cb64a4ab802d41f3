"""Compilation of AST expressions into Python closures.

``compile_expression`` binds an :class:`repro.sql.ast.Expression` against
a :class:`repro.relational.schema.Schema` and returns a
:class:`CompiledExpression`: a zero-allocation callable over row tuples
plus the inferred output type.  SQL three-valued logic is implemented
throughout (``None`` is SQL NULL and propagates per the standard).

Aggregate calls must be rewritten away before compilation (the plan
builder replaces them with references to aggregate output columns);
encountering one here is a binding error.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import BindError, ExecutionError, TypeCheckError
from repro.sql import ast
from repro.sql.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    SQLType,
    TypeKind,
    common_supertype,
    comparable,
    type_of_value,
    varchar,
)

RowFn = Callable[[tuple], object]


@dataclass(frozen=True)
class CompiledExpression:
    """A bound, executable expression: ``fn(row) -> value`` plus type."""

    fn: RowFn
    type: SQLType

    def __call__(self, row: tuple) -> object:
        return self.fn(row)


# ---------------------------------------------------------------------------
# three-valued logic primitives
# ---------------------------------------------------------------------------


def sql_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene AND: False dominates, None is 'unknown'."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene OR: True dominates, None is 'unknown'."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: Optional[bool]) -> Optional[bool]:
    """Kleene NOT: unknown stays unknown."""
    return None if value is None else not value


def sql_mod(left, right):
    """SQL ``%`` on non-NULL operands: the remainder has the sign of the
    dividend, as in PostgreSQL, MariaDB, Hive and sqlite (Python's ``%``
    takes the divisor's); a zero divisor raises like ``/``."""
    if right == 0:
        raise ExecutionError("division by zero")
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: Dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": sql_mod,
}


def add_months(value: datetime.date, months: int) -> datetime.date:
    """Date plus a month interval, clamping the day like SQL engines do."""
    month_index = value.year * 12 + (value.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    day = value.day
    while day > 28:
        try:
            return datetime.date(year, month, day)
        except ValueError:
            day -= 1
    return datetime.date(year, month, day)


def shift_date(value: datetime.date, amount: int, unit: str) -> datetime.date:
    """Date plus ``amount`` DAY/MONTH/YEAR."""
    if unit == "DAY":
        return value + datetime.timedelta(days=amount)
    if unit == "MONTH":
        return add_months(value, amount)
    if unit == "YEAR":
        return add_months(value, amount * 12)
    raise ExecutionError(f"unsupported interval unit {unit!r}")


_LIKE_CACHE: Dict[str, "re.Pattern[str]"] = {}


def like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled (and cached) regex implementing a LIKE pattern."""
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        escaped = re.escape(pattern).replace("%", ".*").replace("_", ".")
        regex = re.compile(f"^{escaped}$", re.DOTALL)
        if len(_LIKE_CACHE) < 4096:
            _LIKE_CACHE[pattern] = regex
    return regex


def like_matches(value: Optional[str], pattern: Optional[str]) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_`` wildcards; NULL-propagating."""
    if value is None or pattern is None:
        return None
    return like_regex(pattern).match(value) is not None


# ---------------------------------------------------------------------------
# scalar function library
# ---------------------------------------------------------------------------


def _fn_upper(args: List[object]) -> object:
    (value,) = args
    return None if value is None else str(value).upper()


def _fn_lower(args: List[object]) -> object:
    (value,) = args
    return None if value is None else str(value).lower()


def _fn_length(args: List[object]) -> object:
    (value,) = args
    return None if value is None else len(str(value))


def _fn_abs(args: List[object]) -> object:
    (value,) = args
    return None if value is None else abs(value)


def _fn_round(args: List[object]) -> object:
    value = args[0]
    digits = args[1] if len(args) > 1 else 0
    if value is None or digits is None:
        return None
    return round(float(value), int(digits))


def _fn_coalesce(args: List[object]) -> object:
    for value in args:
        if value is not None:
            return value
    return None


def _fn_substr(args: List[object]) -> object:
    value = args[0]
    if value is None or args[1] is None:
        return None
    start = int(args[1]) - 1  # SQL is 1-based
    if len(args) > 2:
        if args[2] is None:
            return None
        return str(value)[start : start + int(args[2])]
    return str(value)[start:]


def _fn_concat(args: List[object]) -> object:
    if any(value is None for value in args):
        return None
    return "".join(str(value) for value in args)


@dataclass(frozen=True)
class _ScalarFunction:
    impl: Callable[[List[object]], object]
    arity_min: int
    arity_max: int
    result_type: Callable[[List[SQLType]], SQLType]


_SCALAR_FUNCTIONS: Dict[str, _ScalarFunction] = {
    "UPPER": _ScalarFunction(_fn_upper, 1, 1, lambda ts: varchar()),
    "LOWER": _ScalarFunction(_fn_lower, 1, 1, lambda ts: varchar()),
    "LENGTH": _ScalarFunction(_fn_length, 1, 1, lambda ts: INTEGER),
    "ABS": _ScalarFunction(_fn_abs, 1, 1, lambda ts: ts[0]),
    "ROUND": _ScalarFunction(_fn_round, 1, 2, lambda ts: DOUBLE),
    "COALESCE": _ScalarFunction(
        _fn_coalesce,
        1,
        99,
        lambda ts: _common_of_all(ts),
    ),
    "SUBSTR": _ScalarFunction(_fn_substr, 2, 3, lambda ts: varchar()),
    "SUBSTRING": _ScalarFunction(_fn_substr, 2, 3, lambda ts: varchar()),
    "CONCAT": _ScalarFunction(_fn_concat, 1, 99, lambda ts: varchar()),
}


def _common_of_all(types: List[SQLType]) -> SQLType:
    result = types[0]
    for candidate in types[1:]:
        result = common_supertype(result, candidate)
    return result


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


def compile_expression(
    expr: ast.Expression, schema
) -> CompiledExpression:
    """Bind and compile ``expr`` against ``schema``."""
    return _Compiler(schema).compile(expr)


def compile_predicate(expr: ast.Expression, schema) -> RowFn:
    """Compile a predicate: returns ``fn(row) -> bool`` (NULL counts False)."""
    compiled = compile_expression(expr, schema)
    if compiled.type.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
        raise TypeCheckError(
            f"predicate must be boolean, got {compiled.type}"
        )
    inner = compiled.fn
    return lambda row: inner(row) is True


class _Compiler:
    """Single-schema expression compiler (one instance per plan node)."""

    def __init__(self, schema):
        self._schema = schema

    def compile(self, expr: ast.Expression) -> CompiledExpression:
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise BindError(
                f"cannot compile expression node {type(expr).__name__}"
            )
        return method(expr)

    # -- leaves ---------------------------------------------------------

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> CompiledExpression:
        index = self._schema.resolve(expr.name, expr.table)
        field_type = self._schema[index].type
        return CompiledExpression(lambda row: row[index], field_type)

    def _compile_Literal(self, expr: ast.Literal) -> CompiledExpression:
        value = expr.value
        return CompiledExpression(lambda row: value, type_of_value(value))

    def _compile_IntervalLiteral(self, expr) -> CompiledExpression:
        raise BindError(
            "interval literals are only valid as date +/- INTERVAL operands"
        )

    def _compile_Star(self, expr: ast.Star) -> CompiledExpression:
        raise BindError("'*' is only valid in a select list or COUNT(*)")

    # -- operators --------------------------------------------------------

    def _compile_BinaryOp(self, expr: ast.BinaryOp) -> CompiledExpression:
        if expr.op in ("AND", "OR"):
            lf = self._boolean(expr.op, expr.left)
            rf = self._boolean(expr.op, expr.right)
            combine = sql_and if expr.op == "AND" else sql_or
            return CompiledExpression(
                lambda row: combine(lf(row), rf(row)), BOOLEAN
            )

        if expr.op in _COMPARATORS:
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            if not comparable(left.type, right.type):
                raise TypeCheckError(
                    f"cannot compare {left.type} {expr.op} {right.type}"
                )
            compare = _COMPARATORS[expr.op]
            lf, rf = left.fn, right.fn

            def compare_fn(row, lf=lf, rf=rf, compare=compare):
                lv = lf(row)
                if lv is None:
                    return None
                rv = rf(row)
                if rv is None:
                    return None
                return compare(lv, rv)

            return CompiledExpression(compare_fn, BOOLEAN)

        if expr.op == "||":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            lf, rf = left.fn, right.fn

            def concat_fn(row):
                lv, rv = lf(row), rf(row)
                if lv is None or rv is None:
                    return None
                return str(lv) + str(rv)

            return CompiledExpression(concat_fn, varchar())

        if expr.op in ("+", "-") and isinstance(
            expr.right, ast.IntervalLiteral
        ):
            operand = self.compile(expr.left)
            if operand.type.kind is not TypeKind.DATE:
                raise TypeCheckError(
                    f"INTERVAL arithmetic requires a DATE, got {operand.type}"
                )
            amount = expr.right.amount
            if expr.op == "-":
                amount = -amount
            unit = expr.right.unit
            inner = operand.fn

            def interval_fn(row):
                value = inner(row)
                if value is None:
                    return None
                return shift_date(value, amount, unit)

            return CompiledExpression(interval_fn, DATE)

        if expr.op in _ARITHMETIC or expr.op == "/":
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            if not (left.type.is_numeric and right.type.is_numeric):
                raise TypeCheckError(
                    f"arithmetic {expr.op} requires numeric operands, got "
                    f"{left.type} and {right.type}"
                )
            lf, rf = left.fn, right.fn
            if expr.op == "/":

                def divide_fn(row):
                    lv = lf(row)
                    if lv is None:
                        return None
                    rv = rf(row)
                    if rv is None:
                        return None
                    if rv == 0:
                        raise ExecutionError("division by zero")
                    return lv / rv

                return CompiledExpression(divide_fn, DOUBLE)

            operate = _ARITHMETIC[expr.op]

            def arith_fn(row, operate=operate):
                lv = lf(row)
                if lv is None:
                    return None
                rv = rf(row)
                if rv is None:
                    return None
                return operate(lv, rv)

            return CompiledExpression(
                arith_fn, common_supertype(left.type, right.type)
            )

        raise BindError(f"unsupported binary operator {expr.op!r}")

    def _boolean(self, op: str, operand: ast.Expression) -> RowFn:
        """The closure of a logical operator's operand, which must be
        BOOLEAN or NULL (as in PostgreSQL: ``WHERE a AND b`` over an
        INTEGER ``a`` is an error, not a truth value)."""
        compiled = self.compile(operand)
        if compiled.type.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
            raise TypeCheckError(
                f"argument of {op} must be type boolean, got {compiled.type}"
            )
        return compiled.fn

    def _compile_UnaryOp(self, expr: ast.UnaryOp) -> CompiledExpression:
        if expr.op == "NOT":
            inner = self._boolean("NOT", expr.operand)
            return CompiledExpression(lambda row: sql_not(inner(row)), BOOLEAN)
        operand = self.compile(expr.operand)
        inner = operand.fn
        if expr.op == "-":
            if not operand.type.is_numeric:
                raise TypeCheckError(
                    f"unary minus requires a numeric operand, got {operand.type}"
                )

            def negate_fn(row):
                value = inner(row)
                return None if value is None else -value

            return CompiledExpression(negate_fn, operand.type)
        raise BindError(f"unsupported unary operator {expr.op!r}")

    def _compile_IsNull(self, expr: ast.IsNull) -> CompiledExpression:
        inner = self.compile(expr.operand).fn
        if expr.negated:
            return CompiledExpression(
                lambda row: inner(row) is not None, BOOLEAN
            )
        return CompiledExpression(lambda row: inner(row) is None, BOOLEAN)

    def _compile_Between(self, expr: ast.Between) -> CompiledExpression:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        for bound in (low, high):
            if not comparable(operand.type, bound.type):
                raise TypeCheckError(
                    f"BETWEEN bounds must be comparable with {operand.type}"
                )
        of, lf, hf = operand.fn, low.fn, high.fn
        negated = expr.negated

        def between_fn(row):
            value = of(row)
            if value is None:
                return None
            lo, hi = lf(row), hf(row)
            if lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return not result if negated else result

        return CompiledExpression(between_fn, BOOLEAN)

    def _compile_InList(self, expr: ast.InList) -> CompiledExpression:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        for item in items:
            if not comparable(operand.type, item.type):
                raise TypeCheckError(
                    f"IN list item type {item.type} is not comparable "
                    f"with {operand.type}"
                )
        of = operand.fn
        item_fns = [item.fn for item in items]
        negated = expr.negated

        # Fast path: all-literal IN lists become a set membership test.
        if all(isinstance(item, ast.Literal) for item in expr.items):
            values = {item.value for item in expr.items}  # type: ignore[union-attr]
            has_null = None in values
            values.discard(None)

            def in_set_fn(row):
                value = of(row)
                if value is None:
                    return None
                if value in values:
                    return not negated
                if has_null:
                    return None
                return negated

            return CompiledExpression(in_set_fn, BOOLEAN)

        def in_list_fn(row):
            value = of(row)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                item_value = item_fn(row)
                if item_value is None:
                    saw_null = True
                elif item_value == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return CompiledExpression(in_list_fn, BOOLEAN)

    def _compile_Like(self, expr: ast.Like) -> CompiledExpression:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        if not (operand.type.is_text or operand.type.kind is TypeKind.NULL):
            raise TypeCheckError(
                f"LIKE requires a text operand, got {operand.type}"
            )
        of, pf = operand.fn, pattern.fn
        negated = expr.negated

        def like_fn(row):
            result = like_matches(of(row), pf(row))
            if result is None:
                return None
            return not result if negated else result

        return CompiledExpression(like_fn, BOOLEAN)

    def _compile_FunctionCall(self, expr: ast.FunctionCall) -> CompiledExpression:
        if ast.is_aggregate_call(expr):
            raise BindError(
                f"aggregate {expr.name} is not allowed in this context "
                "(aggregates must appear in a grouped select list or HAVING)"
            )
        function = _SCALAR_FUNCTIONS.get(expr.name.upper())
        if function is None:
            raise BindError(f"unknown function {expr.name!r}")
        if not function.arity_min <= len(expr.args) <= function.arity_max:
            raise BindError(
                f"function {expr.name} expects between {function.arity_min} "
                f"and {function.arity_max} arguments, got {len(expr.args)}"
            )
        compiled_args = [self.compile(arg) for arg in expr.args]
        arg_fns = [arg.fn for arg in compiled_args]
        impl = function.impl
        result_type = function.result_type([arg.type for arg in compiled_args])
        return CompiledExpression(
            lambda row: impl([fn(row) for fn in arg_fns]), result_type
        )

    def _compile_CaseWhen(self, expr: ast.CaseWhen) -> CompiledExpression:
        branches = [
            (self.compile(cond).fn, self.compile(result))
            for cond, result in expr.whens
        ]
        else_compiled = (
            self.compile(expr.else_result)
            if expr.else_result is not None
            else None
        )
        result_type = _common_of_all(
            [result.type for _, result in branches]
            + ([else_compiled.type] if else_compiled else [])
        )
        compiled_branches = [(cond, result.fn) for cond, result in branches]
        else_fn = else_compiled.fn if else_compiled else None

        def case_fn(row):
            for cond_fn, result_fn in compiled_branches:
                if cond_fn(row) is True:
                    return result_fn(row)
            return else_fn(row) if else_fn else None

        return CompiledExpression(case_fn, result_type)

    def _compile_Extract(self, expr: ast.Extract) -> CompiledExpression:
        operand = self.compile(expr.operand)
        if operand.type.kind is not TypeKind.DATE:
            raise TypeCheckError(
                f"EXTRACT requires a DATE operand, got {operand.type}"
            )
        attr = expr.unit.lower()
        inner = operand.fn

        def extract_fn(row):
            value = inner(row)
            return None if value is None else getattr(value, attr)

        return CompiledExpression(extract_fn, INTEGER)

    def _compile_Cast(self, expr: ast.Cast) -> CompiledExpression:
        operand = self.compile(expr.operand)
        target = expr.target
        inner = operand.fn

        def cast_fn(row):
            value = inner(row)
            if value is None:
                return None
            return cast_value(value, target)

        return CompiledExpression(cast_fn, target)


def cast_value(value: object, target: SQLType) -> object:
    """Runtime CAST semantics for the supported kinds."""
    kind = target.kind
    try:
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            if isinstance(value, datetime.date):
                raise TypeCheckError("cannot cast DATE to integer")
            return int(value)
        if kind in (TypeKind.DOUBLE, TypeKind.DECIMAL):
            if isinstance(value, datetime.date):
                raise TypeCheckError("cannot cast DATE to numeric")
            return float(value)
        if kind in (TypeKind.VARCHAR, TypeKind.CHAR):
            if isinstance(value, datetime.date):
                return value.isoformat()
            text = str(value)
            if target.length is not None:
                return text[: target.length]
            return text
        if kind is TypeKind.DATE:
            if isinstance(value, datetime.date):
                return value
            return datetime.date.fromisoformat(str(value))
        if kind is TypeKind.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            text = str(value).strip().lower()
            if text in ("t", "true", "1", "yes"):
                return True
            if text in ("f", "false", "0", "no"):
                return False
            raise TypeCheckError(f"cannot cast {value!r} to BOOLEAN")
    except (ValueError, TypeError) as exc:
        raise ExecutionError(f"CAST failed for {value!r} -> {target}: {exc}")
    raise TypeCheckError(f"unsupported CAST target {target}")
