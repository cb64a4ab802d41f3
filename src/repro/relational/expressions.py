"""SQL expression semantics: one binder and the runtime helpers.

:func:`bind` resolves every column of an :class:`repro.sql.ast.Expression`
against a :class:`repro.relational.schema.Schema` and returns the
expression's :class:`~repro.sql.types.SQLType`.  It holds every
``BindError`` / ``TypeCheckError`` rule of an expression, and it builds
nothing to run: evaluation is the generated kernels of
:mod:`repro.engine.vector`, which lower only expressions that bound.
The runtime helpers those kernels call live here: Kleene logic
(``None`` is SQL NULL), ``sql_mod``, ``shift_date``, ``like_regex``,
the scalar-function implementations and ``cast_value``.

Aggregate calls must be rewritten away before binding (the plan
builder replaces them with references to aggregate output columns);
encountering one here is a binding error.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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


#: Comparison operators: NULL-strict, BOOLEAN-valued.
COMPARISONS = frozenset(["=", "<>", "!=", "<", ">", "<=", ">="])

#: Arithmetic operators: NULL-strict over numeric operands.
ARITHMETIC = frozenset(["+", "-", "*", "/", "%"])


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
class ScalarFunction:
    """A scalar function: its implementation, arity and typing."""

    impl: Callable[[List[object]], object]
    arity_min: int
    arity_max: int
    result_type: Callable[[List[SQLType]], SQLType]
    #: the argument positions that must be numeric (or NULL)
    numeric: Tuple[int, ...] = ()


#: The scalar functions by upper-case name.  A kernel calls ``impl``
#: with the list of its argument values.
SCALAR_FUNCTIONS: Dict[str, ScalarFunction] = {
    "UPPER": ScalarFunction(_fn_upper, 1, 1, lambda ts: varchar()),
    "LOWER": ScalarFunction(_fn_lower, 1, 1, lambda ts: varchar()),
    "LENGTH": ScalarFunction(_fn_length, 1, 1, lambda ts: INTEGER),
    "ABS": ScalarFunction(_fn_abs, 1, 1, lambda ts: ts[0], (0,)),
    "ROUND": ScalarFunction(_fn_round, 1, 2, lambda ts: DOUBLE, (0, 1)),
    "COALESCE": ScalarFunction(
        _fn_coalesce,
        1,
        99,
        lambda ts: _common_of_all(ts),
    ),
    "SUBSTR": ScalarFunction(_fn_substr, 2, 3, lambda ts: varchar(), (1, 2)),
    "SUBSTRING": ScalarFunction(_fn_substr, 2, 3, lambda ts: varchar(), (1, 2)),
    "CONCAT": ScalarFunction(_fn_concat, 1, 99, lambda ts: varchar()),
}


def _common_of_all(types: List[SQLType]) -> SQLType:
    result = types[0]
    for candidate in types[1:]:
        result = common_supertype(result, candidate)
    return result


# ---------------------------------------------------------------------------
# the binder
# ---------------------------------------------------------------------------


def bind(expr: ast.Expression, schema) -> SQLType:
    """The type of ``expr`` over ``schema``: every column resolved and
    every type rule checked, or the ``BindError`` / ``TypeCheckError``
    of the first rule it breaks."""
    return _Binder(schema).bind(expr)


def require_boolean(what: str, sql_type: SQLType) -> None:
    """The rule for a truth value (an operand of AND / OR / NOT, a
    WHEN condition, a filter predicate or a join condition): BOOLEAN or
    NULL, as in PostgreSQL — ``WHERE a AND b`` over an INTEGER ``a`` is
    an error, not a truth value."""
    if sql_type.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
        raise TypeCheckError(f"{what} must be type boolean, got {sql_type}")


def _numeric(sql_type: SQLType) -> bool:
    return sql_type.is_numeric or sql_type.kind is TypeKind.NULL


def _text(sql_type: SQLType) -> bool:
    return sql_type.is_text or sql_type.kind is TypeKind.NULL


class _Binder:
    """Single-schema expression binder: one ``_bind_<node>`` per node
    type it admits."""

    def __init__(self, schema):
        self._schema = schema

    def bind(self, expr: ast.Expression) -> SQLType:
        method = getattr(self, f"_bind_{type(expr).__name__}", None)
        if method is None:
            raise BindError(
                f"cannot compile expression node {type(expr).__name__}"
            )
        return method(expr)

    def _boolean(self, what: str, operand: ast.Expression) -> None:
        require_boolean(what, self.bind(operand))

    # -- leaves ---------------------------------------------------------

    def _bind_ColumnRef(self, expr: ast.ColumnRef) -> SQLType:
        return self._schema.field_of(expr.name, expr.table).type

    def _bind_Literal(self, expr: ast.Literal) -> SQLType:
        return type_of_value(expr.value)

    def _bind_IntervalLiteral(self, expr: ast.IntervalLiteral) -> SQLType:
        raise BindError(
            "interval literals are only valid as date +/- INTERVAL operands"
        )

    def _bind_Star(self, expr: ast.Star) -> SQLType:
        raise BindError("'*' is only valid in a select list or COUNT(*)")

    # -- operators --------------------------------------------------------

    def _bind_BinaryOp(self, expr: ast.BinaryOp) -> SQLType:
        op = expr.op
        if op in ("AND", "OR"):
            self._boolean(f"argument of {op}", expr.left)
            self._boolean(f"argument of {op}", expr.right)
            return BOOLEAN
        if op in COMPARISONS:
            left, right = self.bind(expr.left), self.bind(expr.right)
            if not comparable(left, right):
                raise TypeCheckError(f"cannot compare {left} {op} {right}")
            return BOOLEAN
        if op == "||":
            self.bind(expr.left)
            self.bind(expr.right)
            return varchar()
        if op in ("+", "-") and isinstance(expr.right, ast.IntervalLiteral):
            operand = self.bind(expr.left)
            if operand.kind is not TypeKind.DATE:
                raise TypeCheckError(
                    f"INTERVAL arithmetic requires a DATE, got {operand}"
                )
            return DATE
        if op in ARITHMETIC:
            left, right = self.bind(expr.left), self.bind(expr.right)
            if not (left.is_numeric and right.is_numeric):
                raise TypeCheckError(
                    f"arithmetic {op} requires numeric operands, got "
                    f"{left} and {right}"
                )
            return DOUBLE if op == "/" else common_supertype(left, right)
        raise BindError(f"unsupported binary operator {op!r}")

    def _bind_UnaryOp(self, expr: ast.UnaryOp) -> SQLType:
        if expr.op == "NOT":
            self._boolean("argument of NOT", expr.operand)
            return BOOLEAN
        operand = self.bind(expr.operand)
        if expr.op == "-":
            if not operand.is_numeric:
                raise TypeCheckError(
                    f"unary minus requires a numeric operand, got {operand}"
                )
            return operand
        raise BindError(f"unsupported unary operator {expr.op!r}")

    def _bind_IsNull(self, expr: ast.IsNull) -> SQLType:
        self.bind(expr.operand)
        return BOOLEAN

    def _bind_Between(self, expr: ast.Between) -> SQLType:
        operand = self.bind(expr.operand)
        bounds = (self.bind(expr.low), self.bind(expr.high))
        for bound in bounds:
            if not comparable(operand, bound):
                raise TypeCheckError(
                    f"BETWEEN bounds must be comparable with {operand}"
                )
        return BOOLEAN

    def _bind_InList(self, expr: ast.InList) -> SQLType:
        operand = self.bind(expr.operand)
        items = [self.bind(item) for item in expr.items]
        for item in items:
            if not comparable(operand, item):
                raise TypeCheckError(
                    f"IN list item type {item} is not comparable "
                    f"with {operand}"
                )
        return BOOLEAN

    def _bind_Like(self, expr: ast.Like) -> SQLType:
        operand = self.bind(expr.operand)
        pattern = self.bind(expr.pattern)
        if not _text(operand):
            raise TypeCheckError(f"LIKE requires a text operand, got {operand}")
        if not _text(pattern):
            raise TypeCheckError(f"LIKE requires a text pattern, got {pattern}")
        return BOOLEAN

    def _bind_FunctionCall(self, expr: ast.FunctionCall) -> SQLType:
        if ast.is_aggregate_call(expr):
            raise BindError(
                f"aggregate {expr.name} is not allowed in this context "
                "(aggregates must appear in a grouped select list or HAVING)"
            )
        function = SCALAR_FUNCTIONS.get(expr.name.upper())
        if function is None:
            raise BindError(f"unknown function {expr.name!r}")
        if not function.arity_min <= len(expr.args) <= function.arity_max:
            raise BindError(
                f"function {expr.name} expects between {function.arity_min} "
                f"and {function.arity_max} arguments, got {len(expr.args)}"
            )
        types = [self.bind(arg) for arg in expr.args]
        for position in function.numeric:
            if position < len(types) and not _numeric(types[position]):
                raise TypeCheckError(
                    f"argument {position + 1} of {expr.name} must be "
                    f"numeric, got {types[position]}"
                )
        return function.result_type(types)

    def _bind_CaseWhen(self, expr: ast.CaseWhen) -> SQLType:
        results = []
        for condition, result in expr.whens:
            self._boolean("argument of CASE/WHEN", condition)
            results.append(self.bind(result))
        if expr.else_result is not None:
            results.append(self.bind(expr.else_result))
        return _common_of_all(results)

    def _bind_Extract(self, expr: ast.Extract) -> SQLType:
        operand = self.bind(expr.operand)
        if operand.kind is not TypeKind.DATE:
            raise TypeCheckError(
                f"EXTRACT requires a DATE operand, got {operand}"
            )
        return INTEGER

    def _bind_Cast(self, expr: ast.Cast) -> SQLType:
        self.bind(expr.operand)
        return expr.target


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
