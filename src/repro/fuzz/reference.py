"""The reference engine: stdlib ``sqlite3`` answers what the engine answers.

:mod:`repro.engine` stands in for the paper's member DBMSes, so it is
judged by a real one that shares none of its parser, binder, coercion
or NULL logic.  :class:`Reference` copies ``(name, schema, rows)``
tables into an in-memory sqlite database and runs a parsed statement
through a private dialect — deliberately not registered in
:mod:`repro.sql.dialects`, so neither ``available_dialects()`` nor the
round-trip invariant sees it — that renders away where the engine's
SQL and sqlite's differ:

* a DATE is ISO text: a DATE literal is a string, ``EXTRACT`` is
  ``strftime``, ``± INTERVAL`` is ``date(x, '±N days|months|years')``;
* ``/`` divides as REAL (sqlite divides integers as integers);
* ``ORDER BY`` spells out the engine's NULL order: NULLS LAST
  ascending, NULLS FIRST descending;
* ``LIKE`` is case sensitive (``PRAGMA case_sensitive_like``).

DATE output columns are turned back into dates from the engine's result
schema.  What is *not* rendered away is pinned, by value, in
``tests/test_sqlite_reference.py`` (DESIGN.md §9).
"""

from __future__ import annotations

import datetime
import math
import sqlite3
from typing import Iterable, List, Sequence, Tuple

from repro.sql import ast
from repro.sql.render import Renderer
from repro.sql.types import TypeKind

#: sqlite column type per engine type kind; every other kind is TEXT.
_COLUMN_TYPES = {
    TypeKind.BOOLEAN: "INTEGER",
    TypeKind.INTEGER: "INTEGER",
    TypeKind.BIGINT: "INTEGER",
    TypeKind.DOUBLE: "REAL",
    TypeKind.DECIMAL: "REAL",
}
_STRFTIME = {"YEAR": "%Y", "MONTH": "%m", "DAY": "%d"}
_MODIFIERS = {"DAY": "days", "MONTH": "months", "YEAR": "years"}


class _SQLiteDialect(Renderer):
    def literal(self, value) -> str:
        if isinstance(value, datetime.date):
            value = value.isoformat()
        return super().literal(value)

    def _expr_BinaryOp(self, expr: ast.BinaryOp) -> str:
        right = expr.right
        if expr.op in ("+", "-") and isinstance(right, ast.IntervalLiteral):
            amount = right.amount if expr.op == "+" else -right.amount
            modifier = f"{amount:+d} {_MODIFIERS[right.unit]}"
            return f"date({self.expression(expr.left)}, '{modifier}')"
        if expr.op == "/":
            left = self.expression(expr.left)
            return f"CAST({left} AS REAL) / {self._wrap(right, 7)}"
        return super()._expr_BinaryOp(expr)

    def _expr_Extract(self, expr: ast.Extract) -> str:
        operand = self.expression(expr.operand)
        return f"CAST(strftime('{_STRFTIME[expr.unit]}', {operand}) AS INTEGER)"

    def _order_item(self, item: ast.OrderItem) -> str:
        nulls = "NULLS LAST" if item.ascending else "NULLS FIRST"
        return f"{super()._order_item(item)} {nulls}"


_DIALECT = _SQLiteDialect()


class Reference:
    """An in-memory sqlite database holding copies of engine tables."""

    def __init__(self, tables: Iterable[Tuple[str, object, Sequence[tuple]]]):
        """Copy ``(name, schema, rows)`` tables as the engine holds them."""
        self._db = sqlite3.connect(":memory:")
        self._db.execute("PRAGMA case_sensitive_like = ON")
        for name, schema, rows in tables:
            table = _DIALECT.identifier(name)
            columns = ", ".join(
                f"{_DIALECT.identifier(field.name)} "
                f"{_COLUMN_TYPES.get(field.type.kind, 'TEXT')}"
                for field in schema.fields
            )
            self._db.execute(f"CREATE TABLE {table} ({columns})")
            self._db.executemany(
                f"INSERT INTO {table} VALUES ({', '.join('?' * len(schema.fields))})",
                (
                    [v.isoformat() if isinstance(v, datetime.date) else v for v in row]
                    for row in rows
                ),
            )

    def rows(self, statement: ast.Statement, schema) -> List[tuple]:
        """sqlite's answer to ``statement``; ``schema`` is the engine's
        result schema, which says which output columns are DATEs."""
        found = self._db.execute(_DIALECT.render(statement)).fetchall()
        dates = {
            index
            for index, field in enumerate(schema.fields)
            if field.type.kind is TypeKind.DATE
        }
        if not dates:
            return found
        return [
            tuple(
                datetime.date.fromisoformat(value)
                if index in dates and value is not None
                else value
                for index, value in enumerate(row)
            )
            for row in found
        ]

    def close(self) -> None:
        self._db.close()


def same_rows(got: Sequence[tuple], want: Sequence[tuple], ordered: bool = False) -> bool:
    """Whether two answers agree — as bags unless ``ordered``.

    Numbers compare by value to a relative 1e-9: sqlite keeps neither
    booleans nor a column's INTEGER/DOUBLE split, and sums floats in
    its own order."""
    if len(got) != len(want):
        return False
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    return all(
        len(left) == len(right) and all(map(_same_value, left, right))
        for left, right in zip(got, want)
    )


def _sort_key(row: tuple) -> tuple:
    return tuple(
        (value is not None, float(value) if isinstance(value, (int, float)) else value)
        for value in row
    )


def _same_value(left: object, right: object) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    return left == right
