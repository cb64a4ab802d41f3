"""Typed abstract syntax tree for the supported SQL subset.

Nodes are plain frozen-ish dataclasses (mutable where the optimizer
rewrites in place is *not* allowed — rewrites always build new nodes).
Equality is structural, which the test suite relies on for round-trip
checks (``parse(render(ast)) == ast``).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.sql.types import SQLType

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for scalar expressions."""

    def children(self) -> List["Expression"]:
        """Direct sub-expressions, used by generic tree walks."""
        return []


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``c.age`` or ``age``."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean, date, or NULL."""

    value: Union[int, float, str, bool, datetime.date, None]

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class IntervalLiteral(Expression):
    """``INTERVAL '<amount>' <unit>`` where unit is DAY/MONTH/YEAR."""

    amount: int
    unit: str  # "DAY" | "MONTH" | "YEAR"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operator: arithmetic, comparison, AND/OR, or ``||``."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> List[Expression]:
        return [self.left, self.right]


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``NOT expr`` or ``- expr``."""

    op: str  # "NOT" | "-"
    operand: Expression

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, self.low, self.high]


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, *self.items]


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` / ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, self.pattern]


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A function or aggregate call, e.g. ``sum(x * y)`` / ``count(*)``."""

    name: str  # normalized upper-case
    args: Tuple[Expression, ...]
    distinct: bool = False

    def children(self) -> List[Expression]:
        return list(self.args)


#: Aggregate function names recognized by the binder and executor.
AGGREGATE_FUNCTIONS = frozenset({"SUM", "AVG", "COUNT", "MIN", "MAX"})


def is_aggregate_call(expr: Expression) -> bool:
    """Whether ``expr`` itself is an aggregate function call."""
    return isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS


def contains_aggregate(expr: Expression) -> bool:
    """Whether ``expr`` contains an aggregate call anywhere in its tree."""
    if is_aggregate_call(expr):
        return True
    return any(contains_aggregate(child) for child in expr.children())


@dataclass(frozen=True)
class CaseWhen(Expression):
    """Searched ``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: Tuple[Tuple[Expression, Expression], ...]
    else_result: Optional[Expression] = None

    def children(self) -> List[Expression]:
        out: List[Expression] = []
        for cond, result in self.whens:
            out.extend((cond, result))
        if self.else_result is not None:
            out.append(self.else_result)
        return out


@dataclass(frozen=True)
class Extract(Expression):
    """``EXTRACT(field FROM expr)`` for YEAR / MONTH / DAY."""

    unit: str
    operand: Expression

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass(frozen=True)
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    target: SQLType

    def children(self) -> List[Expression]:
        return [self.operand]


# ---------------------------------------------------------------------------
# FROM clause items
# ---------------------------------------------------------------------------


class FromItem:
    """Base class for items in a FROM clause."""


@dataclass(frozen=True)
class TableRef(FromItem):
    """A reference to a named relation, possibly qualified and aliased.

    ``parts`` holds the dotted name components, e.g. ``("CDB", "Citizen")``.
    """

    parts: Tuple[str, ...]
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        return self.parts[-1]

    @property
    def binding_name(self) -> str:
        """The name this relation is visible as inside the query."""
        return self.alias or self.name

    def __str__(self) -> str:
        text = ".".join(self.parts)
        return f"{text} AS {self.alias}" if self.alias else text


@dataclass(frozen=True)
class DerivedTable(FromItem):
    """``(SELECT ...) AS alias`` in a FROM clause."""

    query: "Select"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(FromItem):
    """An explicit ``A JOIN B ON cond`` tree node."""

    left: FromItem
    right: FromItem
    kind: str  # "INNER" | "LEFT" | "CROSS"
    condition: Optional[Expression] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for parsed SQL statements."""


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression plus optional alias."""

    expr: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` key."""

    expr: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT query block."""

    items: Tuple[SelectItem, ...]
    from_items: Tuple[FromItem, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class UnionAll(Statement):
    """``<query> UNION ALL <select>`` (left-nested for >2 branches).

    A trailing ``ORDER BY`` / ``LIMIT`` applies to the whole union (the
    parser hoists it out of the last branch, per standard semantics).
    """

    left: "Statement"  # Select | UnionAll
    right: Select
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None

    def branches(self) -> List[Select]:
        """All SELECT branches, left to right."""
        out: List[Select] = []
        if isinstance(self.left, UnionAll):
            out.extend(self.left.branches())
        else:
            out.append(self.left)  # type: ignore[arg-type]
        out.append(self.right)
        return out


#: Statements usable wherever a query is expected.
QUERY_STATEMENTS = (Select, UnionAll)


@dataclass(frozen=True)
class ColumnDef:
    """A column declaration inside a CREATE TABLE style statement."""

    name: str
    type: SQLType


@dataclass(frozen=True)
class CreateView(Statement):
    """``CREATE [OR REPLACE] VIEW name AS query``."""

    name: str
    query: Select
    or_replace: bool = False


@dataclass(frozen=True)
class CreateForeignTable(Statement):
    """A foreign-table declaration in any of the vendor syntaxes.

    The canonical (PostgreSQL) form is::

        CREATE FOREIGN TABLE name (col type, ...) SERVER srv
            OPTIONS (table_name 'remote')

    MariaDB's ``ENGINE=FEDERATED CONNECTION='srv/remote'`` and Hive's
    ``CREATE EXTERNAL TABLE ... STORED BY 'srv' OPTIONS (...)`` parse into
    the same node with ``syntax`` recording the surface form.
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    server: str
    remote_object: str
    syntax: str = "postgres"  # "postgres" | "mariadb" | "hive"


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE [TEMPORARY] TABLE name (col type, ...)``."""

    name: str
    columns: Tuple[ColumnDef, ...]
    temporary: bool = False


@dataclass(frozen=True)
class CreateTableAs(Statement):
    """``CREATE [OR REPLACE] [TEMPORARY] TABLE name AS query``.

    ``or_replace`` powers transactional re-materialization: the engine
    computes the fresh result *before* swapping it in, so a failing
    defining query leaves the previous snapshot intact.
    """

    name: str
    query: Select
    temporary: bool = False
    or_replace: bool = False


@dataclass(frozen=True)
class DropObject(Statement):
    """``DROP TABLE|VIEW|FOREIGN TABLE [IF EXISTS] name``."""

    kind: str  # "TABLE" | "VIEW" | "FOREIGN TABLE"
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expression, ...], ...]


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN <select>`` — returns the plan and cost estimates."""

    query: Select


# ---------------------------------------------------------------------------
# Small expression helpers used across the code base
# ---------------------------------------------------------------------------


def conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Split a predicate on top-level ANDs into a flat conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(predicates: List[Expression]) -> Optional[Expression]:
    """AND together a list of predicates (None for an empty list)."""
    result: Optional[Expression] = None
    for predicate in predicates:
        result = predicate if result is None else BinaryOp("AND", result, predicate)
    return result


def column_refs(expr: Expression) -> List[ColumnRef]:
    """All column references in ``expr``, in tree order."""
    refs: List[ColumnRef] = []

    def walk(node: Expression) -> None:
        if isinstance(node, ColumnRef):
            refs.append(node)
        for child in node.children():
            walk(child)

    walk(expr)
    return refs

