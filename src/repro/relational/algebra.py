"""Logical relational algebra operators.

The same operator tree is used by the local engine planner and by XDB's
cross-database optimizer.  Nodes carry *AST* expressions (never compiled
closures) so any subtree can be decompiled back into SQL text — that is
the mechanism the delegation engine and the mediator baselines use to
push work into DBMSes.

Every node exposes:

* ``schema`` — the output :class:`~repro.relational.schema.Schema`;
* ``children()`` — input operators;
* ``with_children(new_children)`` — functional rewrite support;
* ``estimated_rows`` — an optimizer-filled cardinality slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import BindError, TypeCheckError
from repro.relational.expressions import compile_expression
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.types import BIGINT, DOUBLE, SQLType, TypeKind


class LogicalPlan:
    """Base class for logical operators."""

    schema: Schema
    estimated_rows: Optional[float]

    def __init__(self) -> None:
        self.estimated_rows = None

    def children(self) -> List["LogicalPlan"]:
        return []

    def with_children(
        self, children: Sequence["LogicalPlan"]
    ) -> "LogicalPlan":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    # -- debugging -------------------------------------------------------

    def label(self) -> str:
        """One-line description used by EXPLAIN-style output."""
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def leaves(self) -> List["Scan"]:
        """All scan leaves in this subtree, left to right."""
        if isinstance(self, Scan):
            return [self]
        found: List[Scan] = []
        for child in self.children():
            found.extend(child.leaves())
        return found

    def _over(self, schema: Schema, **inputs: "LogicalPlan") -> "LogicalPlan":
        """This node over ``inputs`` whose schemas equal the ones it was
        type-checked against: what the constructor would build, without
        binding and typing every expression a second time."""
        node = object.__new__(type(self))
        node.__dict__.update(
            self.__dict__, schema=schema, estimated_rows=None, **inputs
        )
        return node


def _typed(
    expr: ast.Expression, schema: Schema
) -> Tuple[SQLType, Optional[str]]:
    """Type of ``expr`` over ``schema`` and, for a bare column
    reference, the qualifier of the field it names (else None)."""
    if isinstance(expr, ast.ColumnRef):
        field = schema.field_of(expr.name, expr.table)
        return field.type, field.relation
    return compile_expression(expr, schema).type, None


class Scan(LogicalPlan):
    """A leaf: scanning a stored relation (or a placeholder, see below).

    ``source_db`` records the DBMS the relation lives on — the annotation
    the XDB optimizer's Rule 1 starts from.  ``replica_dbs`` lists
    *every* DBMS holding a copy when the relation is replicated (it
    includes ``source_db``; empty means un-replicated) — Rule 1 picks
    the cheapest healthy holder, so losing one holder changes placement
    instead of failing the query.  ``placeholder`` marks the dummy
    operator the plan finalizer inserts at task boundaries (the "?" of
    the paper's notation).
    """

    def __init__(
        self,
        table: str,
        binding: str,
        schema: Schema,
        source_db: Optional[str] = None,
        placeholder: bool = False,
        requalify: bool = True,
        replica_dbs: Tuple[str, ...] = (),
        partition_of: Optional[str] = None,
        partition_index: Optional[int] = None,
    ):
        super().__init__()
        self.table = table
        self.binding = binding
        # Placeholder scans keep the producing task's field qualifiers so
        # the consumer task's expressions keep resolving unchanged.
        self.schema = schema.requalified(binding) if requalify else schema
        self.source_db = source_db
        self.replica_dbs = tuple(replica_dbs)
        self.placeholder = placeholder
        # Set by the partition expansion pass: the logical table this
        # scan is one shard of, and which shard.
        self.partition_of = partition_of
        self.partition_index = partition_index

    def label(self) -> str:
        where = f"@{self.source_db}" if self.source_db else ""
        mark = "?" if self.placeholder else self.table
        alias = f" AS {self.binding}" if self.binding != self.table else ""
        return f"Scan[{mark}{alias}]{where}"


class Filter(LogicalPlan):
    """Row selection by a boolean predicate."""

    def __init__(self, child: LogicalPlan, predicate: ast.Expression):
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        # Type-check eagerly so malformed predicates fail at plan time.
        compiled = compile_expression(predicate, child.schema)
        if compiled.type.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
            raise TypeCheckError(
                f"filter predicate must be boolean, got {compiled.type}"
            )

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        (child,) = children
        if child.schema == self.child.schema:
            return self._over(child.schema, child=child)
        return Filter(child, self.predicate)

    def label(self) -> str:
        from repro.sql.render import render

        return f"Filter[{render(self.predicate)}]"


@dataclass(frozen=True)
class ProjectItem:
    """One output column of a projection: expression plus output name."""

    expr: ast.Expression
    name: str


class Project(LogicalPlan):
    """Column projection / computation.

    Items that are bare column references keep their relation qualifier in
    the output schema, so predicates above the projection can still use
    qualified names; computed columns are unqualified.
    """

    def __init__(self, child: LogicalPlan, items: Sequence[ProjectItem]):
        super().__init__()
        self.child = child
        self.items = tuple(items)
        self.schema = Schema(
            [
                Field(item.name, *_typed(item.expr, child.schema))
                for item in self.items
            ]
        )

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        if child.schema == self.child.schema:
            return self._over(self.schema, child=child)
        return Project(child, self.items)

    def label(self) -> str:
        from repro.sql.render import render

        cols = ", ".join(
            render(item.expr)
            if isinstance(item.expr, ast.ColumnRef)
            and item.expr.name == item.name
            else f"{render(item.expr)} AS {item.name}"
            for item in self.items
        )
        return f"Project[{cols}]"


#: (left column, right column) of each ``left_col = right_col`` conjunct
KeyPairs = List[Tuple[ast.ColumnRef, ast.ColumnRef]]


class Join(LogicalPlan):
    """A binary join; ``condition`` may be None for a cross join."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        condition: Optional[ast.Expression] = None,
        kind: str = "INNER",
    ):
        super().__init__()
        if kind not in ("INNER", "LEFT", "CROSS"):
            raise BindError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.schema = left.schema.concat(right.schema)
        if condition is not None:
            compiled = compile_expression(condition, self.schema)
            if compiled.type.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
                raise TypeCheckError(
                    f"join condition must be boolean, got {compiled.type}"
                )

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        if (
            left.schema == self.left.schema
            and right.schema == self.right.schema
        ):
            return self._over(self.schema, left=left, right=right)
        return Join(left, right, self.condition, self.kind)

    def hash_keys(
        self,
    ) -> Optional[Tuple[KeyPairs, Optional[ast.Expression]]]:
        """The condition split for a hash join: ``(pairs, residual)``.

        ``pairs`` are the (left, right) columns of every ``left_col =
        right_col`` conjunct; ``residual`` is the conjunction of all
        other conjuncts (None when there are none), to be evaluated on
        each key match.  Returns None when no conjunct can be hashed on
        (those joins fall back to nested loops in the executor).
        """
        pairs: KeyPairs = []
        rest: List[ast.Expression] = []
        left_schema, right_schema = self.left.schema, self.right.schema
        for conjunct in ast.conjuncts(self.condition):
            orientations: Sequence[Tuple[ast.ColumnRef, ast.ColumnRef]] = ()
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                orientations = (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                )
            for first, second in orientations:
                if (
                    left_schema.find(first.name, first.table) is not None
                    and right_schema.find(second.name, second.table)
                    is not None
                ):
                    pairs.append((first, second))
                    break
            else:
                rest.append(conjunct)
        if not pairs:
            return None
        return pairs, ast.conjoin(rest)

    def equi_keys(self) -> Optional[KeyPairs]:
        """(left, right) column pairs if the condition is a pure equi-join.

        Returns None when any conjunct is not ``left_col = right_col``.
        """
        split = self.hash_keys()
        if split is None or split[1] is not None:
            return None
        return split[0]

    def label(self) -> str:
        from repro.sql.render import render

        condition = render(self.condition) if self.condition else "true"
        return f"Join[{self.kind} ON {condition}]"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: function, argument (None = COUNT(*)), output name."""

    func: str
    arg: Optional[ast.Expression]
    name: str
    distinct: bool = False

    def result_type(self, input_schema: Schema) -> SQLType:
        if self.func == "COUNT":
            return BIGINT
        if self.arg is None:
            raise BindError(f"{self.func} requires an argument")
        arg_type, _ = _typed(self.arg, input_schema)
        if self.func == "AVG":
            return DOUBLE
        if self.func == "SUM":
            if arg_type.kind is TypeKind.INTEGER:
                return BIGINT
            return arg_type
        if self.func in ("MIN", "MAX"):
            return arg_type
        raise BindError(f"unknown aggregate function {self.func!r}")


class Aggregate(LogicalPlan):
    """Hash aggregation: group keys plus aggregate computations.

    The output schema is ``[key_0..key_n, agg_0..agg_m]`` with key fields
    keeping the qualifier of simple column references.
    """

    def __init__(
        self,
        child: LogicalPlan,
        keys: Sequence[ProjectItem],
        aggregates: Sequence[AggregateSpec],
    ):
        super().__init__()
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        fields = [
            Field(key.name, *_typed(key.expr, child.schema))
            for key in self.keys
        ]
        for spec in self.aggregates:
            fields.append(Field(spec.name, spec.result_type(child.schema)))
        self.schema = Schema(fields)

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        if child.schema == self.child.schema:
            return self._over(self.schema, child=child)
        return Aggregate(child, self.keys, self.aggregates)

    def label(self) -> str:
        keys = ", ".join(key.name for key in self.keys)
        aggs = ", ".join(
            f"{spec.func}({'*' if spec.arg is None else ''})->{spec.name}"
            for spec in self.aggregates
        )
        return f"Aggregate[keys=({keys}) aggs=({aggs})]"


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY key (an expression over the child schema)."""

    expr: ast.Expression
    ascending: bool = True


class Sort(LogicalPlan):
    """Total ordering of the child by a key list."""

    def __init__(self, child: LogicalPlan, keys: Sequence[SortKey]):
        super().__init__()
        self.child = child
        self.keys = tuple(keys)
        self.schema = child.schema
        for key in self.keys:
            compile_expression(key.expr, child.schema)

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        (child,) = children
        if child.schema == self.child.schema:
            return self._over(child.schema, child=child)
        return Sort(child, self.keys)

    def label(self) -> str:
        from repro.sql.render import render

        keys = ", ".join(
            render(key.expr) + ("" if key.ascending else " DESC")
            for key in self.keys
        )
        return f"Sort[{keys}]"


class Limit(LogicalPlan):
    """Keep the first ``count`` rows of the child."""

    def __init__(self, child: LogicalPlan, count: int):
        super().__init__()
        self.child = child
        self.count = count
        self.schema = child.schema

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    def label(self) -> str:
        return f"Limit[{self.count}]"


class Distinct(LogicalPlan):
    """Duplicate elimination over whole rows."""

    def __init__(self, child: LogicalPlan):
        super().__init__()
        self.child = child
        self.schema = child.schema

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        (child,) = children
        return Distinct(child)


class Union(LogicalPlan):
    """``UNION ALL`` of two positionally compatible inputs.

    Output columns take the left input's names (unqualified); types are
    widened to the per-position common supertype.  An explicit
    ``schema`` overrides that default — the partition expansion pass
    gathers identical branches and must keep their *qualified* field
    names so expressions above the union keep resolving.
    """

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        schema: Optional[Schema] = None,
    ):
        super().__init__()
        if len(left.schema) != len(right.schema):
            raise TypeCheckError(
                f"UNION ALL branches have different arities: "
                f"{len(left.schema)} vs {len(right.schema)}"
            )
        self.explicit_schema = schema is not None
        if schema is not None:
            if len(schema) != len(left.schema):
                raise TypeCheckError(
                    f"UNION ALL explicit schema has arity {len(schema)}, "
                    f"branches have {len(left.schema)}"
                )
            self.schema = schema
        else:
            from repro.sql.types import common_supertype

            fields = []
            for left_field, right_field in zip(left.schema, right.schema):
                fields.append(
                    Field(
                        left_field.name,
                        common_supertype(left_field.type, right_field.type),
                    )
                )
            self.schema = Schema(fields)
        self.left = left
        self.right = right

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Union":
        left, right = children
        return Union(
            left, right, schema=self.schema if self.explicit_schema else None
        )

    def label(self) -> str:
        return "UnionAll"


class Alias(LogicalPlan):
    """Re-binds the child's output under a new relation name.

    Used for derived tables and view expansion: the child keeps its own
    internal naming while the outer query sees ``binding.column``.
    """

    def __init__(self, child: LogicalPlan, binding: str):
        super().__init__()
        self.child = child
        self.binding = binding
        self.schema = child.schema.requalified(binding)

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def with_children(self, children: Sequence[LogicalPlan]) -> "Alias":
        (child,) = children
        return Alias(child, self.binding)

    def label(self) -> str:
        return f"Alias[{self.binding}]"
