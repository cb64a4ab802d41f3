"""Binding: AST SELECT statements → logical plans.

The builder resolves table names through a :class:`TableResolver`
(implemented by engine catalogs and by XDB's global catalog), expands
views and derived tables, splits aggregates out of select lists, and
produces a :class:`repro.relational.algebra.LogicalPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BindError
from repro.relational import algebra
from repro.relational.schema import Schema
from repro.sql import ast


@dataclass
class ResolvedTable:
    """What a :class:`TableResolver` returns for a table reference.

    Exactly one of the payloads applies:

    * a *stored* relation: ``schema`` is set (``view_query`` is None);
    * a *view*: ``view_query`` holds the defining SELECT, which the
      builder expands in place.

    ``source_db`` names the DBMS the relation lives on (used by XDB's
    Rule 1 and by the engines' foreign-scan machinery); ``table`` is the
    canonical stored name.  ``replica_dbs`` lists every DBMS holding a
    copy when the relation is replicated (empty for the common
    single-holder case) — resolvers that know about replicas (XDB's
    global catalog) populate it so the annotator can route around a
    dead holder.
    """

    table: str
    schema: Optional[Schema] = None
    view_query: Optional[ast.Select] = None
    source_db: Optional[str] = None
    replica_dbs: Tuple[str, ...] = ()


class TableResolver:
    """Interface the builder uses to look up table references."""

    def resolve_table(self, parts: Tuple[str, ...]) -> ResolvedTable:
        raise NotImplementedError


def build_plan(query, resolver: TableResolver) -> algebra.LogicalPlan:
    """Bind a query (SELECT or UNION ALL) and return a logical plan."""
    if isinstance(query, ast.UnionAll):
        return _build_union(query, resolver)
    return _PlanBuilder(resolver).build(query)


def _build_union(
    union: ast.UnionAll, resolver: TableResolver
) -> algebra.LogicalPlan:
    left = build_plan(union.left, resolver)
    right = build_plan(union.right, resolver)
    plan: algebra.LogicalPlan = algebra.Union(left, right)
    if union.order_by:
        keys = []
        for order in union.order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(plan.schema):
                    raise BindError(
                        f"ORDER BY position {position} out of range"
                    )
                expr = ast.ColumnRef(plan.schema[position - 1].name)
            keys.append(algebra.SortKey(expr, order.ascending))
        plan = algebra.Sort(plan, keys)
    if union.limit is not None:
        plan = algebra.Limit(plan, union.limit)
    return plan


# ---------------------------------------------------------------------------
# expression rewriting helpers
# ---------------------------------------------------------------------------


def rebuild_expression(
    expr: ast.Expression, replace
) -> ast.Expression:
    """Structurally rebuild ``expr``, applying ``replace`` top-down.

    ``replace(node)`` returns a replacement node or ``None`` to recurse.
    """
    replacement = replace(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            rebuild_expression(expr.left, replace),
            rebuild_expression(expr.right, replace),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, rebuild_expression(expr.operand, replace))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(
            rebuild_expression(expr.operand, replace), expr.negated
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            rebuild_expression(expr.operand, replace),
            rebuild_expression(expr.low, replace),
            rebuild_expression(expr.high, replace),
            expr.negated,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            rebuild_expression(expr.operand, replace),
            tuple(rebuild_expression(item, replace) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            rebuild_expression(expr.operand, replace),
            rebuild_expression(expr.pattern, replace),
            expr.negated,
        )
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(rebuild_expression(arg, replace) for arg in expr.args),
            expr.distinct,
        )
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            tuple(
                (
                    rebuild_expression(cond, replace),
                    rebuild_expression(result, replace),
                )
                for cond, result in expr.whens
            ),
            rebuild_expression(expr.else_result, replace)
            if expr.else_result is not None
            else None,
        )
    if isinstance(expr, ast.Extract):
        return ast.Extract(
            expr.unit, rebuild_expression(expr.operand, replace)
        )
    if isinstance(expr, ast.Cast):
        return ast.Cast(
            rebuild_expression(expr.operand, replace), expr.target
        )
    # Leaves (ColumnRef, Literal, IntervalLiteral, Star) are returned as-is.
    return expr


def substitute(
    expr: ast.Expression, mapping: Dict[ast.Expression, ast.Expression]
) -> ast.Expression:
    """Replace maximal subtrees structurally equal to a mapping key."""

    def replace(node: ast.Expression):
        return mapping.get(node)

    return rebuild_expression(expr, replace)


def collect_aggregates(expr: ast.Expression) -> List[ast.FunctionCall]:
    """All aggregate calls in ``expr`` (outermost only), in tree order."""
    found: List[ast.FunctionCall] = []

    def walk(node: ast.Expression) -> None:
        if ast.is_aggregate_call(node):
            found.append(node)  # type: ignore[arg-type]
            return
        for child in node.children():
            walk(child)

    walk(expr)
    return found


def unique_names(names: Sequence[str]) -> List[str]:
    """Make output column names unique (case-insensitive) via suffixes."""
    seen: Dict[str, int] = {}
    result: List[str] = []
    for name in names:
        key = name.lower()
        count = seen.get(key, 0)
        seen[key] = count + 1
        if count == 0:
            result.append(name)
        else:
            candidate = f"{name}_{count}"
            while candidate.lower() in seen:
                count += 1
                candidate = f"{name}_{count}"
            seen[candidate.lower()] = 1
            result.append(candidate)
    return result


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------


class _PlanBuilder:
    def __init__(self, resolver: TableResolver):
        self._resolver = resolver

    def build(self, select: ast.Select) -> algebra.LogicalPlan:
        plan = self._build_from(select.from_items)

        if select.where is not None:
            plan = algebra.Filter(plan, select.where)

        items = self._expand_items(select.items, plan.schema)
        alias_map = {
            item.alias: item.expr for item in items if item.alias is not None
        }

        group_exprs = [
            self._resolve_against_aliases(g, alias_map) for g in select.group_by
        ]
        having = (
            self._resolve_against_aliases(select.having, alias_map)
            if select.having is not None
            else None
        )

        has_aggregates = (
            bool(group_exprs)
            or any(ast.contains_aggregate(item.expr) for item in items)
            or (having is not None and ast.contains_aggregate(having))
        )

        if has_aggregates:
            plan, items, having = self._build_aggregate(
                plan, items, group_exprs, having
            )
            if having is not None:
                plan = algebra.Filter(plan, having)
        elif having is not None:
            raise BindError("HAVING requires GROUP BY or aggregates")

        project_items = self._finalize_projection(items)
        plan = algebra.Project(plan, project_items)

        if select.distinct:
            plan = algebra.Distinct(plan)

        if select.order_by:
            keys = self._build_sort_keys(
                select.order_by, project_items, plan.schema
            )
            plan = algebra.Sort(plan, keys)

        if select.limit is not None:
            plan = algebra.Limit(plan, select.limit)

        return plan

    # -- FROM clause -----------------------------------------------------

    def _build_from(
        self, from_items: Sequence[ast.FromItem]
    ) -> algebra.LogicalPlan:
        if not from_items:
            raise BindError("queries without a FROM clause are not supported")
        plan = self._build_from_item(from_items[0])
        for item in from_items[1:]:
            plan = algebra.Join(
                plan, self._build_from_item(item), None, "CROSS"
            )
        return plan

    def _build_from_item(self, item: ast.FromItem) -> algebra.LogicalPlan:
        if isinstance(item, ast.TableRef):
            return self._build_table_ref(item)
        if isinstance(item, ast.DerivedTable):
            subplan = build_plan(item.query, self._resolver)
            return algebra.Alias(subplan, item.alias)
        if isinstance(item, ast.Join):
            left = self._build_from_item(item.left)
            right = self._build_from_item(item.right)
            return algebra.Join(left, right, item.condition, item.kind)
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _build_table_ref(self, ref: ast.TableRef) -> algebra.LogicalPlan:
        resolved = self._resolver.resolve_table(ref.parts)
        binding = ref.binding_name
        if resolved.view_query is not None:
            subplan = build_plan(resolved.view_query, self._resolver)
            return algebra.Alias(subplan, binding)
        if resolved.schema is None:
            raise BindError(
                f"resolver returned neither schema nor view for "
                f"{'.'.join(ref.parts)!r}"
            )
        return algebra.Scan(
            table=resolved.table,
            binding=binding,
            schema=resolved.schema,
            source_db=resolved.source_db,
            replica_dbs=resolved.replica_dbs,
        )

    # -- select list ------------------------------------------------------

    def _expand_items(
        self, items: Sequence[ast.SelectItem], schema: Schema
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                if item.expr.table is not None:
                    fields = schema.fields_of_relation(item.expr.table)
                    if not fields:
                        raise BindError(
                            f"unknown relation {item.expr.table!r} in "
                            f"{item.expr.table}.*"
                        )
                else:
                    fields = list(schema.fields)
                for field in fields:
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(field.name, field.relation),
                            None,
                        )
                    )
            else:
                expanded.append(item)
        if not expanded:
            raise BindError("empty select list")
        return expanded

    @staticmethod
    def _resolve_against_aliases(
        expr: ast.Expression, alias_map: Dict[str, ast.Expression]
    ) -> ast.Expression:
        """Expand select-list aliases referenced by GROUP BY / HAVING."""

        def replace(node: ast.Expression):
            if (
                isinstance(node, ast.ColumnRef)
                and node.table is None
                and node.name in alias_map
            ):
                return alias_map[node.name]
            return None

        return rebuild_expression(expr, replace)

    # -- aggregation -------------------------------------------------------

    def _build_aggregate(
        self,
        plan: algebra.LogicalPlan,
        items: List[ast.SelectItem],
        group_exprs: List[ast.Expression],
        having: Optional[ast.Expression],
    ):
        # 1. Collect distinct aggregate calls across select/having.
        agg_calls: List[ast.FunctionCall] = []
        for item in items:
            agg_calls.extend(collect_aggregates(item.expr))
        if having is not None:
            agg_calls.extend(collect_aggregates(having))
        unique_calls: List[ast.FunctionCall] = []
        for call in agg_calls:
            if call not in unique_calls:
                unique_calls.append(call)

        specs: List[algebra.AggregateSpec] = []
        call_to_ref: Dict[ast.Expression, ast.Expression] = {}
        for index, call in enumerate(unique_calls):
            name = f"agg_{index}"
            arg: Optional[ast.Expression]
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                arg = None
            elif len(call.args) == 1:
                arg = call.args[0]
            else:
                raise BindError(
                    f"aggregate {call.name} takes exactly one argument"
                )
            specs.append(
                algebra.AggregateSpec(call.name, arg, name, call.distinct)
            )
            call_to_ref[call] = ast.ColumnRef(name)

        # 2. Name the group keys.
        key_items: List[algebra.ProjectItem] = []
        key_to_ref: Dict[ast.Expression, ast.Expression] = {}
        used_key_names: List[str] = []
        for index, expr in enumerate(group_exprs):
            if isinstance(expr, ast.ColumnRef):
                name = expr.name
            else:
                alias = next(
                    (
                        item.alias
                        for item in items
                        if item.alias is not None and item.expr == expr
                    ),
                    None,
                )
                name = alias or f"key_{index}"
            if name.lower() in (n.lower() for n in used_key_names):
                name = f"{name}_{index}"
            used_key_names.append(name)
            key_items.append(algebra.ProjectItem(expr, name))
            if isinstance(expr, ast.ColumnRef):
                key_to_ref[expr] = expr  # still resolvable afterwards
            else:
                key_to_ref[expr] = ast.ColumnRef(name)

        aggregate = algebra.Aggregate(plan, key_items, specs)

        # 3. Rewrite select items / having over the aggregate's output.
        mapping: Dict[ast.Expression, ast.Expression] = {}
        mapping.update(call_to_ref)
        mapping.update(key_to_ref)

        new_items = [
            ast.SelectItem(substitute(item.expr, mapping), item.alias)
            for item in items
        ]
        new_having = substitute(having, mapping) if having is not None else None
        return aggregate, new_items, new_having

    # -- projection & ordering -----------------------------------------------

    def _finalize_projection(
        self, items: List[ast.SelectItem]
    ) -> List[algebra.ProjectItem]:
        raw_names: List[str] = []
        for index, item in enumerate(items):
            if item.alias:
                raw_names.append(item.alias)
            elif isinstance(item.expr, ast.ColumnRef):
                raw_names.append(item.expr.name)
            else:
                raw_names.append(f"col_{index}")
        names = unique_names(raw_names)
        return [
            algebra.ProjectItem(item.expr, name)
            for item, name in zip(items, names)
        ]

    def _build_sort_keys(
        self,
        order_by: Sequence[ast.OrderItem],
        project_items: Sequence[algebra.ProjectItem],
        schema: Schema,
    ) -> List[algebra.SortKey]:
        keys: List[algebra.SortKey] = []
        for order in order_by:
            expr = order.expr
            # ORDER BY <position>
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(project_items):
                    raise BindError(
                        f"ORDER BY position {position} out of range"
                    )
                expr = ast.ColumnRef(project_items[position - 1].name)
            else:
                # Replace references to projected expressions / aliases.
                mapping = {
                    item.expr: ast.ColumnRef(item.name)
                    for item in project_items
                    if not isinstance(item.expr, ast.ColumnRef)
                }
                expr = substitute(expr, mapping)
            keys.append(algebra.SortKey(expr, order.ascending))
        return keys
