"""Shared logical rewrites: filter pushdown, projection pruning, and
cost-based join reordering.

Both the local engine planners and XDB's cross-database logical
optimizer (§IV-B step 1) run these rewrites; they differ only in the
cardinality oracle they supply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import OptimizerError
from repro.relational import algebra
from repro.relational.builder import rebuild_expression
from repro.relational.schema import Schema
from repro.sql import ast

# A cardinality oracle: unit plan -> estimated rows (>= 1).
CardinalityFn = Callable[[algebra.LogicalPlan], float]
# A distinct-count oracle: (unit plan, column name) -> ndv (>= 1).
NdvFn = Callable[[algebra.LogicalPlan, ast.ColumnRef], float]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _refs_resolve(schema: Schema, expr: ast.Expression) -> bool:
    """True if every column reference in ``expr`` binds in ``schema``."""
    return all(
        schema.find(ref.name, ref.table) is not None
        for ref in ast.column_refs(expr)
    )


def _rewrite_through_project(
    expr: ast.Expression, project: algebra.Project
) -> Optional[ast.Expression]:
    """Rewrite ``expr`` (over the project's output) over its input.

    Only succeeds when every referenced output column is a bare column
    reference (no computed columns involved).
    """
    out_schema = project.schema

    replaced: List[bool] = [True]

    def replace(node: ast.Expression):
        if isinstance(node, ast.ColumnRef):
            index = out_schema.resolve(node.name, node.table)
            source = project.items[index].expr
            if isinstance(source, ast.ColumnRef):
                return source
            replaced[0] = False
            return node
        return None

    result = rebuild_expression(expr, replace)
    return result if replaced[0] else None


def _rewrite_through_alias(
    expr: ast.Expression, alias: algebra.Alias
) -> Optional[ast.Expression]:
    """Rewrite refs ``alias.col`` into the child's own qualifiers."""
    out_schema = alias.schema
    child_schema = alias.child.schema

    def replace(node: ast.Expression):
        if isinstance(node, ast.ColumnRef):
            index = out_schema.resolve(node.name, node.table)
            child_field = child_schema[index]
            return ast.ColumnRef(child_field.name, child_field.relation)
        return None

    return rebuild_expression(expr, replace)


def _rewrite_through_aggregate(
    expr: ast.Expression, aggregate: algebra.Aggregate
) -> Optional[ast.Expression]:
    """Rewrite ``expr`` over the aggregate output into one over its input.

    Succeeds only when the expression touches group-key columns alone.
    """
    out_schema = aggregate.schema
    key_count = len(aggregate.keys)
    ok = [True]

    def replace(node: ast.Expression):
        if isinstance(node, ast.ColumnRef):
            index = out_schema.resolve(node.name, node.table)
            if index >= key_count:
                ok[0] = False
                return node
            return aggregate.keys[index].expr
        return None

    result = rebuild_expression(expr, replace)
    return result if ok[0] else None


# ---------------------------------------------------------------------------
# filter pushdown
# ---------------------------------------------------------------------------


def push_filters(plan: algebra.LogicalPlan) -> algebra.LogicalPlan:
    """Push filter conjuncts as close to the scans as possible."""
    return _push(plan, [])


def _push(
    plan: algebra.LogicalPlan, pending: List[ast.Expression]
) -> algebra.LogicalPlan:
    """Rebuild ``plan`` with ``pending`` conjuncts pushed into it."""
    if isinstance(plan, algebra.Filter):
        return _push(plan.child, pending + ast.conjuncts(plan.predicate))

    if isinstance(plan, algebra.Join):
        left, right = plan.left, plan.right
        condition_conjuncts = ast.conjuncts(plan.condition)
        to_left: List[ast.Expression] = []
        to_right: List[ast.Expression] = []
        for_join: List[ast.Expression] = []
        above: List[ast.Expression] = []

        candidates = list(pending)
        if plan.kind == "INNER":
            candidates += condition_conjuncts
            condition_conjuncts = []

        for conjunct in candidates:
            on_left = _refs_resolve(left.schema, conjunct)
            on_right = _refs_resolve(right.schema, conjunct)
            if on_left and plan.kind in ("INNER", "LEFT", "CROSS"):
                to_left.append(conjunct)
            elif on_right and plan.kind in ("INNER", "CROSS"):
                to_right.append(conjunct)
            elif on_right and plan.kind == "LEFT":
                # Pushing below the null-padding side changes semantics.
                above.append(conjunct)
            elif _refs_resolve(plan.schema, conjunct):
                if plan.kind == "INNER" or plan.kind == "CROSS":
                    for_join.append(conjunct)
                else:
                    above.append(conjunct)
            else:
                above.append(conjunct)

        new_left = _push(left, to_left)
        new_right = _push(right, to_right)

        if plan.kind == "LEFT":
            new_plan: algebra.LogicalPlan = algebra.Join(
                new_left, new_right, plan.condition, "LEFT"
            )
        else:
            condition = ast.conjoin(for_join)
            kind = "INNER" if condition is not None else "CROSS"
            new_plan = algebra.Join(new_left, new_right, condition, kind)

        if above:
            new_plan = algebra.Filter(new_plan, ast.conjoin(above))
        return new_plan

    if isinstance(plan, algebra.Project):
        pushable: List[ast.Expression] = []
        stuck: List[ast.Expression] = []
        for conjunct in pending:
            rewritten = _rewrite_through_project(conjunct, plan)
            if rewritten is not None:
                pushable.append(rewritten)
            else:
                stuck.append(conjunct)
        new_plan = plan.with_children([_push(plan.child, pushable)])
        if stuck:
            new_plan = algebra.Filter(new_plan, ast.conjoin(stuck))
        return new_plan

    if isinstance(plan, algebra.Alias):
        rewritten = [
            _rewrite_through_alias(conjunct, plan) for conjunct in pending
        ]
        return plan.with_children([_push(plan.child, rewritten)])

    if isinstance(plan, algebra.Aggregate):
        pushable, stuck = [], []
        for conjunct in pending:
            rewritten = _rewrite_through_aggregate(conjunct, plan)
            if rewritten is not None:
                pushable.append(rewritten)
            else:
                stuck.append(conjunct)
        new_plan = plan.with_children([_push(plan.child, pushable)])
        if stuck:
            new_plan = algebra.Filter(new_plan, ast.conjoin(stuck))
        return new_plan

    if isinstance(plan, algebra.Limit):
        # Limits do not commute with filters; keep pending above them.
        inner = plan.with_children([_push(plan.child, [])])
        if pending:
            return algebra.Filter(inner, ast.conjoin(pending))
        return inner

    if isinstance(plan, (algebra.Sort, algebra.Distinct)):
        return plan.with_children([_push(plan.children()[0], pending)])

    # Scans and anything unknown: recurse into children, then apply.
    new_children = [_push(child, []) for child in plan.children()]
    new_plan = plan.with_children(new_children) if new_children else plan
    if pending:
        return algebra.Filter(new_plan, ast.conjoin(pending))
    return new_plan


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def prune_columns(plan: algebra.LogicalPlan) -> algebra.LogicalPlan:
    """Insert projections over scans keeping only referenced columns."""
    required = {
        (field.relation, field.name.lower()) for field in plan.schema
    }
    return _prune(plan, required)


def _expr_requirements(
    expr: ast.Expression, schema: Schema
) -> Set[Tuple[Optional[str], str]]:
    needed = set()
    for ref in ast.column_refs(expr):
        index = schema.resolve(ref.name, ref.table)
        field = schema[index]
        needed.add((field.relation, field.name.lower()))
    return needed


def _prune(
    plan: algebra.LogicalPlan,
    required: Set[Tuple[Optional[str], str]],
) -> algebra.LogicalPlan:
    if isinstance(plan, algebra.Scan):
        keep = [
            field
            for field in plan.schema
            if (field.relation, field.name.lower()) in required
        ]
        if len(keep) == len(plan.schema) or not keep:
            return plan
        items = [
            algebra.ProjectItem(
                ast.ColumnRef(field.name, field.relation), field.name
            )
            for field in keep
        ]
        return algebra.Project(plan, items)

    if isinstance(plan, algebra.Filter):
        child_required = required | _expr_requirements(
            plan.predicate, plan.child.schema
        )
        return plan.with_children([_prune(plan.child, child_required)])

    if isinstance(plan, algebra.Join):
        child_required = set(required)
        if plan.condition is not None:
            child_required |= _expr_requirements(plan.condition, plan.schema)
        left_fields = {
            (field.relation, field.name.lower()) for field in plan.left.schema
        }
        left_required = {key for key in child_required if key in left_fields}
        right_fields = {
            (field.relation, field.name.lower())
            for field in plan.right.schema
        }
        right_required = {
            key for key in child_required if key in right_fields
        }
        return plan.with_children(
            [
                _prune(plan.left, left_required),
                _prune(plan.right, right_required),
            ]
        )

    if isinstance(plan, algebra.Project):
        child_required: Set[Tuple[Optional[str], str]] = set()
        for item in plan.items:
            child_required |= _expr_requirements(item.expr, plan.child.schema)
        return plan.with_children([_prune(plan.child, child_required)])

    if isinstance(plan, algebra.Aggregate):
        child_required = set()
        for key in plan.keys:
            child_required |= _expr_requirements(key.expr, plan.child.schema)
        for spec in plan.aggregates:
            if spec.arg is not None:
                child_required |= _expr_requirements(
                    spec.arg, plan.child.schema
                )
        return plan.with_children([_prune(plan.child, child_required)])

    if isinstance(plan, algebra.Sort):
        child_required = set(required)
        for key in plan.keys:
            child_required |= _expr_requirements(key.expr, plan.child.schema)
        return plan.with_children([_prune(plan.child, child_required)])

    if isinstance(plan, algebra.Alias):
        # Translate (binding, name) requirements to the child's fields.
        child_required = set()
        for index, field in enumerate(plan.schema):
            if (field.relation, field.name.lower()) in required:
                child_field = plan.child.schema[index]
                child_required.add(
                    (child_field.relation, child_field.name.lower())
                )
        pruned_child = _prune(plan.child, child_required)
        if len(pruned_child.schema) != len(plan.child.schema):
            # The child narrowed; rebuild the alias over the narrow child.
            return algebra.Alias(pruned_child, plan.binding)
        return plan.with_children([pruned_child])

    if isinstance(plan, (algebra.Limit, algebra.Distinct)):
        return plan.with_children([_prune(plan.children()[0], required)])

    new_children = [
        _prune(child, {(f.relation, f.name.lower()) for f in child.schema})
        for child in plan.children()
    ]
    return plan.with_children(new_children) if new_children else plan


# ---------------------------------------------------------------------------
# join reordering (Selinger-style left-deep DP)
# ---------------------------------------------------------------------------


@dataclass
class JoinRegion:
    """A maximal region of INNER/CROSS joins plus its predicate pool."""

    units: List[algebra.LogicalPlan]
    equi_edges: List[Tuple[int, int, ast.Expression]]
    complex_predicates: List[Tuple[FrozenSet[int], ast.Expression]]


def _unit_index(
    units: Sequence[algebra.LogicalPlan], expr: ast.Expression
) -> Optional[FrozenSet[int]]:
    """Which units an expression's references span (None if unresolvable)."""
    spanned: Set[int] = set()
    for ref in ast.column_refs(expr):
        for index, unit in enumerate(units):
            if unit.schema.find(ref.name, ref.table) is not None:
                spanned.add(index)
                break
        else:
            return None
    return frozenset(spanned)


def collect_join_region(
    plan: algebra.LogicalPlan,
) -> Optional[Tuple[JoinRegion, List[ast.Expression]]]:
    """Flatten a tree of INNER/CROSS joins (with interleaved filters).

    Returns the region plus leftover predicates that could not be
    classified, or None when ``plan`` is not a reorderable join tree.
    """
    units: List[algebra.LogicalPlan] = []
    predicates: List[ast.Expression] = []

    def gather(node: algebra.LogicalPlan) -> bool:
        if isinstance(node, algebra.Join) and node.kind in ("INNER", "CROSS"):
            gather_ok = gather(node.left) and gather(node.right)
            if node.condition is not None:
                predicates.extend(ast.conjuncts(node.condition))
            return gather_ok
        if isinstance(node, algebra.Filter):
            # Filters between joins join the predicate pool.
            if isinstance(node.child, algebra.Join) and node.child.kind in (
                "INNER",
                "CROSS",
            ):
                predicates.extend(ast.conjuncts(node.predicate))
                return gather(node.child)
            units.append(node)
            return True
        units.append(node)
        return True

    if not (
        isinstance(plan, algebra.Join) and plan.kind in ("INNER", "CROSS")
    ):
        return None
    if not gather(plan):
        return None
    if len(units) < 2:
        return None

    equi_edges: List[Tuple[int, int, ast.Expression]] = []
    complex_predicates: List[Tuple[FrozenSet[int], ast.Expression]] = []
    leftover: List[ast.Expression] = []
    for predicate in predicates:
        span = _unit_index(units, predicate)
        if span is None:
            leftover.append(predicate)
        elif len(span) == 2 and _is_equi(predicate):
            first, second = sorted(span)
            equi_edges.append((first, second, predicate))
        elif len(span) <= 1:
            # Should have been pushed down already; treat as complex.
            complex_predicates.append((span, predicate))
        else:
            complex_predicates.append((span, predicate))
    region = JoinRegion(units, equi_edges, complex_predicates)
    return region, leftover


def _is_equi(predicate: ast.Expression) -> bool:
    return (
        isinstance(predicate, ast.BinaryOp)
        and predicate.op == "="
        and isinstance(predicate.left, ast.ColumnRef)
        and isinstance(predicate.right, ast.ColumnRef)
    )


def reorder_joins(
    plan: algebra.LogicalPlan,
    cardinality: CardinalityFn,
    ndv: NdvFn,
    shape: str = "left-deep",
) -> algebra.LogicalPlan:
    """Recursively reorder INNER/CROSS join regions by dynamic
    programming.

    ``cardinality`` estimates rows of a unit subplan; ``ndv`` estimates
    per-column distinct counts for join-selectivity computation.
    ``shape`` selects the search space: ``"left-deep"`` (the paper's
    restriction) or ``"bushy"`` (full partition DP — the paper's
    future-work extension, which increases pipeline parallelism).
    """
    if shape not in ("left-deep", "bushy"):
        raise OptimizerError(f"unknown plan shape {shape!r}")
    # First recurse into children so nested regions are handled.
    new_children = [
        reorder_joins(child, cardinality, ndv, shape)
        for child in plan.children()
    ]
    plan = plan.with_children(new_children) if new_children else plan

    collected = collect_join_region(plan)
    if collected is None:
        return plan
    region, leftover = collected
    if shape == "bushy":
        ordered = _dp_bushy(region, cardinality, ndv)
    else:
        ordered = _dp_order(region, cardinality, ndv)
    if leftover:
        ordered = algebra.Filter(ordered, ast.conjoin(leftover))
    return ordered


def _edge_stats(
    region: JoinRegion,
    cardinality: CardinalityFn,
    ndv: NdvFn,
) -> Tuple[
    List[float],
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, int], List[ast.Expression]],
]:
    """Unit cardinalities plus per-pair selectivities and predicates."""
    units = region.units
    unit_rows = [max(cardinality(unit), 1.0) for unit in units]

    # Per-edge selectivity: 1 / max(ndv(left key), ndv(right key)).
    edge_selectivity: Dict[Tuple[int, int], float] = {}
    edges_between: Dict[Tuple[int, int], List[ast.Expression]] = {}
    for first, second, predicate in region.equi_edges:
        assert isinstance(predicate, ast.BinaryOp)
        left_ref, right_ref = predicate.left, predicate.right
        # Align refs with units.
        if units[first].schema.find(left_ref.name, left_ref.table) is None:
            left_ref, right_ref = right_ref, left_ref
        sel = 1.0 / max(
            ndv(units[first], left_ref), ndv(units[second], right_ref), 1.0
        )
        key = (first, second)
        if key in edge_selectivity:
            # Multiple equi predicates between the same pair: compound key.
            edge_selectivity[key] *= sel
        else:
            edge_selectivity[key] = sel
        edges_between.setdefault(key, []).append(predicate)
    return unit_rows, edge_selectivity, edges_between


def _make_set_rows(
    unit_rows: List[float],
    edge_selectivity: Dict[Tuple[int, int], float],
):
    """Memoized Cout row estimator for unit subsets.

    Each subset's estimate is independent of how the DP decomposes it,
    so it is computed (units × applicable edge selectivities, clamped
    to ≥1 at the end) exactly once and cached by frozenset.
    """
    edge_items = list(edge_selectivity.items())
    memo: Dict[FrozenSet[int], float] = {}

    def set_rows(members: FrozenSet[int]) -> float:
        cached = memo.get(members)
        if cached is not None:
            return cached
        rows = 1.0
        for member in members:
            rows *= unit_rows[member]
        for (first, second), sel in edge_items:
            if first in members and second in members:
                rows *= sel
        rows = max(rows, 1.0)
        memo[members] = rows
        return rows

    return set_rows


def _adjacency(
    unit_count: int, edge_selectivity: Dict[Tuple[int, int], float]
) -> List[Set[int]]:
    """Per-unit neighbor sets over the equi-join graph."""
    neighbors: List[Set[int]] = [set() for _ in range(unit_count)]
    for first, second in edge_selectivity:
        neighbors[first].add(second)
        neighbors[second].add(first)
    return neighbors


def _dp_order(
    region: JoinRegion,
    cardinality: CardinalityFn,
    ndv: NdvFn,
) -> algebra.LogicalPlan:
    units = region.units
    unit_count = len(units)
    unit_rows, edge_selectivity, edges_between = _edge_stats(
        region, cardinality, ndv
    )
    set_rows = _make_set_rows(unit_rows, edge_selectivity)
    adjacency = _adjacency(unit_count, edge_selectivity)

    # Left-deep DP over subsets, avoiding cross products when possible.
    best: Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]] = {}
    for index in range(unit_count):
        best[frozenset([index])] = (0.0, (index,))

    for size in range(2, unit_count + 1):
        for members in map(frozenset, itertools.combinations(range(unit_count), size)):
            # ``set_rows(members)`` does not depend on which unit joins
            # last, so it is hoisted out of the candidate loop; entries
            # whose last join would be a cross product (no edge back
            # into the rest) are kept aside and only compete when no
            # connected candidate exists — same preference order as
            # before, fewer comparisons on the common path.
            rows_here: Optional[float] = None
            candidates: List[Tuple[float, Tuple[int, ...]]] = []
            disconnected: List[Tuple[float, Tuple[int, ...]]] = []
            for unit in members:
                rest = members - {unit}
                prev = best.get(rest)
                if prev is None:
                    continue
                if rows_here is None:
                    rows_here = set_rows(members)
                entry = (prev[0] + rows_here, prev[1] + (unit,))
                if size == 2 or not adjacency[unit].isdisjoint(rest):
                    candidates.append(entry)
                else:
                    disconnected.append(entry)
            pool = candidates or disconnected
            if pool:
                best[members] = min(pool)

    full = frozenset(range(unit_count))
    if full not in best:
        raise OptimizerError("join reordering failed to cover all units")
    order = best[full][1]

    # Build the left-deep tree, attaching predicates as they connect.
    remaining_complex = list(region.complex_predicates)
    used_edges: Set[Tuple[int, int]] = set()
    plan = units[order[0]]
    joined: Set[int] = {order[0]}
    for unit_index in order[1:]:
        conditions: List[ast.Expression] = []
        for member in joined:
            key = (min(member, unit_index), max(member, unit_index))
            if key in edges_between and key not in used_edges:
                conditions.extend(edges_between[key])
                used_edges.add(key)
        joined.add(unit_index)
        condition = ast.conjoin(conditions)
        kind = "INNER" if condition is not None else "CROSS"
        plan = algebra.Join(plan, units[unit_index], condition, kind)
        # Attach complex predicates once their span is covered.
        still_pending = []
        attach: List[ast.Expression] = []
        for span, predicate in remaining_complex:
            if span <= joined:
                attach.append(predicate)
            else:
                still_pending.append((span, predicate))
        remaining_complex = still_pending
        if attach:
            plan = algebra.Filter(plan, ast.conjoin(attach))

    if remaining_complex:
        plan = algebra.Filter(
            plan, ast.conjoin([p for _, p in remaining_complex])
        )
    return plan


# ---------------------------------------------------------------------------
# bushy join ordering (full partition DP)
# ---------------------------------------------------------------------------


def _dp_bushy(
    region: JoinRegion,
    cardinality: CardinalityFn,
    ndv: NdvFn,
) -> algebra.LogicalPlan:
    """Full DP over subset partitions: bushy trees allowed.

    Bushy shapes let independent subtrees execute in parallel — the
    pipeline-parallelism benefit the paper's preliminary experiments
    observed (§IV-B footnote 5).  Cost metric is Cout, as in the
    left-deep DP, so the bushy result is never worse in estimated
    intermediate volume.
    """
    units = region.units
    unit_count = len(units)
    unit_rows, edge_selectivity, edges_between = _edge_stats(
        region, cardinality, ndv
    )
    set_rows = _make_set_rows(unit_rows, edge_selectivity)
    adjacency = _adjacency(unit_count, edge_selectivity)

    def connected(one: FrozenSet[int], other: FrozenSet[int]) -> bool:
        return any(
            not adjacency[member].isdisjoint(other) for member in one
        )

    # best[S] = (cost, split) where split is None for singletons or
    # (S1, S2) for a join of two best sub-plans.
    best: Dict[FrozenSet[int], Tuple[float, Optional[Tuple[FrozenSet[int], FrozenSet[int]]]]] = {}
    for index in range(unit_count):
        best[frozenset([index])] = (0.0, None)

    all_units = list(range(unit_count))
    for size in range(2, unit_count + 1):
        for members in map(frozenset, itertools.combinations(all_units, size)):
            rows_here = set_rows(members)
            candidates = []
            fallback = []
            member_list = sorted(members)
            anchor = member_list[0]
            # Enumerate partitions (S1 contains the anchor to dedupe).
            rest = [m for m in member_list if m != anchor]
            for bits in range(2 ** len(rest)):
                one = {anchor}
                for position, member in enumerate(rest):
                    if bits & (1 << position):
                        one.add(member)
                one_set = frozenset(one)
                other_set = members - one_set
                if not other_set:
                    continue
                one_best = best.get(one_set)
                other_best = best.get(other_set)
                if one_best is None or other_best is None:
                    continue
                cost = one_best[0] + other_best[0] + rows_here
                entry = (cost, (one_set, other_set))
                if connected(one_set, other_set):
                    candidates.append(entry)
                else:
                    fallback.append(entry)
            pool = candidates or fallback
            if pool:
                best[members] = min(
                    pool, key=lambda item: (item[0], sorted(item[1][0]))
                )

    full = frozenset(all_units)
    if full not in best:
        raise OptimizerError("bushy join ordering failed to cover all units")

    remaining_complex = list(region.complex_predicates)
    used_edges: Set[Tuple[int, int]] = set()

    def build(members: FrozenSet[int]) -> algebra.LogicalPlan:
        cost, split = best[members]
        del cost
        if split is None:
            (index,) = members
            return units[index]
        one_set, other_set = split
        left = build(one_set)
        right = build(other_set)
        conditions: List[ast.Expression] = []
        for a in one_set:
            for b in other_set:
                key = (min(a, b), max(a, b))
                if key in edges_between and key not in used_edges:
                    conditions.extend(edges_between[key])
                    used_edges.add(key)
        condition = ast.conjoin(conditions)
        kind = "INNER" if condition is not None else "CROSS"
        plan: algebra.LogicalPlan = algebra.Join(left, right, condition, kind)
        # Attach complex predicates once their span is covered here.
        nonlocal remaining_complex
        still_pending = []
        attach: List[ast.Expression] = []
        for span, predicate in remaining_complex:
            if span <= members:
                attach.append(predicate)
            else:
                still_pending.append((span, predicate))
        remaining_complex = still_pending
        if attach:
            plan = algebra.Filter(plan, ast.conjoin(attach))
        return plan

    plan = build(full)
    if remaining_complex:
        plan = algebra.Filter(
            plan, ast.conjoin([p for _, p in remaining_complex])
        )
    return plan
