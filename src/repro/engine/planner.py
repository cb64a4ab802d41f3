"""The engine-local planner: logical plan → physical plan.

Runs the shared logical rewrites (restriction ORs, filter pushdown,
join reordering, projection pruning) with the engine's own statistics,
then lowers the plan to physical operators, choosing hash joins for
equi conditions and pushing work into foreign wrappers according to
the vendor profile's capabilities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.engine import physical
from repro.engine.catalog import BaseTable, ForeignTable, VersionStamp
from repro.engine.cost import CardinalityEstimator, ScanStats
from repro.engine.fdw import ForeignScan, build_remote_query, strip_qualifiers
from repro.errors import CatalogError, ExecutionError
from repro.relational import algebra
from repro.relational.optimizer import (
    prune_columns,
    push_filters,
    reorder_joins,
    restrict_ors,
)
from repro.relational.schema import Schema
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


class LocalPlanner:
    """Plans and lowers queries for one :class:`Database`."""

    def __init__(self, database: "Database"):
        self._db = database

    # -- logical optimization ----------------------------------------------
    #
    # ``reads`` is the caller's accumulator of what the statistics
    # depended on beyond this engine's own catalog: every remote
    # consulted adds the versions its answer was read under.  The
    # database's plan memo passes one per build.

    def scan_stats(
        self, scan: algebra.Scan, reads: Optional[VersionStamp] = None
    ) -> ScanStats:
        """Statistics provider backing the cardinality estimator."""
        obj = self._db.catalog.get(scan.table)
        if isinstance(obj, BaseTable):
            stats = obj.stats
            return ScanStats(
                row_count=float(stats.row_count), columns=stats.columns
            )
        if isinstance(obj, ForeignTable):
            server = self._db.server(obj.server)
            remote_stats = server.remote_table_stats(obj.remote_object, reads)
            if remote_stats is not None:
                return ScanStats(
                    row_count=float(remote_stats.row_count),
                    columns=remote_stats.columns,
                )
            rows = server.remote_row_estimate(obj.remote_object, reads)
            return ScanStats(row_count=rows, columns={})
        if scan.placeholder:
            rows = scan.estimated_rows if scan.estimated_rows else 1000.0
            return ScanStats(row_count=rows, columns={})
        raise CatalogError(f"cannot scan object {scan.table!r}")

    def make_estimator(
        self, reads: Optional[VersionStamp] = None
    ) -> CardinalityEstimator:
        return CardinalityEstimator(
            lambda scan: self.scan_stats(scan, reads)
        )

    def optimize(
        self,
        plan: algebra.LogicalPlan,
        estimator: Optional[CardinalityEstimator] = None,
    ) -> algebra.LogicalPlan:
        """Run the logical rewrite pipeline with local statistics.

        A caller that goes on to cost the result passes its
        ``estimator`` so the statistics fetched here (remote ones
        included) are not fetched again.  The inputs of every INNER
        join come back carrying their ``estimated_rows``, which is
        what :meth:`_plan_join` picks the hash build side from."""
        plan = push_filters(restrict_ors(plan))
        if estimator is None:
            estimator = self.make_estimator()
        plan = reorder_joins(
            plan,
            cardinality=estimator.estimate_rows,
            ndv=estimator.estimate_ndv,
        )
        plan = prune_columns(plan)
        _estimate_join_inputs(plan, estimator)
        return plan

    # -- physical lowering -----------------------------------------------------

    def to_physical(self, plan: algebra.LogicalPlan) -> physical.PhysicalPlan:
        """A fresh operator tree for ``plan``.  The database lowers each
        memoized plan once and keeps the tree on the memo entry, so
        nothing here may depend on what a single run sees."""
        pushed = self._try_foreign_pushdown(plan)
        if pushed is not None:
            return pushed

        if isinstance(plan, algebra.Scan):
            return self._plan_scan(plan)

        if isinstance(plan, algebra.Filter):
            return physical.FilterOp(
                self.to_physical(plan.child), plan.predicate
            )

        if isinstance(plan, algebra.Project):
            return _project(self.to_physical(plan.child), plan)

        if isinstance(plan, algebra.Alias):
            # A renaming runs nothing: the child's operator takes the
            # new output names (operators read only their inputs' names).
            child = self.to_physical(plan.child)
            child.schema = plan.schema
            return child

        if isinstance(plan, algebra.Join):
            return self._plan_join(plan)

        if isinstance(plan, algebra.Union):
            # One gather over the flattened left-deep UNION ALL chain
            # (how partition gathers arrive).
            return physical.UnionAllOp(
                [self.to_physical(branch) for branch in _union_branches(plan)],
                plan.schema,
            )

        if isinstance(plan, algebra.Aggregate):
            return physical.HashAggregate(
                self.to_physical(plan.child),
                [key.expr for key in plan.keys],
                plan.aggregates,
                plan.schema,
            )

        if isinstance(plan, algebra.Sort):
            return physical.SortOp(self.to_physical(plan.child), plan.keys)

        if isinstance(plan, algebra.Limit):
            return physical.LimitOp(self.to_physical(plan.child), plan.count)

        if isinstance(plan, algebra.Distinct):
            return physical.DistinctOp(self.to_physical(plan.child))

        raise ExecutionError(
            f"cannot lower logical node {type(plan).__name__}"
        )

    # -- scans ----------------------------------------------------------------

    def _plan_scan(self, scan: algebra.Scan) -> physical.PhysicalPlan:
        if scan.placeholder:
            raise ExecutionError(
                f"placeholder scan {scan.table!r} reached the local "
                "executor; delegation must resolve placeholders first"
            )
        obj = self._db.catalog.require(scan.table)
        if isinstance(obj, BaseTable):
            return physical.SeqScan(obj.name, scan.schema, obj.rows)
        if isinstance(obj, ForeignTable):
            server = self._db.server(obj.server)
            remote_query = build_remote_query(obj.remote_object)
            return ForeignScan(
                server,
                remote_query,
                scan.schema,
                tag=f"fdw:{obj.remote_object.lower()}",
            )
        raise CatalogError(f"cannot scan object {scan.table!r}")

    def _try_foreign_pushdown(
        self, plan: algebra.LogicalPlan
    ) -> Optional[physical.PhysicalPlan]:
        """Lower Project/Filter-over-foreign-scan with wrapper pushdown.

        Which pieces execute remotely depends on the engine profile —
        this is exactly the vendor variance the paper's virtual-relation
        technique (§V, "Preventing Undesirable Executions") sidesteps.
        """
        project: Optional[algebra.Project] = None
        filter_node: Optional[algebra.Filter] = None
        node = plan
        if isinstance(node, algebra.Project):
            project = node
            node = node.child
        if isinstance(node, algebra.Filter):
            filter_node = node
            node = node.child
        # The column pruner inserts a pass-through projection directly over
        # scans; see through it (its narrowing is recomputed below).
        if isinstance(node, algebra.Project) and all(
            isinstance(item.expr, ast.ColumnRef)
            and item.expr.name == item.name
            for item in node.items
        ):
            if project is None:
                project = node
            node = node.child
        if not isinstance(node, algebra.Scan) or node.placeholder:
            return None
        if project is None and filter_node is None:
            return None
        obj = self._db.catalog.get(node.table)
        if not isinstance(obj, ForeignTable):
            return None

        profile = self._db.profile
        server = self._db.server(obj.server)

        remote_where: Optional[ast.Expression] = None
        local_filter: Optional[algebra.Filter] = filter_node
        if filter_node is not None and profile.pushdown_filters:
            remote_where = strip_qualifiers(filter_node.predicate)
            local_filter = None

        remote_columns: Optional[List[str]] = None
        fetched_fields = list(node.schema.fields)
        if profile.pushdown_projections:
            needed = []
            if project is not None:
                for item in project.items:
                    for ref in ast.column_refs(item.expr):
                        index = node.schema.resolve(ref.name, ref.table)
                        if index not in needed:
                            needed.append(index)
            else:
                needed = list(range(len(node.schema)))
            if local_filter is not None:
                for ref in ast.column_refs(local_filter.predicate):
                    index = node.schema.resolve(ref.name, ref.table)
                    if index not in needed:
                        needed.append(index)
            if project is not None and len(needed) < len(node.schema):
                needed.sort()
                fetched_fields = [node.schema[i] for i in needed]
                remote_columns = [field.name for field in fetched_fields]

        fetched_schema = Schema(fetched_fields)
        remote_query = build_remote_query(
            obj.remote_object, remote_columns, remote_where
        )
        result: physical.PhysicalPlan = ForeignScan(
            server,
            remote_query,
            fetched_schema,
            tag=f"fdw:{obj.remote_object.lower()}",
        )

        if local_filter is not None:
            result = physical.FilterOp(result, local_filter.predicate)
        if project is not None:
            result = _project(result, project)
        return result

    # -- joins ----------------------------------------------------------------

    def _plan_join(self, plan: algebra.Join) -> physical.PhysicalPlan:
        left = self.to_physical(plan.left)
        right = self.to_physical(plan.right)

        split = None if plan.condition is None else plan.hash_keys()
        if split is None:
            return physical.NestedLoopJoin(
                left, right, plan.schema, plan.condition, plan.kind
            )

        keys, residual = split
        # The rule ``CostModel.node_self_cost`` prices: the hash table
        # goes on the input expected to be the smaller.  A tie or a
        # missing estimate keeps the right input, and so does every
        # join whose probe loop must start from the left row — a LEFT
        # join pads it, a residual reads ``left ++ right``.
        left_rows = plan.left.estimated_rows
        right_rows = plan.right.estimated_rows
        build_left = (
            plan.kind == "INNER"
            and residual is None
            and left_rows is not None
            and right_rows is not None
            and left_rows < right_rows
        )
        return physical.HashJoin(
            left, right, keys, plan.schema, plan.kind, residual, build_left
        )


def _estimate_join_inputs(
    plan: algebra.LogicalPlan, estimator: CardinalityEstimator
) -> None:
    """Estimate both inputs of every INNER join of an optimized plan.

    Pruning rebuilt the nodes the join-order search had estimated, so
    the final tree is estimated again — but only below INNER joins:
    the search estimated each of their inputs, which leaves every scan
    down there in ``estimator``'s cache, and no remote is consulted a
    second time.  A LEFT join builds on its right input whatever the
    sizes and a plan without joins has no side to choose; estimating
    those would consult remotes that planning never asked.
    """
    if isinstance(plan, algebra.Join) and plan.kind == "INNER":
        estimator.estimate_rows(plan.left)
        estimator.estimate_rows(plan.right)
    for child in plan.children():
        _estimate_join_inputs(child, estimator)


def _union_branches(plan: algebra.Union) -> List[algebra.LogicalPlan]:
    """The leaves of a left-deep UNION ALL chain, in branch order."""
    branches: List[algebra.LogicalPlan] = []

    def walk(node: algebra.LogicalPlan) -> None:
        if isinstance(node, algebra.Union):
            walk(node.left)
            walk(node.right)
        else:
            branches.append(node)

    walk(plan)
    return branches


def _project(
    child: physical.PhysicalPlan, project: algebra.Project
) -> physical.PhysicalPlan:
    """Lower ``project`` over its already lowered child.

    A projection of plain columns over another one picks its columns
    from the grandchild directly: the two position maps compose into
    one operator.  A projection that hands on all of its input's
    columns, in order — the SELECT list over a pruned join, the
    pass-through over a pruned scan — computes nothing: ``child`` takes
    its output names.
    """
    items = [item.expr for item in project.items]
    plain = all(isinstance(item, ast.ColumnRef) for item in items)
    if plain and isinstance(child, physical.ProjectOp) and child._plain:
        resolve = child.schema.resolve
        items = [child.items[resolve(item.name, item.table)] for item in items]
        child = child.child
    find = child.schema.find
    if (
        plain
        and len(items) == len(child.schema)
        and all(
            find(item.name, item.table) == position
            for position, item in enumerate(items)
        )
    ):
        child.schema = project.schema
        return child
    return physical.ProjectOp(child, items, project.schema)

