"""Phase 1 — cross-database logical optimization (§IV-B1).

Runs the shared textbook rewrites — selection/projection pushdown and
left-deep join ordering — with a *global* cardinality estimator backed
by statistics the prep phase gathered through the connectors.  The
output is an optimized logical plan whose every node carries an
estimated cardinality (the annotator's Rule 4 consumes them).
"""

from __future__ import annotations

from typing import Optional

from repro.core.catalog import GlobalCatalog
from repro.core.partition import expand_partitions
from repro.engine.cost import CardinalityEstimator
from repro.relational import algebra
from repro.relational.builder import build_plan
from repro.relational.optimizer import (
    prune_columns,
    push_filters,
    reorder_joins,
)
from repro.sql import ast


class LogicalOptimizer:
    """Builds and optimizes the logical plan for a cross-database query.

    ``plan_shape`` selects the join-ordering search space: the paper
    restricts itself to left-deep trees; ``"bushy"`` enables the full
    DP the authors defer to future work (§IV-B footnote 5).

    ``feedback`` (a :class:`repro.feedback.store.FeedbackOverlay` or
    None) overlays learned cardinalities on every estimator this
    optimizer builds, so a replanned query searches the join-order
    space with observed row counts instead of the catalog's model.
    """

    def __init__(
        self,
        catalog: GlobalCatalog,
        plan_shape: str = "left-deep",
        feedback: Optional[object] = None,
    ):
        self._catalog = catalog
        self._plan_shape = plan_shape
        self.feedback = feedback

    def optimize(self, query: ast.Select) -> algebra.LogicalPlan:
        """Bind ``query`` and apply the Phase-1 rewrites."""
        plan = build_plan(query, self._catalog)
        return self.optimize_plan(plan)

    def optimize_plan(
        self, plan: algebra.LogicalPlan
    ) -> algebra.LogicalPlan:
        plan = push_filters(plan)
        estimator = CardinalityEstimator(
            self._catalog.scan_stats, feedback=self.feedback
        )
        plan = reorder_joins(
            plan,
            cardinality=estimator.estimate_rows,
            ndv=estimator.estimate_ndv,
            shape=self._plan_shape,
        )
        plan = prune_columns(plan)
        if self._catalog.has_partitions():
            # Last rewrite: replace partitioned-table scans with their
            # per-shard branches (zipping co-partitioned joins,
            # broadcasting small sides, gathering the rest under UNION
            # ALL).  Runs after join ordering so the DP searches the
            # compact logical space, not one blown up per shard.
            plan = expand_partitions(
                plan,
                self._catalog.partition_spec,
                lambda name: self._catalog.resolve_table((name,)),
            )
        # A fresh estimator pass annotates every node of the final tree
        # with its cardinality (the rewrites rebuilt the nodes).
        final_estimator = CardinalityEstimator(
            self._catalog.scan_stats, feedback=self.feedback
        )
        _annotate_all(plan, final_estimator)
        return plan


def _annotate_all(
    plan: algebra.LogicalPlan, estimator: CardinalityEstimator
) -> None:
    estimator.estimate_rows(plan)
    for child in plan.children():
        _annotate_all(child, estimator)
