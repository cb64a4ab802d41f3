"""Cardinality estimation and the price list (EXPLAIN backend and more).

The estimator walks a logical plan, propagating row counts and per-column
statistics through operators with the usual System-R style heuristics.
The cost model turns cardinalities into engine-local cost units using
the vendor profile's constants, and those into the common currency of
simulated seconds (§IV footnote 6).  It is the only place that does:
Rule 4's quotes, the schedule simulator's task times, the baselines'
columns and the prices calibration scores are all evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.engine.profiles import EngineProfile
from repro.engine.stats import ColumnStats
from repro.errors import OptimizerError
from repro.relational import algebra
from repro.relational.schema import Schema
from repro.sql import ast

#: Default selectivity for predicates we cannot analyze.
DEFAULT_SELECTIVITY = 0.33
LIKE_SELECTIVITY = 0.2
RANGE_SELECTIVITY = 0.3

ColumnKey = Tuple[Optional[str], str]


@dataclass
class ScanStats:
    """What a stats provider knows about a scan's source relation."""

    row_count: float
    columns: Dict[str, ColumnStats]


#: scan -> ScanStats; engines back this with their catalogs, XDB's
#: optimizer backs it with remote metadata gathered through connectors.
StatsProviderFn = Callable[[algebra.Scan], ScanStats]


@dataclass
class _NodeEstimate:
    rows: float
    columns: Dict[ColumnKey, ColumnStats]


class CardinalityEstimator:
    """Estimates row counts (and key NDVs) for logical plans.

    ``feedback`` (a :class:`repro.feedback.store.FeedbackOverlay`, duck-
    typed here as anything with ``correct(plan, rows)``) overrides the
    model's estimate with a learned cardinality when the node's
    fingerprint has been observed before.  The correction lands in the
    memo and in ``plan.estimated_rows``, so both the Selinger DP (which
    calls :meth:`estimate_rows`) and the Rule-4 placement costing
    (which reads ``estimated_rows``) replan with the actuals.
    """

    def __init__(
        self,
        stats_provider: StatsProviderFn,
        feedback: Optional[object] = None,
    ):
        self._stats_provider = stats_provider
        self._feedback = feedback
        # id(plan) -> (plan, estimate).  The entry keeps the node alive
        # so its id cannot be recycled by a later allocation and alias
        # a stale estimate; the identity check is belt and braces.
        self._cache: Dict[
            int, Tuple[algebra.LogicalPlan, _NodeEstimate]
        ] = {}

    def estimate_rows(self, plan: algebra.LogicalPlan) -> float:
        """Estimated output rows of ``plan`` (also annotates the node)."""
        estimate = self._estimate(plan)
        plan.estimated_rows = estimate.rows
        return estimate.rows

    def estimate_ndv(self, plan: algebra.LogicalPlan, position: int) -> float:
        """Estimated distinct values of column ``position`` of ``plan``'s
        output."""
        estimate = self._estimate(plan)
        field = plan.schema[position]
        stats = estimate.columns.get((field.relation, field.name.lower()))
        if stats is None or stats.ndv <= 0:
            return max(estimate.rows, 1.0)
        return float(min(stats.ndv, max(estimate.rows, 1.0)))

    # -- recursive estimation -------------------------------------------------

    def _estimate(self, plan: algebra.LogicalPlan) -> _NodeEstimate:
        cached = self._cache.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        method = getattr(self, f"_est_{type(plan).__name__}", None)
        if method is None:
            raise OptimizerError(
                f"cannot estimate node {type(plan).__name__}"
            )
        estimate = method(plan)
        estimate.rows = max(estimate.rows, 0.0)
        if self._feedback is not None:
            corrected = self._feedback.correct(plan, estimate.rows)
            if corrected is not None:
                rows = max(float(corrected), 0.0)
                estimate = _NodeEstimate(
                    rows=rows, columns=_scale(estimate.columns, rows)
                )
        self._cache[id(plan)] = (plan, estimate)
        plan.estimated_rows = estimate.rows
        return estimate

    def _est_Scan(self, plan: algebra.Scan) -> _NodeEstimate:
        stats = self._stats_provider(plan)
        columns = {
            (field.relation, field.name.lower()): column_stats
            for field in plan.schema
            for column_stats in (stats.columns.get(field.name.lower()),)
            if column_stats is not None
        }
        return _NodeEstimate(rows=float(stats.row_count), columns=columns)

    def _est_Filter(self, plan: algebra.Filter) -> _NodeEstimate:
        child = self._estimate(plan.child)
        selectivity = predicate_selectivity(
            plan.predicate, plan.child.schema, child.columns, child.rows
        )
        rows = child.rows * selectivity
        return _NodeEstimate(rows=rows, columns=_scale(child.columns, rows))

    def _est_Project(self, plan: algebra.Project) -> _NodeEstimate:
        child = self._estimate(plan.child)
        columns: Dict[ColumnKey, ColumnStats] = {}
        for item, field in zip(plan.items, plan.schema):
            if isinstance(item.expr, ast.ColumnRef):
                stats = _column_stats_for(
                    item.expr, plan.child.schema, child.columns
                )
                if stats is not None:
                    columns[(field.relation, field.name.lower())] = stats
        return _NodeEstimate(rows=child.rows, columns=columns)

    def _est_Alias(self, plan: algebra.Alias) -> _NodeEstimate:
        child = self._estimate(plan.child)
        columns = {
            (plan.binding, name): stats
            for (_, name), stats in child.columns.items()
        }
        return _NodeEstimate(rows=child.rows, columns=columns)

    def _est_Join(self, plan: algebra.Join) -> _NodeEstimate:
        left = self._estimate(plan.left)
        right = self._estimate(plan.right)
        columns = dict(left.columns)
        columns.update(right.columns)
        cross = max(left.rows, 1.0) * max(right.rows, 1.0)

        if plan.condition is None:
            rows = cross
        else:
            selectivity = 1.0
            merged_schema = plan.schema
            for conjunct in ast.conjuncts(plan.condition):
                selectivity *= _join_conjunct_selectivity(
                    conjunct,
                    plan,
                    left,
                    right,
                    merged_schema,
                )
            rows = cross * selectivity
        if plan.kind == "LEFT":
            rows = max(rows, left.rows)
        return _NodeEstimate(rows=rows, columns=_scale(columns, rows))

    def _est_Aggregate(self, plan: algebra.Aggregate) -> _NodeEstimate:
        child = self._estimate(plan.child)
        if not plan.keys:
            return _NodeEstimate(rows=1.0, columns={})
        groups = 1.0
        columns: Dict[ColumnKey, ColumnStats] = {}
        for key, field in zip(plan.keys, plan.schema):
            ndv = None
            if isinstance(key.expr, ast.ColumnRef):
                stats = _column_stats_for(
                    key.expr, plan.child.schema, child.columns
                )
                if stats is not None:
                    ndv = float(stats.ndv)
                    columns[(field.relation, field.name.lower())] = stats
            groups *= ndv if ndv is not None else 10.0
        rows = min(groups, max(child.rows, 1.0))
        return _NodeEstimate(rows=rows, columns=columns)

    def _est_Sort(self, plan: algebra.Sort) -> _NodeEstimate:
        return self._estimate(plan.child)

    def _est_Limit(self, plan: algebra.Limit) -> _NodeEstimate:
        child = self._estimate(plan.child)
        rows = min(child.rows, float(plan.count))
        return _NodeEstimate(rows=rows, columns=_scale(child.columns, rows))

    def _est_Distinct(self, plan: algebra.Distinct) -> _NodeEstimate:
        child = self._estimate(plan.child)
        # Distinct rows are bounded by the product of the output
        # columns' NDVs (capped by the input cardinality).  Columns
        # without statistics contribute a default NDV factor, same as
        # the grouping estimate.
        product = 1.0
        known_any = False
        for field in plan.schema:
            stats = child.columns.get((field.relation, field.name.lower()))
            if stats is not None and stats.ndv > 0:
                known_any = True
                product *= float(stats.ndv)
            else:
                product *= 10.0
            # Early cap: keeps the product finite on wide schemas.
            product = min(product, max(child.rows, 1.0))
        if known_any:
            rows = min(product, child.rows)
        else:
            rows = child.rows * 0.9
        return _NodeEstimate(rows=rows, columns=_scale(child.columns, rows))

    def _est_Union(self, plan: "algebra.Union") -> _NodeEstimate:
        left = self._estimate(plan.left)
        right = self._estimate(plan.right)
        rows = left.rows + right.rows
        # Merge per-position column statistics instead of discarding
        # them: the union's schema takes the left input's names.
        columns: Dict[ColumnKey, ColumnStats] = {}
        for left_field, right_field, out_field in zip(
            plan.left.schema, plan.right.schema, plan.schema
        ):
            left_stats = left.columns.get(
                (left_field.relation, left_field.name.lower())
            )
            right_stats = right.columns.get(
                (right_field.relation, right_field.name.lower())
            )
            merged = _merge_union_stats(
                left_stats, right_stats, left.rows, right.rows
            )
            if merged is not None:
                columns[(out_field.relation, out_field.name.lower())] = merged
        return _NodeEstimate(rows=rows, columns=_scale(columns, rows))


def _merge_union_stats(
    left: Optional[ColumnStats],
    right: Optional[ColumnStats],
    left_rows: float,
    right_rows: float,
) -> Optional[ColumnStats]:
    """Column statistics for one UNION ALL output position.

    A side without statistics may contribute up to its full row count
    of distinct values, so its NDV is bounded by its cardinality; its
    value bounds are unknown, which poisons min/max (returning wrong
    bounds would skew range selectivity downstream).
    """
    if left is None and right is None:
        return None
    left_ndv = float(left.ndv) if left is not None else max(left_rows, 1.0)
    right_ndv = (
        float(right.ndv) if right is not None else max(right_rows, 1.0)
    )
    ndv = int(left_ndv + right_ndv)
    null_count = (left.null_count if left else 0) + (
        right.null_count if right else 0
    )
    min_value = max_value = None
    if left is not None and right is not None:
        try:
            if left.min_value is not None and right.min_value is not None:
                min_value = min(left.min_value, right.min_value)
            if left.max_value is not None and right.max_value is not None:
                max_value = max(left.max_value, right.max_value)
        except TypeError:
            min_value = max_value = None
    widths = [s.avg_width for s in (left, right) if s is not None]
    return ColumnStats(
        ndv=ndv,
        null_count=null_count,
        min_value=min_value,
        max_value=max_value,
        avg_width=sum(widths) / len(widths),
    )


def _scale(
    columns: Dict[ColumnKey, ColumnStats], rows: float
) -> Dict[ColumnKey, ColumnStats]:
    """Cap NDVs by the (shrunken) row count."""
    capped = {}
    bound = max(int(rows), 1)
    for key, stats in columns.items():
        capped[key] = ColumnStats(
            ndv=min(stats.ndv, bound),
            null_count=stats.null_count,
            min_value=stats.min_value,
            max_value=stats.max_value,
            avg_width=stats.avg_width,
        )
    return capped


def _column_stats_for(
    ref: ast.ColumnRef,
    schema: Schema,
    columns: Dict[ColumnKey, ColumnStats],
) -> Optional[ColumnStats]:
    index = schema.find(ref.name, ref.table)
    if index is None:
        return None
    field = schema[index]
    return columns.get((field.relation, field.name.lower()))


def _join_conjunct_selectivity(
    conjunct: ast.Expression,
    plan: algebra.Join,
    left: _NodeEstimate,
    right: _NodeEstimate,
    schema: Schema,
) -> float:
    if (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        left_stats = _column_stats_for(
            conjunct.left, schema, {**left.columns, **right.columns}
        )
        right_stats = _column_stats_for(
            conjunct.right, schema, {**left.columns, **right.columns}
        )
        left_ndv = float(left_stats.ndv) if left_stats else None
        right_ndv = float(right_stats.ndv) if right_stats else None
        candidates = [n for n in (left_ndv, right_ndv) if n and n > 0]
        if candidates:
            return 1.0 / max(candidates)
        return 1.0 / max(max(left.rows, 1.0), max(right.rows, 1.0))
    return predicate_selectivity(
        conjunct, schema, {**left.columns, **right.columns}, left.rows * right.rows
    )


def predicate_selectivity(
    predicate: ast.Expression,
    schema: Schema,
    columns: Dict[ColumnKey, ColumnStats],
    rows: float,
) -> float:
    """Estimated fraction of rows satisfying ``predicate``."""
    if isinstance(predicate, ast.BinaryOp):
        if predicate.op == "AND":
            return predicate_selectivity(
                predicate.left, schema, columns, rows
            ) * predicate_selectivity(predicate.right, schema, columns, rows)
        if predicate.op == "OR":
            first = predicate_selectivity(
                predicate.left, schema, columns, rows
            )
            second = predicate_selectivity(
                predicate.right, schema, columns, rows
            )
            return min(first + second - first * second, 1.0)
        if predicate.op in ("=", "<>", "!=", "<", ">", "<=", ">="):
            return _comparison_selectivity(predicate, schema, columns, rows)
    if isinstance(predicate, ast.UnaryOp) and predicate.op == "NOT":
        return 1.0 - predicate_selectivity(
            predicate.operand, schema, columns, rows
        )
    if isinstance(predicate, ast.Between):
        base = _range_fraction_between(predicate, schema, columns)
        return (1.0 - base) if predicate.negated else base
    if isinstance(predicate, ast.InList):
        base = _in_list_selectivity(predicate, schema, columns, rows)
        return (1.0 - base) if predicate.negated else base
    if isinstance(predicate, ast.Like):
        return (
            1.0 - LIKE_SELECTIVITY if predicate.negated else LIKE_SELECTIVITY
        )
    if isinstance(predicate, ast.IsNull):
        if isinstance(predicate.operand, ast.ColumnRef):
            stats = _column_stats_for(predicate.operand, schema, columns)
            if stats is not None and rows > 0:
                fraction = stats.null_fraction(int(rows))
                return 1.0 - fraction if predicate.negated else fraction
        return 0.05 if not predicate.negated else 0.95
    if isinstance(predicate, ast.Literal):
        if predicate.value is True:
            return 1.0
        if predicate.value in (False, None):
            return 0.0
    return DEFAULT_SELECTIVITY


def _comparison_selectivity(
    predicate: ast.BinaryOp,
    schema: Schema,
    columns: Dict[ColumnKey, ColumnStats],
    rows: float,
) -> float:
    column, literal = None, None
    if isinstance(predicate.left, ast.ColumnRef) and isinstance(
        predicate.right, ast.Literal
    ):
        column, literal = predicate.left, predicate.right.value
        op = predicate.op
    elif isinstance(predicate.right, ast.ColumnRef) and isinstance(
        predicate.left, ast.Literal
    ):
        column, literal = predicate.right, predicate.left.value
        op = _flip(predicate.op)
    elif (
        isinstance(predicate.left, ast.ColumnRef)
        and isinstance(predicate.right, ast.ColumnRef)
        and predicate.op == "="
    ):
        left_stats = _column_stats_for(predicate.left, schema, columns)
        right_stats = _column_stats_for(predicate.right, schema, columns)
        ndvs = [
            float(s.ndv) for s in (left_stats, right_stats) if s and s.ndv > 0
        ]
        return 1.0 / max(ndvs) if ndvs else DEFAULT_SELECTIVITY
    else:
        return DEFAULT_SELECTIVITY

    stats = _column_stats_for(column, schema, columns)
    if stats is None:
        return DEFAULT_SELECTIVITY
    if op == "=":
        return 1.0 / stats.ndv if stats.ndv > 0 else DEFAULT_SELECTIVITY
    if op in ("<>", "!="):
        return (
            1.0 - 1.0 / stats.ndv if stats.ndv > 0 else 1 - DEFAULT_SELECTIVITY
        )
    fraction = _range_fraction(stats, literal, op)
    return fraction if fraction is not None else RANGE_SELECTIVITY


def _flip(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)


def _to_number(value) -> Optional[float]:
    import datetime

    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    return None


def _range_fraction(
    stats: ColumnStats, literal, op: str
) -> Optional[float]:
    low = _to_number(stats.min_value)
    high = _to_number(stats.max_value)
    value = _to_number(literal)
    if low is None or high is None or value is None:
        return None
    if high <= low:
        return 0.5
    fraction = (value - low) / (high - low)
    fraction = min(max(fraction, 0.0), 1.0)
    if op in ("<", "<="):
        return fraction
    return 1.0 - fraction


def _range_fraction_between(
    predicate: ast.Between,
    schema: Schema,
    columns: Dict[ColumnKey, ColumnStats],
) -> float:
    if not isinstance(predicate.operand, ast.ColumnRef):
        return RANGE_SELECTIVITY
    stats = _column_stats_for(predicate.operand, schema, columns)
    if stats is None:
        return RANGE_SELECTIVITY
    low = _to_number(stats.min_value)
    high = _to_number(stats.max_value)
    if low is None or high is None or high <= low:
        return RANGE_SELECTIVITY
    bound_low = (
        _to_number(predicate.low.value)
        if isinstance(predicate.low, ast.Literal)
        else None
    )
    bound_high = (
        _to_number(predicate.high.value)
        if isinstance(predicate.high, ast.Literal)
        else None
    )
    if bound_low is None or bound_high is None:
        return RANGE_SELECTIVITY
    span = max(min(bound_high, high) - max(bound_low, low), 0.0)
    return min(span / (high - low), 1.0)


def _in_list_selectivity(
    predicate: ast.InList,
    schema: Schema,
    columns: Dict[ColumnKey, ColumnStats],
    rows: float,
) -> float:
    if isinstance(predicate.operand, ast.ColumnRef):
        stats = _column_stats_for(predicate.operand, schema, columns)
        if stats is not None and stats.ndv > 0:
            return min(len(predicate.items) / stats.ndv, 1.0)
    return min(len(predicate.items) * 0.1, 1.0)


# ---------------------------------------------------------------------------
# the price list
# ---------------------------------------------------------------------------
#
# Everything that turns row counts and an ``EngineProfile`` into cost
# units or simulated seconds is below; no other module reads a cost
# constant (``tests/test_cost_single_source.py``).  Rule 4 and EXPLAIN
# call it with estimated rows, the schedule simulator and the baselines
# with the rows that were observed, calibration with the rows that were
# measured — DESIGN.md §7 "Pricing" has the table.

#: Multiplier on the per-row *fetch* cost the consumer pays: text (JDBC)
#: rows must be parsed and re-typed, binary rows are copied.  This is
#: the dominant term behind the paper's observation that Presto's
#: transfer overhead exceeds Garlic's (§VI-B).
PROTOCOL_CPU_FACTORS = {"binary": 1.0, "jdbc": 2.2}

#: Landing an input in a temporary table costs its consumer this many
#: statement startups ...
LANDING_STATEMENTS = 5
#: ... plus this many cost units of catalog work.
LANDING_UNITS = 200.0


@dataclass(frozen=True)
class ExplainInfo:
    """What EXPLAIN reports: cardinality, cost, width, and a plan sketch."""

    estimated_rows: float
    total_cost: float
    row_width: int
    plan_text: str


#: The physical operator (as its span label prints it) a logical node is
#: priced as; scans and joins depend on the node, see ``_operator_kind``.
_OPERATOR_KINDS = {
    algebra.Filter: "Filter",
    algebra.Project: "Project",
    algebra.Alias: "Project",
    algebra.Aggregate: "HashAggregate",
    algebra.Sort: "Sort",
    algebra.Limit: "Limit",
    algebra.Distinct: "DistinctOp",
    algebra.Union: "UnionAllOp",
}


def _operator_kind(plan: algebra.LogicalPlan) -> str:
    if isinstance(plan, algebra.Scan):
        # Placeholder inputs arrive over the wire.
        return "ForeignScan" if plan.placeholder else "SeqScan"
    if isinstance(plan, algebra.Join):
        return "HashJoin" if plan.condition is not None else "NestedLoopJoin"
    return _OPERATOR_KINDS[type(plan)]


def _rows_in(child_rows: Sequence[float], index: int, default: float) -> float:
    known = len(child_rows) > index
    return max(child_rows[index] if known else default, 1.0)


class CostModel:
    """One engine's price list: its profile's constants applied to rows.

    Costs are in engine-local units unless the method says seconds;
    :meth:`seconds` is the conversion into the common currency (§IV
    footnote 6).
    """

    def __init__(self, profile: EngineProfile):
        self.profile = profile

    # -- operators ------------------------------------------------------------

    def operator_cost(
        self, kind: str, rows_out: float, child_rows: Sequence[float] = ()
    ) -> Optional[float]:
        """One physical operator's own charge, excluding its children.

        ``kind`` is the operator's name as its span label prints it;
        ``None`` for kinds the model charges no per-row work to.  An
        operator whose child counts are unknown is priced at its output
        (joins: at one row a side).
        """
        profile = self.profile
        out = max(rows_out, 1.0)
        if kind in ("SeqScan", "ValuesScan"):
            return out * profile.seq_scan_cost_per_row
        if kind == "ForeignScan":
            return self._fetch(out)
        if kind == "Filter":
            return _rows_in(child_rows, 0, rows_out) * profile.cpu_tuple_cost
        if kind in ("Project", "Limit", "DistinctOp", "UnionAllOp"):
            return out * profile.cpu_tuple_cost
        if kind == "HashJoin":
            left = _rows_in(child_rows, 0, 1.0)
            right = _rows_in(child_rows, 1, 1.0)
            return self._hash_join(min(left, right), max(left, right), out)
        if kind == "NestedLoopJoin":
            left = _rows_in(child_rows, 0, 1.0)
            right = _rows_in(child_rows, 1, 1.0)
            return left * right * profile.cpu_tuple_cost
        if kind == "HashAggregate":
            return max(sum(child_rows), 1.0) * (
                profile.cpu_tuple_cost + profile.hash_build_cost_per_row
            )
        if kind == "Sort":
            rows_in = _rows_in(child_rows, 0, rows_out)
            return profile.sort_cost_factor * rows_in * max(
                math.log2(rows_in), 1.0
            )
        return None

    def node_self_cost(
        self, plan: algebra.LogicalPlan, estimator: CardinalityEstimator
    ) -> float:
        """``plan``'s own cost contribution at its estimated rows."""
        return self.operator_cost(
            _operator_kind(plan),
            estimator.estimate_rows(plan),
            [estimator.estimate_rows(child) for child in plan.children()],
        )

    def plan_cost(
        self,
        plan: algebra.LogicalPlan,
        estimator: CardinalityEstimator,
    ) -> float:
        """Total cost of the logical plan, in engine-local units."""
        return self.profile.startup_cost + self._node_cost(plan, estimator)

    def _node_cost(
        self, plan: algebra.LogicalPlan, estimator: CardinalityEstimator
    ) -> float:
        child_cost = sum(
            self._node_cost(child, estimator) for child in plan.children()
        )
        return child_cost + self.node_self_cost(plan, estimator)

    def _fetch(self, rows: float) -> float:
        return rows * self.profile.foreign_fetch_cost_per_row

    def _hash_join(
        self, build_rows: float, probe_rows: float, rows_out: float
    ) -> float:
        profile = self.profile
        return (
            build_rows * profile.hash_build_cost_per_row
            + probe_rows * profile.cpu_tuple_cost
            + rows_out * profile.cpu_tuple_cost
        )

    # -- seconds --------------------------------------------------------------

    def seconds(self, cost_units: float) -> float:
        """Engine-local cost units in simulated seconds."""
        return self.profile.cost_to_seconds(cost_units)

    def statement_seconds(self, cost_units: float, workers: int = 1) -> float:
        """One statement of ``cost_units`` on this engine: its startup
        latency, then the work spread over ``workers``."""
        return self.profile.startup_latency + self.seconds(cost_units) / max(
            workers, 1
        )

    def plan_seconds(
        self, plan: algebra.LogicalPlan, estimator: CardinalityEstimator
    ) -> float:
        """Seconds this engine takes to run ``plan`` as one statement."""
        return self.statement_seconds(self.plan_cost(plan, estimator))

    # -- cross-database inputs ------------------------------------------------

    def planned_join_seconds(
        self,
        local_rows: float,
        moved_rows: float,
        output_rows: float,
        materialized: bool,
    ) -> float:
        """Rule 4's quote for a cross-database join at this engine.

        A *materialized* input is fetched, landed and rescanned, after
        which the engine builds on the smaller side (the paper's
        "DBMS-specific optimizations").  A *pipelined* input cannot be
        hashed — the engine builds on its local input and probes with
        the arriving rows, which the quote prices at ``moved_rows``.
        The simulator prices that probe differently, see
        :meth:`forced_build_seconds`.
        """
        units = self._fetch(moved_rows)
        if materialized:
            units += self._materialized_input(moved_rows) + self._hash_join(
                min(local_rows, moved_rows),
                max(local_rows, moved_rows),
                output_rows,
            )
        else:
            units += self._hash_join(local_rows, moved_rows, output_rows)
        return self.seconds(units)

    def _materialized_input(self, rows: float) -> float:
        profile = self.profile
        return rows * 2 * profile.seq_scan_cost_per_row + (
            profile.startup_cost * LANDING_STATEMENTS + LANDING_UNITS
        )

    def materialized_input_seconds(self, rows: float) -> float:
        """Load and rescan of an input landed in a temporary table, plus
        the statements that land it; on top of the consuming plan."""
        return self.seconds(self._materialized_input(rows))

    def forced_build_seconds(
        self, local_rows: float, moved_rows: float
    ) -> float:
        """What the simulator adds to a join consuming a pipelined input
        smaller than its local sibling: the plan was priced building on
        the smaller side, but the stream cannot be hashed, so the build
        moves to the local side.

        Together with the plan's own join charge that is ``local · build
        + local · cpu`` where :meth:`planned_join_seconds` quoted
        ``local · build + moved · cpu`` — the two disagree by
        ``(local − moved) · cpu_tuple_cost`` (DESIGN.md §7).
        """
        local_rows = max(local_rows, 1.0)
        if moved_rows >= local_rows:
            return 0.0
        return self.seconds(
            (local_rows - moved_rows) * self.profile.hash_build_cost_per_row
        )

    def protocol_decode_seconds(
        self, rows: float, protocol: str, fetch_charged: bool
    ) -> float:
        """Consumer-side fetch and decode of ``rows`` arriving over
        ``protocol``.  With ``fetch_charged`` the consuming plan already
        pays the binary fetch (a placeholder scan) and only the
        protocol's excess over it is due."""
        factor = PROTOCOL_CPU_FACTORS[protocol]
        if fetch_charged:
            factor -= 1.0
        return self.seconds(self._fetch(rows) * factor)

    def relayed_input_seconds(self, rows: float, protocol: str) -> float:
        """An input relayed to this engine by a mediator: decoded and
        landed row by row, plus the statements that land it."""
        profile = self.profile
        return self.seconds(
            rows
            * (
                profile.foreign_fetch_cost_per_row
                * PROTOCOL_CPU_FACTORS[protocol]
                + profile.seq_scan_cost_per_row
            )
            + profile.startup_cost * LANDING_STATEMENTS
        )

    def holder_scan_seconds(self, rows: float) -> float:
        """Sequential scan of ``rows`` here: Rule 1's tie-break between
        the healthy holders of a replicated table."""
        return self.seconds(self.operator_cost("SeqScan", rows))

