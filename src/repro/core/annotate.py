"""Phase 2 — plan annotation (§IV-B2, Rules 1–4).

A depth-first post-order traversal assigns every operator a DBMS
annotation and every edge a dataflow type:

* **Rule 1** — table scans are annotated with the DBMS holding the table;
* **Rule 2** — unary operators inherit their input's annotation
  (implicit edge);
* **Rule 3** — binary operators whose inputs share an annotation
  inherit it (implicit edges);
* **Rule 4** — for cross-database binary operators, solve Eq. 1:
  ``argmin cost(o, a) + cost(o_l →x o, a) + cost(o_r →x o, a)``
  over ``a ∈ A({o_l, o_r})`` (the paper's pruning — a third DBMS is
  never considered, Fig. 5c) and ``x ∈ {i, e}``.

Costs come from the *consulting approach*: the connectors' costing
functions (wrapping EXPLAIN) are probed per candidate — four options
per cross-database join under the default pruning, so consultation
round-trips stay linear in the number of cross-database operators
(§VI-E).

Ablation knobs (exercised by ``benchmarks/bench_ablation_*``):

* ``movement_policy`` — ``"cost"`` (Eq. 1, default), ``"implicit"``
  (always pipeline), or ``"explicit"`` (always materialize, the
  Sclera-style strategy);
* ``prune_candidates`` — when False, Rule 4 considers *every* DBMS as
  a placement candidate (the O(|A|·|O|) alternative the paper prunes),
  moving both inputs when a third DBMS wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.connect.connector import DBMSConnector
from repro.core.plan import Movement
from repro.engine.fdw import PROTOCOL_FACTORS
from repro.errors import EngineUnavailableError, OptimizerError
from repro.federation.deployment import protocol_between
from repro.net.network import Network
from repro.relational import algebra

MOVEMENT_POLICIES = ("cost", "implicit", "explicit")


@dataclass
class Annotation:
    """The annotator's output: per-node DBMS and per-edge movement.

    Keys are ``id(node)``, so the annotation pins a strong reference
    to every node it mentions (``_node_refs``): without it, a GC'd
    plan node could alias a reused id and return stale annotations.
    Populate via :meth:`bind_node` / :meth:`bind_edge`, which maintain
    the references.
    """

    #: id(node) -> DBMS name
    node_db: Dict[int, str] = field(default_factory=dict)
    #: (id(child), id(parent)) -> Movement
    edge_move: Dict[Tuple[int, int], Movement] = field(default_factory=dict)
    #: consultation round-trips performed (§VI-E metric)
    consultations: int = 0
    #: Rule-4 decisions, for tests/inspection: id(join) -> decision
    decisions: Dict[int, "PlacementDecision"] = field(default_factory=dict)
    #: id(node) -> node: keeps annotated nodes alive while the
    #: annotation is, so an id can never be recycled under us
    _node_refs: Dict[int, algebra.LogicalPlan] = field(
        default_factory=dict, repr=False
    )

    def bind_node(self, node: algebra.LogicalPlan, db: str) -> None:
        self.node_db[id(node)] = db
        self._node_refs[id(node)] = node

    def bind_edge(
        self,
        child: algebra.LogicalPlan,
        parent: algebra.LogicalPlan,
        movement: Movement,
    ) -> None:
        self.edge_move[(id(child), id(parent))] = movement
        self._node_refs[id(child)] = child
        self._node_refs[id(parent)] = parent

    def db_of(self, node: algebra.LogicalPlan) -> str:
        try:
            return self.node_db[id(node)]
        except KeyError:
            raise OptimizerError(
                f"node {type(node).__name__} was never annotated"
            )

    def move_of(
        self, child: algebra.LogicalPlan, parent: algebra.LogicalPlan
    ) -> Movement:
        return self.edge_move[(id(child), id(parent))]


@dataclass(frozen=True)
class PlacementDecision:
    """One evaluated Rule-4 alternative set (for observability)."""

    chosen_db: str
    left_movement: Movement
    right_movement: Movement
    #: (db, "left_move/right_move", seconds) per evaluated alternative
    costs: Tuple[Tuple[str, str, float], ...]

    @property
    def chosen_movement(self) -> Movement:
        """The strongest movement used by any moving input."""
        if Movement.EXPLICIT in (self.left_movement, self.right_movement):
            return Movement.EXPLICIT
        return Movement.IMPLICIT


class PlanAnnotator:
    """Runs the annotation traversal over an optimized logical plan."""

    def __init__(
        self,
        connectors: Mapping[str, DBMSConnector],
        network: Network,
        movement_policy: str = "cost",
        prune_candidates: bool = True,
        catalog=None,
    ):
        if movement_policy not in MOVEMENT_POLICIES:
            raise OptimizerError(
                f"unknown movement policy {movement_policy!r}; "
                f"expected one of {MOVEMENT_POLICIES}"
            )
        self._connectors = dict(connectors)
        self._network = network
        self._movement_policy = movement_policy
        self._prune_candidates = prune_candidates
        #: optional GlobalCatalog — when set, Rule 1 skips holders the
        #: catalog quarantined after unreconcilable schema drift (cached
        #: logical plans may carry replica sets that predate the
        #: quarantine)
        self._catalog = catalog

    def annotate(self, plan: algebra.LogicalPlan) -> Annotation:
        annotation = Annotation()
        self._visit(plan, annotation)
        return annotation

    # -- traversal -------------------------------------------------------------

    def _visit(
        self,
        node: algebra.LogicalPlan,
        annotation: Annotation,
        prefer: Optional[str] = None,
    ) -> str:
        children = node.children()

        if isinstance(node, algebra.Scan):
            db = self._place_scan(node, prefer)
            annotation.bind_node(node, db)
            return db

        if len(children) == 1:
            child_db = self._visit(children[0], annotation, prefer)
            annotation.bind_node(node, child_db)
            annotation.bind_edge(children[0], node, Movement.IMPLICIT)
            return child_db

        if isinstance(node, (algebra.Join, algebra.Union)):
            # Partition-wise placement: each side's replica choices are
            # steered toward the DBMS hosting that side's partition
            # branch, so a replicated dimension joining a shard lands
            # on the shard's engine and the fragment stays in-situ
            # (Rule 3 then keeps the whole branch implicit).
            left_anchor = self._partition_anchor(node.left) or prefer
            right_anchor = self._partition_anchor(node.right) or prefer
            left_db = self._visit(node.left, annotation, left_anchor)
            right_db = self._visit(node.right, annotation, right_anchor)
            if left_db == right_db:
                # Rule 3.
                annotation.bind_node(node, left_db)
                annotation.bind_edge(node.left, node, Movement.IMPLICIT)
                annotation.bind_edge(node.right, node, Movement.IMPLICIT)
                return left_db
            return self._rule4(node, left_db, right_db, annotation)

        raise OptimizerError(
            f"cannot annotate node {type(node).__name__} with "
            f"{len(children)} children"
        )

    # -- degradation-aware placement (replica-aware Rule 1) -------------

    def _partition_anchor(
        self, node: algebra.LogicalPlan
    ) -> Optional[str]:
        """The DBMS that would host the first partition-branch scan
        under ``node`` (None when the subtree touches no partition)."""
        for leaf in node.leaves():
            if (
                isinstance(leaf, algebra.Scan)
                and leaf.partition_of is not None
                and not leaf.placeholder
            ):
                try:
                    return self._place_scan(leaf)
                except (OptimizerError, EngineUnavailableError):
                    return None
        return None

    def _place_scan(
        self, scan: algebra.Scan, prefer: Optional[str] = None
    ) -> str:
        """Rule 1 over replicas: the cheapest *healthy* holder wins.

        Un-replicated tables keep the old behavior — the single holder
        is mandatory, and a dead data-holding DBMS is unrecoverable, so
        raise a clear diagnostic instead of letting a connector error
        surface as a stack trace later.  For a replicated table every
        healthy holder is a candidate; the cheapest one (by calibrated
        sequential-scan cost at the holder's engine profile) is chosen,
        with ``prefer`` (the enclosing join's partition anchor, if any)
        breaking cost ties ahead of the holder name.  ``db=None`` on
        the raised error marks the condition unrepairable: there is no
        surviving replica to re-plan onto.
        """
        holders = list(scan.replica_dbs) or (
            [scan.source_db] if scan.source_db else []
        )
        if not holders:
            raise OptimizerError(
                f"scan of {scan.table!r} lacks a source DBMS "
                "(Rule 1 needs the global catalog annotation)"
            )
        if self._catalog is not None and not scan.placeholder:
            admitted = [
                db
                for db in holders
                if not self._catalog.is_quarantined(db, scan.table)
            ]
            if not admitted:
                # Every holder drifted beyond reconciliation: like an
                # all-holders outage, but no amount of waiting repairs
                # it — only a catalog refresh re-admits the table.
                raise EngineUnavailableError(
                    f"every holder {holders} of table {scan.table!r} is "
                    "quarantined after unreconcilable schema drift; "
                    "refresh the catalog to re-admit one",
                    table=scan.table,
                )
            holders = admitted
        healthy = [db for db in holders if self._available(db)]
        if not healthy:
            raise EngineUnavailableError(
                f"DBMS {holders} holding table {scan.table!r} "
                "is unreachable; the query cannot be answered until "
                "a holder recovers"
                if len(holders) == 1
                else f"every holder {holders} of replicated table "
                f"{scan.table!r} is unreachable; the query cannot be "
                "answered until one recovers",
                table=scan.table,
            )
        if len(healthy) == 1:
            return healthy[0]
        rows = scan.estimated_rows or 1000.0

        def scan_cost(db: str) -> Tuple[float, int, str]:
            connector = self._connectors.get(db)
            if connector is None:
                return (float("inf"), 1, db)
            return (
                connector.database.cost_model.holder_scan_seconds(rows),
                0 if db == prefer else 1,
                db,
            )

        return min(healthy, key=scan_cost)

    def _available(self, db: str) -> bool:
        connector = self._connectors.get(db)
        return connector is None or connector.is_available()

    # -- Rule 4 ---------------------------------------------------------------

    def _candidate_dbs(self, left_db: str, right_db: str) -> List[str]:
        if self._prune_candidates:
            ordered = [left_db, right_db]
        else:
            # Unpruned search space: any DBMS may host the operator.
            ordered = [left_db, right_db]
            ordered.extend(
                name for name in self._connectors if name not in ordered
            )
        # Degradation awareness: an engine that is down or cut off from
        # the middleware at optimization time cannot host an operator —
        # constrain A and plan around it (§IV-B2).
        ordered = [name for name in ordered if self._available(name)]
        # Topology constraint (§IV-B2): every moving input must be able
        # to reach the candidate over the (possibly restricted) network.
        reachable = [
            target
            for target in ordered
            if all(
                source == target
                or self._network.is_reachable(
                    self._connectors[source].node,
                    self._connectors[target].node,
                )
                for source in (left_db, right_db)
            )
        ]
        if not reachable:
            raise OptimizerError(
                f"no reachable placement for a join over {left_db!r} and "
                f"{right_db!r} under the current network topology and "
                "engine availability"
            )
        return reachable

    def _movement_options(self) -> Tuple[Movement, ...]:
        if self._movement_policy == "implicit":
            return (Movement.IMPLICIT,)
        if self._movement_policy == "explicit":
            return (Movement.EXPLICIT,)
        return (Movement.IMPLICIT, Movement.EXPLICIT)

    def _rule4(
        self,
        join,  # binary operator: algebra.Join or algebra.Union
        left_db: str,
        right_db: str,
        annotation: Annotation,
    ) -> str:
        left_rows = _rows(join.left)
        right_rows = _rows(join.right)
        out_rows = _rows(join)

        evaluated: List[Tuple[str, str, float]] = []
        best: Optional[
            Tuple[float, str, Movement, Movement]
        ] = None

        for target_db in self._candidate_dbs(left_db, right_db):
            connector = self._connectors[target_db]
            # Each input either sits on the target already (implicit,
            # free) or must move with a chosen movement type.
            left_options = self._input_options(
                join.left, left_rows, left_db, target_db
            )
            right_options = self._input_options(
                join.right, right_rows, right_db, target_db
            )
            for left_move, left_move_cost in left_options:
                for right_move, right_move_cost in right_options:
                    moved_rows = 0.0
                    local_rows = 0.0
                    materialized = True
                    if left_db != target_db:
                        moved_rows += left_rows
                        materialized = (
                            materialized
                            and left_move is Movement.EXPLICIT
                        )
                    else:
                        local_rows += left_rows
                    if right_db != target_db:
                        moved_rows += right_rows
                        materialized = (
                            materialized
                            and right_move is Movement.EXPLICIT
                        )
                    else:
                        local_rows += right_rows
                    if local_rows == 0.0:
                        # Third-DBMS placement: treat the larger moved
                        # input as the local build side surrogate.
                        local_rows = max(left_rows, right_rows)
                        moved_rows = min(left_rows, right_rows)
                    exec_seconds = connector.estimate_join_cost(
                        local_rows=local_rows,
                        moved_rows=moved_rows,
                        output_rows=out_rows,
                        materialized=materialized,
                    )
                    annotation.consultations += 1
                    total = exec_seconds + left_move_cost + right_move_cost
                    evaluated.append(
                        (
                            target_db,
                            f"l:{left_move.value} r:{right_move.value}",
                            total,
                        )
                    )
                    if best is None or total < best[0]:
                        best = (total, target_db, left_move, right_move)

        assert best is not None
        _, chosen_db, left_move, right_move = best
        annotation.bind_node(join, chosen_db)
        annotation.bind_edge(join.left, join, left_move)
        annotation.bind_edge(join.right, join, right_move)
        annotation.decisions[id(join)] = PlacementDecision(
            chosen_db=chosen_db,
            left_movement=left_move,
            right_movement=right_move,
            costs=tuple(evaluated),
        )
        return chosen_db

    def _input_options(
        self,
        node: algebra.LogicalPlan,
        rows: float,
        source_db: str,
        target_db: str,
    ) -> List[Tuple[Movement, float]]:
        """(movement, move-cost) alternatives for one join input."""
        if source_db == target_db:
            return [(Movement.IMPLICIT, 0.0)]
        move_seconds = self._move_seconds(source_db, target_db, node, rows)
        return [
            (movement, move_seconds)
            for movement in self._movement_options()
        ]

    def _move_seconds(
        self,
        source_db: str,
        target_db: str,
        moving_node: algebra.LogicalPlan,
        moving_rows: float,
    ) -> float:
        source = self._connectors[source_db]
        target = self._connectors[target_db]
        protocol = protocol_between(
            source.profile.name, target.profile.name
        )
        payload = int(
            moving_rows
            * moving_node.schema.row_width()
            * PROTOCOL_FACTORS[protocol]
        )
        return self._network.transfer_time(source.node, target.node, payload)


def _rows(node: algebra.LogicalPlan) -> float:
    if node.estimated_rows is None:
        raise OptimizerError(
            "logical plan is missing cardinality annotations; run the "
            "Phase-1 optimizer first"
        )
    return max(node.estimated_rows, 1.0)
