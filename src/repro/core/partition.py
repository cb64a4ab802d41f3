"""Partitioned tables: specs, routing, and plan expansion.

A partitioned table is stored as ordinary per-partition tables named
``<table>__p<i>`` distributed across the federation; the logical name
survives only in the global catalog, which resolves it through a
:class:`PartitionSpec`.  Because partitions are real catalog tables,
everything built for whole tables — replication, drift fingerprints,
quarantine, health-aware placement — composes with them for free.

The second half of this module is the **partition expansion pass**: the
last Phase-1 rewrite, replacing each logical scan of a partitioned
table with its per-partition scans and pushing the surrounding algebra
down into the partition branches:

* unary operators (filter/project/alias) distribute over branches;
* an equi-join of two *co-partitioned* inputs (same scheme, count, and
  bounds, joined on the partition key) zips branch-wise — each shard
  joins locally, so annotation keeps every branch in-situ with zero
  cross-shard movement;
* a join against a non-partitioned input broadcasts that input into
  every branch (legal for INNER/CROSS, and for LEFT when the
  partitioned side is the left input);
* everything else (mismatched keys/counts, aggregates, sorts) gathers
  the branches under a schema-preserving ``UNION ALL`` — the
  *repartition point* where cross-shard bytes start to flow.

Rules 1–4 then see per-partition scans as ordinary scans: Rule 1 picks
the shard (or a surviving replica of it), Rule 3 keeps co-partitioned
branch joins local, and Rule 4 places the gather — so explicit edges
fan out per-partition without the annotator changing at all.
"""

from __future__ import annotations

import copy
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.errors import CatalogError
from repro.relational import algebra
from repro.relational.builder import ResolvedTable

#: separator between a logical table name and its partition index
PARTITION_SUFFIX = "__p"

SCHEMES = ("hash", "range")

#: (relation_lower_or_None, column_lower) — a resolvable key column
KeyRef = Tuple[Optional[str], str]


def partition_name(table: str, index: int) -> str:
    """Storage name of partition ``index`` of ``table``."""
    return f"{table}{PARTITION_SUFFIX}{index}"


@dataclass(frozen=True)
class PartitionSpec:
    """How one logical table is split into partitions.

    ``bounds`` applies to range partitioning: ascending upper-exclusive
    cut points, one fewer than ``partitions`` (partition ``i`` holds
    ``bounds[i-1] <= key < bounds[i]``, with open outer intervals).
    """

    table: str
    key: str
    partitions: int
    scheme: str = "hash"
    bounds: Tuple = ()

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise CatalogError(
                f"unknown partition scheme {self.scheme!r}; "
                f"expected one of {SCHEMES}"
            )
        if self.partitions < 1:
            raise CatalogError(
                f"table {self.table!r} needs at least 1 partition"
            )
        if self.scheme == "range" and len(self.bounds) != self.partitions - 1:
            raise CatalogError(
                f"range partitioning of {self.table!r} needs "
                f"{self.partitions - 1} bound(s), got {len(self.bounds)}"
            )

    def partition_names(self) -> List[str]:
        return [
            partition_name(self.table, index)
            for index in range(self.partitions)
        ]

    def index_for(self, value: object) -> int:
        """The partition a row with this key value routes to."""
        if self.scheme == "range":
            if value is None:
                return 0
            return bisect_right(list(self.bounds), value)
        return stable_hash(value) % self.partitions

    def compatible_with(self, other: "PartitionSpec") -> bool:
        """Whether branch ``i`` of both tables covers the same key
        values — the precondition for zipping a join branch-wise."""
        return (
            self.scheme == other.scheme
            and self.partitions == other.partitions
            and tuple(self.bounds) == tuple(other.bounds)
        )


def stable_hash(value: object) -> int:
    """Deterministic, process-independent hash for partition routing.

    Python's builtin ``hash`` is randomized per process for strings, so
    routing must not depend on it — repartitioning a table in one
    session and querying it in another has to agree on placement.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value if value >= 0 else -value
    return zlib.crc32(str(value).encode("utf-8"))


# ---------------------------------------------------------------------------
# plan expansion
# ---------------------------------------------------------------------------


@dataclass
class _Branches:
    """An expanded subtree: one logical stream per partition.

    ``keys`` is the set of output columns that still carry the
    partitioning (survived projection); a join can only zip when the
    equi-condition touches a key on both sides.
    """

    branches: List[algebra.LogicalPlan]
    spec: PartitionSpec
    keys: Set[KeyRef]


class PartitionExpander:
    """Rewrites logical scans of partitioned tables into branch plans.

    ``spec_for`` maps a table name to its spec (or None); ``resolve``
    maps a partition table name to its catalog registration (schema +
    holder + replicas) — both are provided by the global catalog.
    """

    def __init__(
        self,
        spec_for: Callable[[str], Optional[PartitionSpec]],
        resolve: Callable[[str], ResolvedTable],
    ):
        self._spec_for = spec_for
        self._resolve = resolve

    def expand(self, plan: algebra.LogicalPlan) -> algebra.LogicalPlan:
        result = self._visit(plan)
        if isinstance(result, _Branches):
            return self._gather(result)
        return result

    # -- traversal -------------------------------------------------------

    def _visit(self, node: algebra.LogicalPlan):
        if isinstance(node, algebra.Scan):
            return self._expand_scan(node)
        if isinstance(node, (algebra.Filter, algebra.Project, algebra.Alias)):
            return self._push_unary(node)
        if isinstance(node, algebra.Join):
            return self._expand_join(node)
        # Aggregates, sorts, limits, distincts, and pre-existing unions
        # consume the gathered stream: collapse any expanded child.
        children = [self._collapse(self._visit(c)) for c in node.children()]
        return node.with_children(children)

    def _expand_scan(self, scan: algebra.Scan):
        if scan.placeholder:
            return scan
        spec = self._spec_for(scan.table)
        if spec is None:
            return scan
        branches: List[algebra.LogicalPlan] = []
        for index in range(spec.partitions):
            resolved = self._resolve(partition_name(spec.table, index))
            branch = algebra.Scan(
                table=resolved.table,
                binding=scan.binding,
                schema=resolved.schema,
                source_db=resolved.source_db,
                replica_dbs=resolved.replica_dbs,
                partition_of=scan.table,
                partition_index=index,
            )
            branches.append(branch)
        key: KeyRef = (scan.binding.lower(), spec.key.lower())
        return _Branches(branches, spec, {key})

    def _push_unary(self, node: algebra.LogicalPlan):
        (child,) = node.children()
        expanded = self._visit(child)
        if not isinstance(expanded, _Branches):
            return node.with_children([expanded])
        branches = [
            node.with_children([branch]) for branch in expanded.branches
        ]
        if isinstance(node, algebra.Alias):
            # Requalification moves every surviving column — and with it
            # the partition key — under the new binding.
            binding = node.binding.lower()
            keys = {
                (binding, column)
                for (_, column) in expanded.keys
                if _resolvable(branches[0].schema, binding, column)
            }
        else:
            keys = {
                key
                for key in expanded.keys
                if _resolvable(branches[0].schema, key[0], key[1])
            }
        return _Branches(branches, expanded.spec, keys)

    def _expand_join(self, node: algebra.Join):
        left = self._visit(node.left)
        right = self._visit(node.right)
        left_parts = isinstance(left, _Branches)
        right_parts = isinstance(right, _Branches)

        if left_parts and right_parts:
            if self._can_zip(node, left, right):
                return self._zip(node, left, right)
            left = self._gather(left)
            right = self._gather(right)
            return node.with_children([left, right])

        if left_parts or right_parts:
            expanded = left if left_parts else right
            other = right if left_parts else left
            if self._can_broadcast(node, partitioned_left=left_parts):
                return self._broadcast(
                    node, expanded, other, partitioned_left=left_parts
                )
            return node.with_children(
                [self._collapse(left), self._collapse(right)]
            )

        return node.with_children([left, right])

    # -- join rules ------------------------------------------------------

    def _can_zip(
        self, node: algebra.Join, left: _Branches, right: _Branches
    ) -> bool:
        """Both sides co-partitioned and joined on the partition key."""
        if node.kind not in ("INNER", "LEFT"):
            return False
        if not left.spec.compatible_with(right.spec):
            return False
        pairs = node.equi_keys()
        if not pairs:
            return False
        for left_ref, right_ref in pairs:
            if self._is_key(
                left.branches[0].schema, left.keys, left_ref
            ) and self._is_key(
                right.branches[0].schema, right.keys, right_ref
            ):
                return True
        return False

    @staticmethod
    def _is_key(schema, keys: Set[KeyRef], ref) -> bool:
        try:
            field = schema[schema.resolve(ref.name, ref.table)]
        except Exception:
            return False
        relation = field.relation.lower() if field.relation else None
        return (relation, field.name.lower()) in keys

    def _zip(
        self, node: algebra.Join, left: _Branches, right: _Branches
    ) -> _Branches:
        branches: List[algebra.LogicalPlan] = [
            algebra.Join(
                left_branch, right_branch, node.condition, node.kind
            )
            for left_branch, right_branch in zip(
                left.branches, right.branches
            )
        ]
        keys = {
            key
            for key in left.keys | right.keys
            if _resolvable(branches[0].schema, key[0], key[1])
        }
        return _Branches(branches, left.spec, keys)

    @staticmethod
    def _can_broadcast(node: algebra.Join, partitioned_left: bool) -> bool:
        """Replicating the non-partitioned input is only sound when no
        branch can emit a padded (unmatched) copy of a duplicated row:
        INNER/CROSS always qualify; LEFT only with the partitioned side
        on the left (the preserved side is never duplicated)."""
        if node.kind in ("INNER", "CROSS"):
            return True
        return node.kind == "LEFT" and partitioned_left

    def _broadcast(
        self,
        node: algebra.Join,
        expanded: _Branches,
        other: algebra.LogicalPlan,
        partitioned_left: bool,
    ) -> _Branches:
        branches: List[algebra.LogicalPlan] = []
        for index, branch in enumerate(expanded.branches):
            # Fresh nodes per branch: annotations and estimator caches
            # are id()-keyed, so shared subtrees would alias.
            copied = other if index == 0 else copy.deepcopy(other)
            pair = (
                (branch, copied) if partitioned_left else (copied, branch)
            )
            branches.append(
                algebra.Join(pair[0], pair[1], node.condition, node.kind)
            )
        keys = {
            key
            for key in expanded.keys
            if _resolvable(branches[0].schema, key[0], key[1])
        }
        return _Branches(branches, expanded.spec, keys)

    # -- gathering -------------------------------------------------------

    def _collapse(self, result) -> algebra.LogicalPlan:
        if isinstance(result, _Branches):
            return self._gather(result)
        return result

    @staticmethod
    def _gather(result: _Branches) -> algebra.LogicalPlan:
        """Left-deep UNION ALL over the branches, preserving the branch
        schema (qualifiers included) so expressions above keep
        resolving."""
        branches = result.branches
        gathered = branches[0]
        for branch in branches[1:]:
            gathered = algebra.Union(
                gathered, branch, schema=branches[0].schema
            )
        return gathered


def expand_partitions(
    plan: algebra.LogicalPlan,
    spec_for: Callable[[str], Optional[PartitionSpec]],
    resolve: Callable[[str], ResolvedTable],
) -> algebra.LogicalPlan:
    """Run the partition expansion pass over an optimized plan."""
    return PartitionExpander(spec_for, resolve).expand(plan)


def _resolvable(schema, relation: Optional[str], column: str) -> bool:
    index = schema.find(column, relation)
    if index is None:
        return False
    field = schema[index]
    actual = field.relation.lower() if field.relation else None
    return actual == relation


# ---------------------------------------------------------------------------
# cross-shard movement accounting
# ---------------------------------------------------------------------------


def is_partition_table(name: str) -> bool:
    """Whether a storage-level table name is a partition shard."""
    head, _, tail = name.rpartition(PARTITION_SUFFIX)
    return bool(head) and tail.isdigit()


def partition_parent(name: str) -> Optional[str]:
    """The logical table a shard name belongs to (None for whole tables)."""
    head, _, tail = name.rpartition(PARTITION_SUFFIX)
    if head and tail.isdigit():
        return head
    return None


# ---------------------------------------------------------------------------
# partial results: pruning dead-shard branches
# ---------------------------------------------------------------------------


def prune_missing_shards(
    plan: algebra.LogicalPlan, missing: Sequence[str]
) -> Tuple[Optional[algebra.LogicalPlan], List[str]]:
    """Drop gather branches whose data lives only on shards in ``missing``.

    The inverse of :meth:`PartitionExpander._gather`, invoked when a
    shard has lost every healthy holder and the query's QoS policy
    allows a partial answer: each UNION ALL branch that scans a missing
    shard is removed, and the union chain collapses around the
    survivors.  A branch takes its *whole* subtree with it — in a
    co-partitioned zip the sibling shard joined locally against the
    missing one becomes unreachable too, and is reported alongside it.

    Returns ``(pruned_plan, pruned_shards)`` where ``pruned_shards``
    lists every partition-shard scan that fell out of the plan.  The
    plan comes back ``None`` when the missing shards are load-bearing
    outside any union (no partial answer is possible).
    """
    missing_lower = {name.lower() for name in missing}
    pruned: List[str] = []

    def collect(node: algebra.LogicalPlan) -> None:
        for leaf in node.leaves():
            if leaf.partition_of is not None and leaf.table not in pruned:
                pruned.append(leaf.table)

    def visit(node: algebra.LogicalPlan) -> Optional[algebra.LogicalPlan]:
        if isinstance(node, algebra.Union):
            left = visit(node.left)
            right = visit(node.right)
            if left is None and right is None:
                return None
            if left is None:
                return right
            if right is None:
                return left
            if left is node.left and right is node.right:
                return node
            return node.with_children([left, right])
        if isinstance(node, algebra.Scan):
            if node.table.lower() in missing_lower:
                collect(node)
                return None
            return node
        children = node.children()
        if not children:
            return node
        new_children = [visit(child) for child in children]
        if any(child is None for child in new_children):
            # A required (non-union) input lost its shard: this whole
            # subtree is unanswerable, so it is prunable only from an
            # enclosing union — its surviving shard scans go with it.
            for child in new_children:
                if child is not None:
                    collect(child)
            return None
        if all(new is old for new, old in zip(new_children, children)):
            return node
        return node.with_children(new_children)

    return visit(plan), pruned


def partition_completeness(
    missing: Sequence[str],
    spec_for: Callable[[str], Optional[PartitionSpec]],
    rows_for: Callable[[str], Optional[int]],
) -> float:
    """Row-weighted completeness of an answer missing these shards.

    For each affected logical table, the surviving fraction is
    ``1 - rows(missing shards) / rows(all shards)`` using catalog row
    counts via ``rows_for`` (falling back to a uniform shard-count
    fraction when stats are unavailable); the answer's completeness is
    the *minimum* across affected tables — the weakest link bounds how
    much of the join result can still be produced.
    """
    grouped: dict = {}
    for name in missing:
        parent = partition_parent(name)
        if parent is None:
            continue
        grouped.setdefault(parent.lower(), set()).add(name.lower())
    fractions: List[float] = []
    for parent, gone in grouped.items():
        spec = spec_for(parent)
        if spec is None:
            fractions.append(0.0)
            continue
        total = 0.0
        lost = 0.0
        sized = True
        for shard in spec.partition_names():
            rows = rows_for(shard)
            if rows is None:
                sized = False
                break
            total += rows
            if shard.lower() in gone:
                lost += rows
        if sized and total > 0:
            fractions.append((total - lost) / total)
        else:
            fractions.append(1.0 - len(gone) / max(spec.partitions, 1))
    return min(fractions) if fractions else 1.0


def cross_shard_bytes(dplan) -> int:
    """Bytes moved on *repartition* edges of a delegation plan.

    A repartition edge ships partition-scan output into a join on the
    consumer side — the movement partition-wise placement exists to
    avoid.  Gather edges (branch results flowing into the UNION ALL
    site) are not cross-shard movement: they carry the join's result,
    not its inputs.
    """
    total = 0
    for edge in dplan.edges:
        producer = dplan.tasks[edge.producer_id]
        if not any(
            is_partition_table(name) for name in producer.base_tables()
        ):
            continue
        consumer = dplan.tasks[edge.consumer_id]
        if _feeds_join(consumer.expr, edge.placeholder):
            total += edge.moved_bytes or 0
    return total


def _feeds_join(expr: algebra.LogicalPlan, placeholder: str) -> bool:
    if isinstance(expr, algebra.Join):
        for side in (expr.left, expr.right):
            for leaf in side.leaves():
                if leaf.placeholder and leaf.binding == placeholder:
                    return True
    return any(_feeds_join(child, placeholder) for child in expr.children())
