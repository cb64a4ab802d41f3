"""Physical operators: a pull-based, chunk-at-a-time query executor.

Operators hold the *expressions* they evaluate and, when first pulled,
lower them to the generated kernels of :mod:`repro.engine.vector`.
``batches()`` pulls ``List[tuple]`` chunks of up to
:data:`~repro.engine.vector.BATCH_SIZE` rows through the operator tree
and runs each kernel once per chunk, amortizing the per-tuple
interpreter overhead; ``rows()`` is the same stream, flattened.

A projection of plain columns is a position map: a filter, computing
projection, hash-join probe or aggregation above it pulls ``mapped()``
instead, reads the input's wider rows through the map, and builds a
narrowed tuple only for the rows it keeps.  Every other consumer pulls
``batches()`` as before.

Every operator counts the rows it produces (``rows_out``), whichever
way it is pulled.  The counts feed the ``operator`` spans of the query
context, the feedback harvest of ``SeqScan`` actuals, the calibrator
and ``explain_analyze`` (DESIGN.md §7: under LIMIT an input may be
pulled up to one chunk past what the limit keeps).  The answers are
judged against sqlite by :mod:`repro.fuzz.reference`.
"""

from __future__ import annotations

import copy
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine import vector
from repro.engine.parallel import HedgePolicy, WorkerPool, check_cancelled
from repro.errors import ExecutionError
from repro.obs.runtime import current_context
from repro.relational.algebra import AggregateSpec, SortKey
from repro.relational.expressions import compile_expression, compile_predicate
from repro.relational.schema import Schema
from repro.sql import ast
from repro.sql.render import render

Chunk = List[tuple]
#: ``(positions, chunks)``, what :meth:`PhysicalPlan.mapped` returns
Mapped = Tuple[Optional[List[int]], Iterator[Chunk]]

#: Chunks a gathered branch hands over between two cancel checks.
_DRAIN_STRIDE = 4


def chunked(rows: Iterable[tuple], limit: Optional[int] = None) -> Iterator[Chunk]:
    """Chunks of up to ``BATCH_SIZE`` rows, taking no more than
    ``limit`` rows from ``rows``."""
    rows = iter(rows) if limit is None else islice(rows, limit)
    while chunk := list(islice(rows, vector.BATCH_SIZE)):
        yield chunk


def _limited(chunks: Iterable[Chunk], limit: Optional[int]) -> Iterator[Chunk]:
    """The non-empty ``chunks``, cut off after ``limit`` rows; no chunk
    is pulled once the limit is reached."""
    for chunk in chunks:
        if not chunk:
            continue
        if limit is not None:
            if len(chunk) > limit:
                chunk = chunk[:limit]
            limit -= len(chunk)
        yield chunk
        if limit == 0:
            return


class PhysicalPlan:
    """Base class for physical operators."""

    schema: Schema

    def __init__(self) -> None:
        self.rows_out = 0

    def rows(self) -> Iterator[tuple]:
        """The rows of :meth:`batches`, one at a time."""
        return (row for batch in self.batches() for row in batch)

    def batches(self, hint: Optional[int] = None) -> Iterator[Chunk]:
        """Stream output chunks, counting rows as a side effect.

        ``hint`` is an upper bound on the rows the consumer will use
        (propagated down from LIMIT).  Operators that can honor it
        exactly do; for the rest it is advisory and the consumer
        truncates.
        """
        yield from self._counted(self._produce_batches(hint))

    def mapped(self, hint: Optional[int] = None) -> Mapped:
        """``(positions, chunks)``: this operator's output for a consumer
        that reads through it.

        With ``positions`` None the chunks are :meth:`batches`.  A
        projection of plain columns, and a filter or rebind over one,
        hand on their input's wider rows instead: each stands for the
        output row ``tuple(row[p] for p in positions)``, which the
        consumer builds only for the rows it keeps.  Rows are counted
        as in :meth:`batches`, and ``hint`` is passed on as there.
        """
        return None, self.batches(hint)

    def _counted(self, chunks: Iterable[Chunk]) -> Iterator[Chunk]:
        for chunk in chunks:
            self.rows_out += len(chunk)
            yield chunk

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        raise NotImplementedError

    def children(self) -> List["PhysicalPlan"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def walk(self) -> Iterator["PhysicalPlan"]:
        """This operator and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def clone(self) -> "PhysicalPlan":
        """A structural copy with fresh row counters.

        Hedged execution re-runs a branch concurrently with its
        primary; the two runs must not share operator objects or the
        interleaved ``rows_out`` increments would corrupt both counts.
        Operator nodes are copied (recursively, through lists of
        children too); borrowed row storage and expressions are
        shared — they are read-only during execution.
        """
        dup = copy.copy(self)
        dup.rows_out = 0
        for key, value in list(dup.__dict__.items()):
            if isinstance(value, PhysicalPlan):
                setattr(dup, key, value.clone())
            elif (
                isinstance(value, list)
                and value
                and all(isinstance(item, PhysicalPlan) for item in value)
            ):
                setattr(dup, key, [item.clone() for item in value])
        return dup


class SeqScan(PhysicalPlan):
    """Full scan of a stored table."""

    def __init__(self, table_name: str, schema: Schema, rows: List[tuple]):
        super().__init__()
        self.table_name = table_name
        self.schema = schema
        self._rows = rows

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        return chunked(self._rows, hint)

    def label(self) -> str:
        return f"SeqScan[{self.table_name}]"


class ValuesScan(PhysicalPlan):
    """Scan over an in-memory row list (materialized intermediates)."""

    def __init__(self, schema: Schema, rows: List[tuple], name: str = "values"):
        super().__init__()
        self.schema = schema
        self._rows = rows
        self.name = name

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        return chunked(self._rows, hint)

    def label(self) -> str:
        return f"ValuesScan[{self.name}]"


class FilterOp(PhysicalPlan):
    """Row selection by a predicate over the child's schema.

    Over a child read through a position map, ``batches()`` narrows the
    rows it selects, and ``mapped()`` hands them on as they are, under
    the child's map."""

    def __init__(self, child: PhysicalPlan, predicate: ast.Expression):
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self.text = render(predicate)

    def children(self) -> List[PhysicalPlan]:
        return [self.child]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        return self._select(hint, narrow=True)[1]

    def mapped(self, hint: Optional[int] = None) -> Mapped:
        positions, chunks = self._select(hint, narrow=False)
        return positions, self._counted(chunks)

    def _select(self, hint: Optional[int], narrow: bool) -> Mapped:
        positions, chunks = self.child.mapped()
        select = vector.filter_kernel(self.predicate, self.schema, positions, narrow)
        return positions, _limited(map(select, chunks), hint)

    def label(self) -> str:
        return f"Filter[{self.text}]"


class ProjectOp(PhysicalPlan):
    """Column computation: one expression over the child's schema per
    output column.

    A projection of plain columns is a position map: read through, it
    hands on its child's chunks, its positions composed with the
    child's map."""

    def __init__(
        self,
        child: PhysicalPlan,
        items: Sequence[ast.Expression],
        schema: Schema,
    ):
        super().__init__()
        self.child = child
        self.items = list(items)
        self.schema = schema

    def children(self) -> List[PhysicalPlan]:
        return [self.child]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        positions, chunks = self.child.mapped(hint)
        project = vector.project_kernel(self.items, self.child.schema, positions)
        return map(project, chunks)

    def mapped(self, hint: Optional[int] = None) -> Mapped:
        if not all(isinstance(item, ast.ColumnRef) for item in self.items):
            return super().mapped(hint)
        positions, chunks = self.child.mapped(hint)
        resolve = self.child.schema.resolve
        narrowed = [resolve(item.name, item.table) for item in self.items]
        if positions is not None:
            narrowed = [positions[index] for index in narrowed]
        return narrowed, self._counted(chunks)

    def label(self) -> str:
        return f"Project[{len(self.items)} cols]"


class HashJoin(PhysicalPlan):
    """Equi hash join: a hash table on one input, probed with the other.

    The table is built on the right input unless the planner found the
    left one the smaller (``build_left``); whichever side is built, an
    output row is the left row followed by the right row.

    SQL semantics: NULL keys never match (they are never inserted, so a
    probe key carrying a NULL finds nothing).  ``kind`` is INNER or
    LEFT; ``residual`` is an optional extra predicate over the joined
    row.  Only a plain INNER join may build on the left: a LEFT join's
    preserved rows fall out of the probe loop for free, whereas a build
    side would need a matched bitmap and a tail pass to preserve them.

    Without a residual the probe is one generated comprehension per
    chunk (:func:`~repro.engine.vector.probe_kernel`) that reads through
    its input and narrows only the rows it emits; a residual join pulls
    the probe input's ``batches()`` and runs the residual per match.
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        keys: Sequence[Tuple[ast.Expression, ast.Expression]],
        schema: Schema,
        kind: str = "INNER",
        residual: Optional[ast.Expression] = None,
        build_left: bool = False,
    ):
        super().__init__()
        if kind not in ("INNER", "LEFT"):
            raise ExecutionError(f"unsupported hash-join kind {kind!r}")
        if build_left and (kind != "INNER" or residual is not None):
            raise ExecutionError(
                "only an INNER hash join without a residual can build "
                "on its left input"
            )
        self.left = left
        self.right = right
        #: ``(left expression, right expression)`` per equated pair
        self.keys = list(keys)
        self.schema = schema
        self.kind = kind
        #: extra predicate over the joined row, or None
        self.residual = residual
        self.build_left = build_left

    def children(self) -> List[PhysicalPlan]:
        return [self.left, self.right]

    def _sides(self):
        """``(build, probe)``, each ``(input, key expressions)``."""
        left = (self.left, [pair[0] for pair in self.keys])
        right = (self.right, [pair[1] for pair in self.keys])
        return (left, right) if self.build_left else (right, left)

    @staticmethod
    def _build_table(
        build: PhysicalPlan, keys: Sequence[ast.Expression]
    ) -> Tuple[Dict[object, object], bool]:
        """Consume the build input (as batches) into the hash table.

        Returns ``(table, unique)``.  While no key collides, each value
        is the matching row itself (a tuple); the first collision turns
        values into list buckets and flips ``unique``.  The all-unique
        case (PK–FK joins built on the PK side, the common shape in the
        workloads) probes without buckets.
        """
        table: Dict[object, object] = {}
        unique = True
        single = len(keys) == 1
        keys_of = vector.key_kernel(keys, build.schema)
        for rows in build.batches():
            for key, row in zip(keys_of(rows), rows):
                if (key is None) if single else (None in key):
                    continue
                existing = table.get(key)
                if existing is None:
                    table[key] = row
                elif existing.__class__ is list:
                    existing.append(row)
                else:
                    table[key] = [existing, row]
                    unique = False
        return table, unique

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        return _limited(self._probe(), hint)

    def _probe(self) -> Iterator[Chunk]:
        (build, build_keys), (probe, probe_keys) = self._sides()
        table, unique = self._build_table(build, build_keys)
        pad = (None,) * len(self.right.schema)
        buckets = not unique or self.residual is not None
        if buckets:
            for key, value in table.items():
                if value.__class__ is not list:
                    table[key] = [value]
        # NULL and missing keys both come back as None: NULL keys are
        # never inserted, so a NULL probe cannot match.
        lookup = table.get

        if self.residual is None:
            # One comprehension per chunk over the C-level map of
            # dict.get, reading through the probe input.
            positions, chunks = probe.mapped()
            keys_of = vector.key_kernel(probe_keys, probe.schema, positions)
            join = vector.probe_kernel(
                self.kind, self.build_left, buckets, pad, positions
            )
            for rows in chunks:
                yield join(rows, map(lookup, keys_of(rows)))
            return

        # A residual joins build right and reads ``left ++ right``.
        residual = compile_predicate(self.residual, self.schema)
        keys_of = vector.key_kernel(probe_keys, probe.schema)
        left_outer = self.kind == "LEFT"
        for rows in probe.batches():
            out: Chunk = []
            append = out.append
            for row, bucket in zip(rows, map(lookup, keys_of(rows))):
                matched = False
                for match in bucket or ():
                    joined = row + match
                    if residual(joined):
                        matched = True
                        append(joined)
                if left_outer and not matched:
                    append(row + pad)
            yield out

    def label(self) -> str:
        side = "left" if self.build_left else "right"
        return f"HashJoin[{self.kind}, {len(self.keys)} keys, build={side}]"


class NestedLoopJoin(PhysicalPlan):
    """Fallback join for non-equi conditions and cross joins;
    ``condition`` is a predicate over the joined row, or None."""

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        schema: Schema,
        condition: Optional[ast.Expression] = None,
        kind: str = "INNER",
    ):
        super().__init__()
        if kind not in ("INNER", "LEFT", "CROSS"):
            raise ExecutionError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.schema = schema
        self.condition = condition
        self.kind = kind

    def children(self) -> List[PhysicalPlan]:
        return [self.left, self.right]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        return _limited(self._join(), hint)

    def _join(self) -> Iterator[Chunk]:
        condition = (
            None
            if self.condition is None
            else compile_predicate(self.condition, self.schema)
        )
        right_rows = [row for batch in self.right.batches() for row in batch]
        pad = (None,) * len(self.right.schema)
        left_outer = self.kind == "LEFT"
        for rows in self.left.batches():
            out: Chunk = []
            for row in rows:
                joined = [row + right for right in right_rows]
                if condition is not None:
                    joined = list(filter(condition, joined))
                if joined:
                    out.extend(joined)
                elif left_outer:
                    out.append(row + pad)
            yield out

    def label(self) -> str:
        return f"NestedLoopJoin[{self.kind}]"


class HashAggregate(PhysicalPlan):
    """Hash aggregation over group-key expressions and aggregate specs.

    With no group keys, always emits exactly one row (SQL's scalar
    aggregate semantics over an empty input).
    """

    def __init__(
        self,
        child: PhysicalPlan,
        keys: Sequence[ast.Expression],
        aggregates: Sequence[AggregateSpec],
        schema: Schema,
    ):
        super().__init__()
        self.child = child
        self.keys = list(keys)
        self.aggregates = list(aggregates)
        self.schema = schema

    def children(self) -> List[PhysicalPlan]:
        return [self.child]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        aggregator = vector.GroupedAggregator(self.aggregates)
        schema = self.child.schema
        positions, chunks = self.child.mapped()
        keys_of = vector.key_kernel(self.keys, schema, positions)
        # one kernel per aggregate, None for COUNT(*)
        arguments = [
            None
            if spec.arg is None
            else vector.column_kernel(spec.arg, schema, positions)
            for spec in self.aggregates
        ]
        single_key = len(self.keys) == 1

        for rows in chunks:
            gids = aggregator.group_ids(keys_of(rows))
            for index, argument in enumerate(arguments):
                values = None if argument is None else argument(rows)
                aggregator.accumulate(index, gids, values)

        if aggregator.group_count() == 0 and not self.keys:
            # SQL scalar-aggregate semantics over an empty input.
            aggregator.ensure_group(())

        return chunked(aggregator.emit_rows(key_is_tuple=not single_key), hint)

    def label(self) -> str:
        return (
            f"HashAggregate[{len(self.keys)} keys, "
            f"{len(self.aggregates)} aggs]"
        )


class UnionAllOp(PhysicalPlan):
    """Concatenation of two positionally compatible inputs."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan, schema: Schema):
        super().__init__()
        self.left = left
        self.right = right
        self.schema = schema

    def children(self) -> List[PhysicalPlan]:
        return [self.left, self.right]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        remaining = hint
        for side in (self.left, self.right):
            for batch in _limited(side.batches(remaining), remaining):
                if remaining is not None:
                    remaining -= len(batch)
                yield batch
            if remaining == 0:
                return


class ParallelUnionAllOp(PhysicalPlan):
    """N-ary gather whose inputs drain concurrently on a worker pool.

    The parallel lowering of a UNION ALL chain — typically the gather
    over per-shard partition branches.  Every branch materializes on a
    pool thread with the ambient query context propagated (spans,
    metrics, counters all attribute correctly); the gather then emits
    branch outputs in branch order, so results are deterministic
    regardless of worker interleaving.  Branches run eagerly and do not
    see a LIMIT hint — the gather truncates on the consumer side (the
    LIMIT over-pull of DESIGN.md §7, widened to whole branches).
    """

    def __init__(
        self,
        branches: Sequence[PhysicalPlan],
        schema: Schema,
        workers: int,
    ):
        super().__init__()
        self.branches = list(branches)
        self.schema = schema
        self.workers = max(int(workers), 1)
        #: per-branch thread-CPU seconds from the latest execution (the
        #: bench derives the pool makespan from these)
        self.branch_busy_seconds: List[float] = []

    def children(self) -> List[PhysicalPlan]:
        return list(self.branches)

    def label(self) -> str:
        return (
            f"ParallelUnionAll[{len(self.branches)} branches, "
            f"{self.workers} workers]"
        )

    def _hedge_policy(self, ctx) -> Optional[HedgePolicy]:
        """Speculative-duplicate policy for straggling branches.

        Enabled when the QoS policy set a hedge multiplier and the
        workload gate saw spare capacity at admission.  A hedge runs a
        *clone* of the straggling branch so the duplicate's row
        counters never interleave with the primary's.
        """
        multiplier = getattr(ctx, "hedge_multiplier", None) if ctx else None
        if (
            multiplier is None
            or not getattr(ctx, "hedging_allowed", True)
            or len(self.branches) < 2
        ):
            return None
        return HedgePolicy(
            multiplier=float(multiplier),
            factory=lambda index: (
                lambda: _drain(self.branches[index].clone())
            ),
        )

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        ctx = current_context()
        outcomes = WorkerPool(self.workers).map(
            [(lambda branch=branch: _drain(branch)) for branch in self.branches],
            context=ctx,
            hedge=self._hedge_policy(ctx),
        )
        self.branch_busy_seconds = [
            outcome.busy_seconds for outcome in outcomes
        ]
        return _limited(
            (batch for outcome in outcomes for batch in outcome.value), hint
        )


def _drain(branch: PhysicalPlan) -> List[Chunk]:
    """Materialize a branch's chunks with cooperative cancel points.

    A hedged loser keeps its worker thread until it notices the cancel;
    polling every :data:`_DRAIN_STRIDE` chunks keeps that window small
    without measurably taxing the hot loop."""
    out: List[Chunk] = []
    for count, chunk in enumerate(branch.batches()):
        if count % _DRAIN_STRIDE == 0:
            check_cancelled()
        out.append(chunk)
    return out


class SortOp(PhysicalPlan):
    """Full sort; NULLS LAST for ascending keys, FIRST for descending."""

    def __init__(self, child: PhysicalPlan, keys: Sequence[SortKey]):
        super().__init__()
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema

    def children(self) -> List[PhysicalPlan]:
        return [self.child]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        rows: List[tuple] = []
        for batch in self.child.batches():
            rows.extend(batch)
        return chunked(self._sorted_rows(rows), hint)

    def _sorted_rows(self, rows: List[tuple]) -> List[tuple]:
        # Stable sorts applied from the least-significant key backwards.
        for key in reversed(self.keys):
            key_fn = compile_expression(key.expr, self.schema).fn

            def sort_key(row, key_fn=key_fn):
                value = key_fn(row)
                return (1, 0) if value is None else (0, value)

            rows.sort(key=sort_key, reverse=not key.ascending)
        return rows

    def label(self) -> str:
        return f"Sort[{len(self.keys)} keys]"


class LimitOp(PhysicalPlan):
    """Stop after ``count`` rows."""

    def __init__(self, child: PhysicalPlan, count: int):
        super().__init__()
        self.child = child
        self.count = count
        self.schema = child.schema

    def children(self) -> List[PhysicalPlan]:
        return [self.child]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        count = self.count if hint is None else min(self.count, hint)
        if count <= 0:
            return iter(())
        return _limited(self.child.batches(count), count)

    def label(self) -> str:
        return f"Limit[{self.count}]"


class DistinctOp(PhysicalPlan):
    """Duplicate elimination via a seen-set over whole rows."""

    def __init__(self, child: PhysicalPlan):
        super().__init__()
        self.child = child
        self.schema = child.schema

    def children(self) -> List[PhysicalPlan]:
        return [self.child]

    def _produce_batches(self, hint: Optional[int]) -> Iterator[Chunk]:
        return _limited(self._fresh(), hint)

    def _fresh(self) -> Iterator[Chunk]:
        seen: set = set()
        add = seen.add
        for batch in self.child.batches():
            fresh: List[tuple] = []
            append = fresh.append
            for row in batch:
                if row not in seen:
                    add(row)
                    append(row)
            yield fresh
