"""Chunk execution: row-tuple chunks and generated kernels.

Evaluating an expression tree of closures per tuple pays Python
iterator, closure-call and tuple-construction overhead for every
single tuple.  The operators of :mod:`repro.engine.physical` amortize
it: they exchange plain ``List[tuple]`` chunks of up to
:data:`BATCH_SIZE` rows — the layout every table, join, sort, FDW
fetch and ``Result`` already holds — and an expression is lowered to a
*kernel*: one generated list comprehension over the chunk, evaluated
once per operator input.

The emitter lowers an expression tree to the *source* of a Python
expression over the row variable ``r`` with exactly the semantics of
the closures of :mod:`repro.relational.expressions`, operand order
included: ``None`` is SQL NULL, comparisons and arithmetic evaluate
their operands left to right and stop at the first NULL, AND/OR/NOT
and ``%`` call the same helpers the closures call.  A node without an
inline form (CASE, scalar functions, ``||``, a non-literal IN list or
LIKE pattern) is an inline call of the closure for that subtree.

Every kernel constructor takes an optional *position map*: the rows
are then wider than the schema, column ``i`` is read as
``r[positions[i]]``, a fallback closure is called on the narrowed
tuple, and a filter or hash-join probe builds the narrowed tuple only
for the rows it emits (``[(r[0], r[5], ) for r in rows if r[8] ==
k0]``).  This is how a consumer reads through a projection of plain
columns (:meth:`repro.engine.physical.PhysicalPlan.mapped`).

Only column positions and operators from a fixed table appear in the
source; every literal, regex, type and helper is bound by name in the
kernel's namespace.  No statement text ever reaches ``compile()``, and
statements that differ only in constants share one source string — the
key of the code-object cache.  DESIGN.md §7 has the details.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.relational.expressions import (
    cast_value,
    compile_expression,
    like_regex,
    shift_date,
    sql_and,
    sql_mod,
    sql_not,
    sql_or,
)
from repro.sql import ast

#: Rows per chunk.  Large enough to amortize the per-chunk kernel
#: dispatch, small enough to keep intermediate lists cache-friendly.
BATCH_SIZE = 1024

#: A kernel maps a chunk of rows to a list: the selected rows, the
#: projected rows, or one value per row.  ``kernel.source`` is the
#: generated source it was compiled from.
Kernel = Callable[[Sequence[tuple]], list]

#: Distinct kernel sources whose code objects are kept.  Without the
#: cache ``compile()`` runs once per kernel per execution (≈ 100 µs
#: each), which costs ``plan_heavy`` +7 % end to end (DESIGN.md §7).
_CODE_CACHE_SIZE = 2048


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def filter_kernel(
    predicate: ast.Expression, schema, positions=None, narrow: bool = True
) -> Kernel:
    """``rows -> the rows on which ``predicate`` is True`` (NULL is not).

    Over rows read through ``positions`` the selected rows come back
    narrowed, unless ``narrow`` is False: then they come back as they
    are, for a consumer that reads through the filter in turn."""
    row = "{row}" if narrow else "r"
    return _kernel(schema, [predicate], f"[{row} for r in rows if {{}} is True]", positions)


def project_kernel(exprs: Sequence[ast.Expression], schema, positions=None) -> Kernel:
    """``rows -> one tuple of the ``exprs`` values per row``."""
    return _kernel(
        schema, exprs, "[(" + "{}, " * len(exprs) + ") for r in rows]", positions
    )


def column_kernel(expr: ast.Expression, schema, positions=None) -> Kernel:
    """``rows -> the value of ``expr`` per row``."""
    return _kernel(schema, [expr], "[{} for r in rows]", positions)


def key_kernel(exprs: Sequence[ast.Expression], schema, positions=None) -> Kernel:
    """One join or group key per row: the bare value for a single
    expression, a tuple otherwise."""
    if len(exprs) == 1:
        return column_kernel(exprs[0], schema, positions)
    return project_kernel(exprs, schema, positions)


#: Hash-join probe comprehensions by ``(kind, build_left, buckets)``:
#: ``matches`` holds what the table holds for each probe row's key — a
#: build row, a list bucket of them, or None — and ``{row}`` is the
#: probe row, narrowed for matched rows only.
_PROBES = {
    ("INNER", False, False): "[{row} + m for r, m in zip(rows, matches) if m is not None]",
    ("INNER", True, False): "[m + {row} for r, m in zip(rows, matches) if m is not None]",
    ("INNER", False, True): "[{row} + m for r, b in zip(rows, matches) if b for m in b]",
    ("INNER", True, True): "[m + {row} for r, b in zip(rows, matches) if b for m in b]",
    ("LEFT", False, False): (
        "[{row} + (m if m is not None else pad) for r, m in zip(rows, matches)]"
    ),
    ("LEFT", False, True): "[{row} + m for r, b in zip(rows, matches) for m in b or pads]",
}


def probe_kernel(
    kind: str, build_left: bool, buckets: bool, pad: tuple, positions=None
) -> Callable[[Sequence[tuple], Iterable], list]:
    """``(rows, matches) -> the joined rows`` of a hash-join probe
    without residual; ``pad`` fills a LEFT row that matched nothing."""
    template = _PROBES[kind, build_left, buckets]
    source = "lambda rows, matches: " + template.format(row=_row(positions))
    kernel = eval(_code(source), {"pad": pad, "pads": [pad]})
    kernel.source = source
    return kernel


def _row(positions) -> str:
    """The source of the schema's row: ``r``, or ``r`` narrowed through
    ``positions``."""
    if positions is None:
        return "r"
    return "(" + "".join(f"r[{index}], " for index in _integers(positions)) + ")"


def _integers(positions) -> List[int]:
    # Only integers enter the source: anything else raises TypeError.
    return [operator.index(index) for index in positions]


def _kernel(
    schema, exprs: Sequence[ast.Expression], template: str, positions=None
) -> Kernel:
    emitter = _Emitter(schema, positions)
    source = "lambda rows: " + template.format(
        *[emitter.emit(expr) for expr in exprs], row=emitter.row
    )
    kernel = eval(_code(source), emitter.namespace)
    kernel.source = source
    return kernel


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str):
    return compile(source, "<kernel>", "eval")


def _division_by_zero():
    raise ExecutionError("division by zero")


#: What generated source may call, by the name it calls it under.
_HELPERS = {
    "sql_and": sql_and,
    "sql_or": sql_or,
    "sql_not": sql_not,
    "sql_mod": sql_mod,
    "shift_date": shift_date,
    "cast_value": cast_value,
    "division_by_zero": _division_by_zero,
}

#: SQL operator -> the Python operator of its NULL-strict inline form.
_OPERATORS = {
    "=": "==",
    "<>": "!=",
    "!=": "!=",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
}

_EXTRACT_ATTRIBUTES = {"YEAR": "year", "MONTH": "month", "DAY": "day"}


class _Emitter:
    """Expression tree -> Python source over ``r``, node for node what
    ``repro.relational.expressions._Compiler`` builds as closures.

    With a position map, ``r`` is wider than ``schema``: column ``i`` of
    the schema is ``r[positions[i]]``, and a fallback closure is called
    on the narrowed tuple."""

    def __init__(self, schema, positions=None):
        self._schema = schema
        self._positions = None if positions is None else _integers(positions)
        #: the source of the row as ``schema`` sees it
        self.row = _row(self._positions)
        self.namespace: Dict[str, object] = dict(_HELPERS)
        self._temps = 0

    def emit(self, expr: ast.Expression) -> str:
        method = getattr(self, f"_emit_{type(expr).__name__}", None)
        source = method(expr) if method is not None else None
        if source is None:
            # No inline form: call the closure (compiling it raises the
            # compiler's error for a node it rejects).
            fn = compile_expression(expr, self._schema).fn
            return f"{self._bind(fn)}({self.row})"
        return source

    def _bind(self, value: object) -> str:
        """Name ``value`` in the kernel's namespace."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def _strict(self, operands: Sequence[ast.Expression], result) -> str:
        """NULL-strict evaluation in the closures' order: operands are
        evaluated once each, left to right, and the first NULL one is
        the answer; ``result`` builds the source over their names."""
        guards, names = self._guarded(operands)
        checks = "".join(f"None if {guard} else " for guard in guards)
        return f"({checks}{result(*names)})"

    def _guarded(self, operands: Sequence[ast.Expression]):
        """``(guards, names)``: a name per operand and, for every one
        that can be NULL, the source that evaluates it into its name
        and tests it (a non-NULL literal needs neither)."""
        guards: List[str] = []
        names: List[str] = []
        for operand in operands:
            if isinstance(operand, ast.Literal) and operand.value is not None:
                names.append(self._bind(operand.value))
                continue
            self._temps += 1
            name = f"t{self._temps}"
            guards.append(f"({name} := {self.emit(operand)}) is None")
            names.append(name)
        return guards, names

    # -- leaves -----------------------------------------------------------

    def _emit_ColumnRef(self, expr: ast.ColumnRef) -> str:
        index = self._schema.resolve(expr.name, expr.table)
        if self._positions is not None:
            index = self._positions[index]
        return f"r[{index}]"

    def _emit_Literal(self, expr: ast.Literal) -> str:
        return self._bind(expr.value)

    # -- operators --------------------------------------------------------

    def _emit_BinaryOp(self, expr: ast.BinaryOp) -> Optional[str]:
        op = expr.op
        if op in ("AND", "OR"):
            combine = "sql_and" if op == "AND" else "sql_or"
            return f"{combine}({self.emit(expr.left)}, {self.emit(expr.right)})"
        if op in ("+", "-") and isinstance(expr.right, ast.IntervalLiteral):
            amount = expr.right.amount if op == "+" else -expr.right.amount
            shift = f"{self._bind(amount)}, {self._bind(expr.right.unit)}"
            return self._strict(
                [expr.left], lambda a: f"shift_date({a}, {shift})"
            )
        if op == "/":
            return self._strict(
                [expr.left, expr.right],
                lambda a, b: f"{a} / {b} if {b} != 0 else division_by_zero()",
            )
        if op == "%":
            return self._strict(
                [expr.left, expr.right], lambda a, b: f"sql_mod({a}, {b})"
            )
        python_op = _OPERATORS.get(op)
        if python_op is None:
            return None
        return self._strict(
            [expr.left, expr.right], lambda a, b: f"{a} {python_op} {b}"
        )

    def _emit_UnaryOp(self, expr: ast.UnaryOp) -> Optional[str]:
        if expr.op == "NOT":
            return f"sql_not({self.emit(expr.operand)})"
        if expr.op == "-":
            return self._strict([expr.operand], lambda a: f"-{a}")
        return None

    def _emit_IsNull(self, expr: ast.IsNull) -> str:
        test = "is not" if expr.negated else "is"
        return f"({self.emit(expr.operand)} {test} None)"

    def _emit_Between(self, expr: ast.Between) -> str:
        # The closure evaluates both bounds before it tests either for
        # NULL: ``|`` (not ``or``) keeps the second evaluation.
        guards, (low, high) = self._guarded([expr.low, expr.high])
        tests = " | ".join(f"({guard})" for guard in guards)
        bounds = f"None if {tests} else " if guards else ""
        negation = "not " if expr.negated else ""
        return self._strict(
            [expr.operand],
            lambda value: f"({bounds}{negation}({low} <= {value} <= {high}))",
        )

    def _emit_InList(self, expr: ast.InList) -> Optional[str]:
        if not all(isinstance(item, ast.Literal) for item in expr.items):
            return None
        values = {item.value for item in expr.items}
        missing = None if None in values else expr.negated
        members = self._bind(frozenset(values - {None}))
        return self._strict(
            [expr.operand],
            lambda value: (
                f"{not expr.negated} if {value} in {members} else {missing}"
            ),
        )

    def _emit_Like(self, expr: ast.Like) -> Optional[str]:
        pattern = expr.pattern
        if not isinstance(pattern, ast.Literal) or pattern.value is None:
            return None
        match = self._bind(like_regex(pattern.value).match)
        test = "is" if expr.negated else "is not"
        return self._strict(
            [expr.operand], lambda value: f"{match}({value}) {test} None"
        )

    def _emit_Extract(self, expr: ast.Extract) -> Optional[str]:
        attribute = _EXTRACT_ATTRIBUTES.get(expr.unit)
        if attribute is None:
            return None
        return self._strict([expr.operand], lambda a: f"{a}.{attribute}")

    def _emit_Cast(self, expr: ast.Cast) -> str:
        target = self._bind(expr.target)
        return self._strict(
            [expr.operand], lambda a: f"cast_value({a}, {target})"
        )


# ---------------------------------------------------------------------------
# grouped-aggregation kernels
# ---------------------------------------------------------------------------


class GroupedAggregator:
    """Columnar grouped aggregation with flat per-group state arrays.

    Group keys map to dense group ids; each simple (non-DISTINCT)
    aggregate keeps one or two flat lists indexed by group id and is
    updated in a tight per-column loop.  DISTINCT aggregates keep a
    per-group seen-set.
    """

    def __init__(self, specs: Sequence):
        # specs: list of AggregateSpec (only .func/.distinct used here).
        self._specs = list(specs)
        self.keymap = {}  # key tuple (or scalar) -> group id
        self._counts = [[] for _ in self._specs]
        self._totals = [[] for _ in self._specs]  # SUM/AVG totals
        self._extremes = [[] for _ in self._specs]  # MIN/MAX
        self._seen = [
            [] if spec.distinct else None for spec in self._specs
        ]

    # -- group-id assignment ---------------------------------------------

    def group_ids(self, keys: Sequence[object]) -> List[int]:
        """Map a column of key values to dense group ids, adding new
        groups as they appear (in first-occurrence order)."""
        keymap = self.keymap
        get = keymap.get
        ids = []
        append = ids.append
        for key in keys:
            gid = get(key)
            if gid is None:
                gid = len(keymap)
                keymap[key] = gid
                self._grow()
            append(gid)
        return ids

    def _grow(self) -> None:
        for index, spec in enumerate(self._specs):
            self._counts[index].append(0)
            self._totals[index].append(None)
            self._extremes[index].append(None)
            if spec.distinct:
                self._seen[index].append(set())

    def ensure_group(self, key: object) -> int:
        """Register ``key`` (for SQL's one-row scalar aggregate)."""
        gid = self.keymap.get(key)
        if gid is None:
            gid = len(self.keymap)
            self.keymap[key] = gid
            self._grow()
        return gid

    # -- per-batch accumulation -------------------------------------------

    def accumulate(
        self,
        spec_index: int,
        gids: Sequence[int],
        values: Optional[Sequence[object]],
    ) -> None:
        """Fold one batch of ``values`` (None = COUNT(*)) into the
        state of aggregate ``spec_index`` along the ``gids`` mapping."""
        spec = self._specs[spec_index]
        counts = self._counts[spec_index]
        if spec.distinct:
            seen = self._seen[spec_index]
            totals = self._totals[spec_index]
            extremes = self._extremes[spec_index]
            func = spec.func
            for gid, value in zip(gids, values):
                if value is None or value in seen[gid]:
                    continue
                seen[gid].add(value)
                counts[gid] += 1
                if func in ("SUM", "AVG"):
                    current = totals[gid]
                    totals[gid] = value if current is None else current + value
                elif func == "MIN":
                    current = extremes[gid]
                    if current is None or value < current:
                        extremes[gid] = value
                elif func == "MAX":
                    current = extremes[gid]
                    if current is None or value > current:
                        extremes[gid] = value
            return

        func = spec.func
        if values is None:  # COUNT(*)
            for gid in gids:
                counts[gid] += 1
            return
        if func == "COUNT":
            for gid, value in zip(gids, values):
                if value is not None:
                    counts[gid] += 1
            return
        if func in ("SUM", "AVG"):
            totals = self._totals[spec_index]
            for gid, value in zip(gids, values):
                if value is not None:
                    counts[gid] += 1
                    current = totals[gid]
                    totals[gid] = value if current is None else current + value
            return
        extremes = self._extremes[spec_index]
        if func == "MIN":
            for gid, value in zip(gids, values):
                if value is not None:
                    current = extremes[gid]
                    if current is None or value < current:
                        extremes[gid] = value
            return
        if func == "MAX":
            for gid, value in zip(gids, values):
                if value is not None:
                    current = extremes[gid]
                    if current is None or value > current:
                        extremes[gid] = value
            return
        raise ExecutionError(f"unsupported aggregate {func!r}")

    # -- results ----------------------------------------------------------

    def result(self, spec_index: int, gid: int) -> object:
        spec = self._specs[spec_index]
        func = spec.func
        if func == "COUNT":
            return self._counts[spec_index][gid]
        if func == "SUM":
            return self._totals[spec_index][gid]
        if func == "AVG":
            count = self._counts[spec_index][gid]
            if count == 0:
                return None
            return self._totals[spec_index][gid] / count
        return self._extremes[spec_index][gid]

    def group_count(self) -> int:
        return len(self.keymap)

    def emit_rows(self, key_is_tuple: bool):
        """Yield result rows in first-occurrence group order."""
        spec_range = range(len(self._specs))
        for key, gid in self.keymap.items():
            aggregates = tuple(self.result(i, gid) for i in spec_range)
            if key_is_tuple:
                yield key + aggregates
            else:
                yield (key,) + aggregates


__all__ = [
    "BATCH_SIZE",
    "GroupedAggregator",
    "Kernel",
    "column_kernel",
    "filter_kernel",
    "key_kernel",
    "probe_kernel",
    "project_kernel",
]
