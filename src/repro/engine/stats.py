"""Table and column statistics used by the cost-based planners.

Statistics are ANALYZE snapshots: computed over the stored rows (a seeded
sample of them above ``DEFAULT_SAMPLE_SIZE``) when a table is first read
and again only after writes have grown it by ``REANALYZE_FRACTION``
(:class:`repro.engine.catalog.BaseTable`).  They feed selectivity
estimation in :mod:`repro.engine.cost` and, via EXPLAIN consulting, XDB's
annotator.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.relational.schema import Schema


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column."""

    ndv: int
    null_count: int
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    avg_width: float = 8.0

    def null_fraction(self, row_count: int) -> float:
        return self.null_count / row_count if row_count else 0.0


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics for a stored relation."""

    row_count: int
    columns: Dict[str, ColumnStats]

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())


def _value_width(value: object) -> float:
    if value is None:
        return 1.0
    if isinstance(value, str):
        return float(len(value))
    if isinstance(value, (int, bool)):
        return 4.0
    return 8.0


def _orderable(values: Sequence[object]) -> bool:
    """Min/max only make sense for homogeneous orderable values."""
    return all(
        isinstance(value, (int, float, str, datetime.date))
        and not isinstance(value, bool)
        for value in values
    ) and (
        len({type(v) is str for v in values}) <= 1
        and len({isinstance(v, datetime.date) for v in values}) <= 1
        # date and datetime pass the check above together (datetime
        # subclasses date) but are mutually non-comparable: a column
        # mixing them would make min()/max() raise TypeError.
        and len({isinstance(v, datetime.datetime) for v in values}) <= 1
    )


#: Exact value types whose orderability and width ``compute_stats``
#: decides per column from the type set instead of per value.
_NONE_TYPE = type(None)
_NUMERIC_TYPES = frozenset({int, float})
_WIDTH_4_TYPES = frozenset({int, bool})
_WIDTH_8_TYPES = frozenset({float, datetime.date, datetime.datetime})
_PLAIN_TYPES = _WIDTH_4_TYPES | _WIDTH_8_TYPES | {str}

#: ANALYZE-style sampling bound: larger tables are profiled on a sample.
DEFAULT_SAMPLE_SIZE = 20_000

#: A table is re-analyzed once the rows appended since its last analysis
#: exceed this fraction of the rows that analysis counted (PostgreSQL's
#: ``autovacuum_analyze_scale_factor``); until then its statistics —
#: ``row_count`` included — are the snapshot that analysis took.
REANALYZE_FRACTION = 0.1


def compute_stats(
    schema: Schema,
    rows: List[tuple],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> TableStats:
    """Statistics over ``rows`` (sampled above ``sample_size``, like a
    real engine's ANALYZE).  Sampled NDVs are extrapolated: a column
    that looks distinct in the sample is assumed key-like."""
    row_count = len(rows)
    if row_count > sample_size:
        # Seeded random sample: stride sampling would alias with any
        # periodicity in the data (e.g. generated categorical columns).
        rng = random.Random(0xA11A5)
        sample = [rows[i] for i in rng.sample(range(row_count), sample_size)]
        scale = row_count / len(sample)
    else:
        sample = rows
        scale = 1.0

    # One transposition instead of one ``row[index]`` per value; a row
    # shorter than the schema truncates it, and the columns it cuts off
    # are read the per-row way below (which raises, as it always did).
    transposed = list(zip(*sample))
    columns: Dict[str, ColumnStats] = {}
    for index, field in enumerate(schema):
        if index < len(transposed):
            column: Sequence[object] = transposed[index]
        else:
            column = [row[index] for row in sample]
        types = set(map(type, column))
        if _NONE_TYPE in types:
            types.discard(_NONE_TYPE)
            non_null = [value for value in column if value is not None]
        else:
            non_null = column
        null_count = int((len(column) - len(non_null)) * scale)
        distinct = len(set(non_null))
        if scale > 1.0 and non_null:
            if distinct >= 0.85 * len(non_null):
                # Near-unique in the sample: extrapolate to key-like.
                ndv = int(distinct * scale)
            else:
                ndv = distinct
        else:
            ndv = distinct
        # Orderability and width follow from the *set of exact types*
        # for the plain types; anything else (subclasses, Decimal, ...)
        # takes the per-value route.
        if types <= _PLAIN_TYPES:
            orderable = types <= _NUMERIC_TYPES or (
                len(types) == 1 and bool not in types
            )
        else:
            orderable = _orderable(non_null)
        if non_null and orderable:
            min_value: Optional[object] = min(non_null)
            max_value: Optional[object] = max(non_null)
        else:
            min_value = max_value = None
        if not non_null:
            avg_width = float(field.type.byte_width())
        elif types <= _WIDTH_4_TYPES:
            avg_width = 4.0
        elif types <= _WIDTH_8_TYPES:
            avg_width = 8.0
        elif types == {str}:
            avg_width = float(sum(map(len, non_null))) / len(non_null)
        else:
            avg_width = sum(_value_width(v) for v in non_null) / len(
                non_null
            )
        columns[field.name.lower()] = ColumnStats(
            ndv=ndv,
            null_count=null_count,
            min_value=min_value,
            max_value=max_value,
            avg_width=avg_width,
        )
    return TableStats(row_count=row_count, columns=columns)


EMPTY_STATS = TableStats(row_count=0, columns={})
