"""Storage and statistics tests."""

import datetime

import pytest

from repro.engine.catalog import BaseTable
from repro.engine.stats import DEFAULT_SAMPLE_SIZE, compute_stats
from repro.errors import CatalogError
from repro.relational.schema import Field, Schema
from repro.sql.types import DATE, DOUBLE, INTEGER, varchar

SCHEMA = Schema(
    [
        Field("k", INTEGER),
        Field("cat", varchar(4)),
        Field("val", DOUBLE),
        Field("d", DATE),
    ]
)


def make_rows(n):
    return [
        (
            i,
            ["a", "b", "c"][i % 3],
            float(i) if i % 10 else None,
            datetime.date(2020, 1, 1) + datetime.timedelta(days=i % 365),
        )
        for i in range(n)
    ]


def test_exact_stats_small_table():
    stats = compute_stats(SCHEMA, make_rows(100))
    assert stats.row_count == 100
    assert stats.column("k").ndv == 100
    assert stats.column("cat").ndv == 3
    assert stats.column("val").null_count == 10
    assert stats.column("k").min_value == 0
    assert stats.column("k").max_value == 99


def test_stats_lookup_case_insensitive():
    stats = compute_stats(SCHEMA, make_rows(10))
    assert stats.column("CAT") is stats.column("cat")
    assert stats.column("missing") is None


def test_sampled_stats_extrapolate_key_columns():
    rows = make_rows(DEFAULT_SAMPLE_SIZE * 3)
    stats = compute_stats(SCHEMA, rows)
    assert stats.row_count == len(rows)
    # key-like column extrapolates toward the row count
    assert stats.column("k").ndv > DEFAULT_SAMPLE_SIZE
    # categorical column stays small
    assert stats.column("cat").ndv == 3


def test_null_fraction():
    stats = compute_stats(SCHEMA, make_rows(100))
    assert stats.column("val").null_fraction(100) == pytest.approx(0.1)


def test_stats_on_empty_table():
    stats = compute_stats(SCHEMA, [])
    assert stats.row_count == 0
    assert stats.column("k").ndv == 0


def test_min_max_skipped_for_mixed_unorderable():
    schema = Schema([Field("x", varchar(4))])
    stats = compute_stats(schema, [("a",), ("b",)])
    assert stats.column("x").min_value == "a"


def test_base_table_insert_and_stats_invalidation():
    """Statistics are the last analysis's snapshot, ``row_count``
    included: kept while INSERTs add at most a tenth of it, replaced by
    the first read after the write that goes past that."""
    table = BaseTable("t", SCHEMA, make_rows(10))
    before = table.stats
    table.insert([(100, "a", 1.0, datetime.date(2020, 1, 1))])
    assert table.stats is before  # 10 %: at the bound
    assert before.row_count == 10
    table.insert([(101, "a", 1.0, datetime.date(2020, 1, 1))])
    after = table.stats  # 20 %: past it
    assert after is not before
    assert after.row_count == 12
    assert after.column("k").max_value == 101


def test_base_table_insert_arity_check():
    table = BaseTable("t", SCHEMA, [])
    with pytest.raises(CatalogError):
        table.insert([(1, "a")])


def test_base_table_unqualifies_schema():
    qualified = SCHEMA.requalified("alias")
    table = BaseTable("t", qualified, [])
    assert all(f.relation is None for f in table.schema)


def test_min_max_skipped_for_mixed_date_datetime():
    """datetime subclasses date but the two are mutually non-comparable;
    a mixed column must skip min/max instead of raising TypeError."""
    schema = Schema([Field("x", DATE)])
    rows = [
        (datetime.date(2020, 1, 1),),
        (datetime.datetime(2020, 1, 2, 3, 4, 5),),
    ]
    stats = compute_stats(schema, rows)  # must not raise
    assert stats.column("x").min_value is None
    assert stats.column("x").max_value is None
    assert stats.column("x").ndv == 2


def test_min_max_kept_for_homogeneous_datetime():
    schema = Schema([Field("x", DATE)])
    rows = [
        (datetime.datetime(2020, 1, 2, 3, 4, 5),),
        (datetime.datetime(2020, 1, 1, 0, 0, 0),),
    ]
    stats = compute_stats(schema, rows)
    assert stats.column("x").min_value == datetime.datetime(2020, 1, 1)
