"""Physical operator tests (via the engine's SQL interface and direct)."""

import pytest

from repro.engine import physical
from repro.engine.database import Database
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER, varchar

from conftest import assert_same_rows


@pytest.fixture
def db():
    database = Database("X")
    database.create_table(
        "t",
        Schema(
            [Field("k", INTEGER), Field("g", varchar(2)), Field("v", DOUBLE)]
        ),
        [
            (1, "a", 10.0),
            (2, "b", 20.0),
            (3, "a", None),
            (4, None, 40.0),
            (5, "b", 50.0),
        ],
    )
    database.create_table(
        "u",
        Schema([Field("k", INTEGER), Field("w", INTEGER)]),
        [(1, 100), (2, 200), (2, 201), (None, 999), (7, 700)],
    )
    return database


# -- joins ----------------------------------------------------------------------


def test_inner_hash_join_basic(db):
    result = db.execute(
        "SELECT t.k, u.w FROM t, u WHERE t.k = u.k ORDER BY t.k, u.w"
    )
    assert result.rows == [(1, 100), (2, 200), (2, 201)]


def test_null_keys_never_match(db):
    result = db.execute("SELECT COUNT(*) AS n FROM t, u WHERE t.k = u.k")
    assert result.rows == [(3,)]


def test_left_join_pads_with_nulls(db):
    result = db.execute(
        "SELECT t.k, u.w FROM t LEFT JOIN u ON t.k = u.k ORDER BY t.k, u.w"
    )
    assert (3, None) in result.rows
    assert (4, None) in result.rows
    assert len(result.rows) == 6  # 3 matches + 3 unmatched left rows


def test_cross_join_cardinality(db):
    result = db.execute("SELECT COUNT(*) AS n FROM t CROSS JOIN u")
    assert result.rows == [(25,)]


def test_non_equi_join_uses_nested_loop(db):
    result = db.execute(
        "SELECT COUNT(*) AS n FROM t, u WHERE t.k < u.k"
    )
    # pairs with t.k < u.k (u.k in {1,2,2,7}): count manually: t.k=1 ->
    # u.k in {2,2,7} = 3; 2 -> {7}=1; 3 -> 1; 4 -> 1; 5 -> 1  => 7
    assert result.rows == [(7,)]


def test_multi_key_hash_join(db):
    db.create_table(
        "p",
        Schema([Field("k", INTEGER), Field("w", INTEGER)]),
        [(2, 200), (2, 999)],
    )
    result = db.execute(
        "SELECT COUNT(*) AS n FROM u, p WHERE u.k = p.k AND u.w = p.w"
    )
    assert result.rows == [(1,)]


# -- aggregation -----------------------------------------------------------------


def test_aggregates_ignore_nulls(db):
    result = db.execute(
        "SELECT COUNT(*) AS all_rows, COUNT(v) AS non_null, SUM(v) AS s, "
        "AVG(v) AS m, MIN(v) AS lo, MAX(v) AS hi FROM t"
    )
    assert result.rows == [(5, 4, 120.0, 30.0, 10.0, 50.0)]


def test_group_by_with_null_group(db):
    result = db.execute(
        "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC, g"
    )
    # NULL forms its own group.
    assert (None, 1) in result.rows
    assert ("a", 2) in result.rows


def test_global_aggregate_over_empty_input(db):
    result = db.execute(
        "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k > 100"
    )
    assert result.rows == [(0, None)]


def test_group_aggregate_over_empty_input(db):
    result = db.execute(
        "SELECT g, COUNT(*) AS n FROM t WHERE k > 100 GROUP BY g"
    )
    assert result.rows == []


def test_count_distinct(db):
    result = db.execute("SELECT COUNT(DISTINCT g) AS n FROM t")
    assert result.rows == [(2,)]


def test_avg_of_empty_group_is_null(db):
    result = db.execute("SELECT AVG(v) AS m FROM t WHERE v IS NULL")
    assert result.rows == [(None,)]


# -- sort / limit / distinct ----------------------------------------------------------


def test_sort_nulls_last_ascending(db):
    result = db.execute("SELECT g FROM t ORDER BY g")
    assert result.rows[-1] == (None,)


def test_sort_desc_nulls_first(db):
    result = db.execute("SELECT g FROM t ORDER BY g DESC")
    assert result.rows[0] == (None,)


def test_multi_key_sort_stability(db):
    result = db.execute("SELECT g, k FROM t ORDER BY g, k DESC")
    values = [row for row in result.rows if row[0] == "a"]
    assert values == [("a", 3), ("a", 1)]


def test_limit(db):
    result = db.execute("SELECT k FROM t ORDER BY k LIMIT 2")
    assert result.rows == [(1,), (2,)]


def test_limit_zero(db):
    assert db.execute("SELECT k FROM t LIMIT 0").rows == []


def test_distinct(db):
    result = db.execute("SELECT DISTINCT g FROM t")
    assert len(result.rows) == 3  # 'a', 'b', NULL


# -- operator bookkeeping -----------------------------------------------------------


def test_rows_out_counting():
    scan = physical.ValuesScan(
        Schema([Field("x", INTEGER)]), [(1,), (2,), (3,)]
    )
    limit = physical.LimitOp(scan, 2)
    rows = list(limit.rows())
    assert len(rows) == 2
    assert limit.rows_out == 2
    assert scan.rows_out == 2  # limit stops pulling early


def test_pretty_renders_tree():
    scan = physical.ValuesScan(Schema([Field("x", INTEGER)]), [])
    limit = physical.LimitOp(scan, 1)
    text = limit.pretty()
    assert "Limit[1]" in text and "ValuesScan" in text
