"""Miscellaneous infrastructure: Result, profiles, errors, reporting."""

import pytest

from repro import errors
from repro.engine.profiles import available_profiles, profile_for
from repro.engine.result import Result
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER, varchar


# -- Result ---------------------------------------------------------------------


def make_result():
    schema = Schema(
        [Field("a", INTEGER), Field("s", varchar(4)), Field("x", DOUBLE)]
    )
    return Result(schema, [(1, "one", 1.5), (2, None, None)])


def test_result_basics():
    result = make_result()
    assert len(result) == 2
    assert result.column_names == ["a", "s", "x"]
    assert list(result)[0] == (1, "one", 1.5)


def test_result_byte_size():
    result = make_result()
    assert result.byte_size() == (4 + 4 + 8) * 2


def test_result_to_table_truncates():
    schema = Schema([Field("a", INTEGER)])
    result = Result(schema, [(i,) for i in range(30)])
    text = result.to_table(max_rows=5)
    assert "more rows" in text


def test_result_to_table_renders_null():
    text = make_result().to_table()
    assert "NULL" in text


def test_sorted_rows_handles_none():
    result = make_result()
    rows = result.sorted_rows()
    assert len(rows) == 2


def test_result_command():
    schema = Schema([])
    result = Result(schema, [], command="CREATE VIEW")
    assert result.command == "CREATE VIEW"


# -- profiles --------------------------------------------------------------------


def test_available_profiles():
    assert available_profiles() == ["hive", "mariadb", "postgres"]


def test_profile_lookup_case_insensitive():
    assert profile_for("POSTGRES").name == "postgres"


def test_unknown_profile():
    with pytest.raises(errors.CatalogError):
        profile_for("oracle")


def test_profile_characteristics():
    pg = profile_for("postgres")
    maria = profile_for("mariadb")
    hive = profile_for("hive")
    # PostgreSQL's wrapper pushes filters; the others' do not.
    assert pg.pushdown_filters
    assert not maria.pushdown_filters
    assert not hive.pushdown_filters
    # Hive is the slow starter; MariaDB the slowest OLAP processor.
    assert hive.startup_latency > pg.startup_latency
    assert maria.calibration < pg.calibration


# -- error hierarchy ----------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    for name in (
        "SQLError",
        "ParseError",
        "LexerError",
        "BindError",
        "TypeCheckError",
        "CatalogError",
        "ExecutionError",
        "ConnectorError",
        "NetworkError",
        "OptimizerError",
        "DelegationError",
        "WorkloadError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name


def test_parse_error_is_sql_error():
    assert issubclass(errors.ParseError, errors.SQLError)


def test_lexer_error_carries_location():
    err = errors.LexerError("bad", position=5, line=2, column=3)
    assert err.line == 2 and err.column == 3
    assert "line 2" in str(err)
