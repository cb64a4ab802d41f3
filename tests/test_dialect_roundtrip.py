"""Render → parse → render idempotence across all three dialects.

Property-based: hypothesis drives nasty identifiers and values through
the statement surface of every vendor dialect, asserting the parse
reproduces the AST and the second render reproduces the text — the
same invariants the fuzzer (:mod:`repro.fuzz`) enforces at scale.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLError
from repro.fuzz.oracle import (
    check_roundtrip,
    expected_unrepresentable,
)
from repro.sql import ast
from repro.sql.dialects import available_dialects, dialect_for
from repro.sql.parser import parse_statement
from repro.sql.types import INTEGER, varchar

DIALECTS = available_dialects()

# Identifier strategy biased toward the characters that break dialect
# surfaces: every quote style, the CONNECTION '/' separator, spaces,
# keywords, unicode.
identifiers = st.one_of(
    st.sampled_from(
        [
            "plain",
            "with space",
            "quote'name",
            'double"quote',
            "back`tick",
            "slash/name",
            "a/b/c",
            "order",
            "select",
            "1digit",
            "ünïcode",
        ]
    ),
    st.text(
        alphabet="ab'\"`/ _%;.-3ü", min_size=1, max_size=10
    ),
)

strings = st.one_of(
    st.sampled_from(["", "it's", "''", "a''b", "trailing'", "sla/sh"]),
    st.text(min_size=0, max_size=12),
)


def columns_for(names):
    return tuple(
        ast.ColumnDef(name, INTEGER if i % 2 else varchar(8))
        for i, name in enumerate(names)
    )


@st.composite
def foreign_tables(draw):
    names = draw(
        st.lists(identifiers, min_size=1, max_size=3, unique_by=str.lower)
    )
    return ast.CreateForeignTable(
        name=draw(identifiers),
        columns=columns_for(names),
        server=draw(identifiers),
        remote_object=draw(identifiers),
    )


@st.composite
def inserts(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    values = draw(
        st.lists(
            st.tuples(
                *[
                    st.one_of(
                        strings,
                        st.integers(min_value=0, max_value=10_000),
                        st.none(),
                        st.booleans(),
                    )
                    for _ in range(width)
                ]
            ),
            min_size=1,
            max_size=3,
        )
    )
    return ast.Insert(
        table=draw(identifiers),
        columns=(),
        rows=tuple(
            tuple(ast.Literal(value) for value in row) for row in values
        ),
    )


@settings(max_examples=150, deadline=None)
@given(stmt=foreign_tables())
def test_foreign_table_roundtrip_all_dialects(stmt):
    assert check_roundtrip(stmt) == []


@settings(max_examples=100, deadline=None)
@given(stmt=inserts())
def test_insert_roundtrip_all_dialects(stmt):
    assert check_roundtrip(stmt) == []


@settings(max_examples=100, deadline=None)
@given(
    name=identifiers,
    kind=st.sampled_from(["TABLE", "VIEW", "FOREIGN TABLE"]),
    if_exists=st.booleans(),
)
def test_drop_roundtrip_all_dialects(name, kind, if_exists):
    stmt = ast.DropObject(kind=kind, name=name, if_exists=if_exists)
    assert check_roundtrip(stmt) == []


def test_mariadb_refuses_unrepresentable_connection():
    """'/' in a remote object cannot ride the CONNECTION string."""
    stmt = ast.CreateForeignTable(
        name="ft",
        columns=columns_for(["a"]),
        server="srv",
        remote_object="a/b",
    )
    assert expected_unrepresentable(stmt, "mariadb")
    with pytest.raises(SQLError):
        dialect_for("mariadb").render(stmt)
    # The other dialects must round-trip the same statement cleanly.
    for name in ("postgres", "hive"):
        text = dialect_for(name).render(stmt)
        parsed = parse_statement(text)
        assert parsed.remote_object == "a/b"
        assert parsed.server == "srv"


def test_mariadb_connection_splits_on_last_slash():
    """Server names may contain '/'; the parser splits from the right."""
    stmt = ast.CreateForeignTable(
        name="ft",
        columns=columns_for(["a"]),
        server="site/srv",
        remote_object="orders",
    )
    text = dialect_for("mariadb").render(stmt)
    assert "CONNECTION='site/srv/orders'" in text
    parsed = parse_statement(text)
    assert parsed.server == "site/srv"
    assert parsed.remote_object == "orders"


def test_quoted_server_literal_roundtrips():
    """The seed bug: quotes in server names broke CONNECTION/STORED BY."""
    stmt = ast.CreateForeignTable(
        name="ft",
        columns=columns_for(["a"]),
        server="o'brien",
        remote_object="ord'ers",
    )
    for name in DIALECTS:
        if expected_unrepresentable(stmt, name):
            continue
        text = dialect_for(name).render(stmt)
        parsed = parse_statement(text)
        assert parsed.server == "o'brien"
        assert parsed.remote_object == "ord'ers"


# -- the delegated-statement handoff ------------------------------------------


@pytest.mark.parametrize("td", ["TD1", "TD2", "TD3"])
def test_delegated_statement_is_what_its_text_parses_to(td, monkeypatch):
    """The engine runs the statement the connector rendered, not the
    text re-parsed: over mixed-vendor engines, every delegated
    statement equals its own text parsed back (type-strict, via
    ``repr``), and its ``ddl`` event carries the text the engine saw."""
    from repro.bench.scenarios import build_tpch_deployment
    from repro.core.client import XDB
    from repro.engine.database import Database
    from repro.fuzz.oracle import PROFILES, _normalize
    from repro.workloads.tpch import QUERIES, databases_for, query

    profiles = {
        name: PROFILES[i % len(PROFILES)]
        for i, name in enumerate(databases_for(td))
    }
    deployment, _ = build_tpch_deployment(td, 0.002, profiles=profiles)
    received = []
    entry = Database.execute_statement

    def spy(self, statement, sql):
        received.append((self.name, self.profile.dialect, statement, sql))
        return entry(self, statement, sql)

    monkeypatch.setattr(Database, "execute_statement", spy)
    xdb = XDB(deployment)
    for name in sorted(QUERIES, key=lambda q: int(q[1:])):
        received.clear()
        report = xdb.submit(query(name))
        assert received, f"{td} {name}: no delegated statement"
        for _db, dialect, statement, sql in received:
            parsed = parse_statement(sql)
            assert repr(_normalize(parsed, dialect)) == repr(
                _normalize(statement, dialect)
            ), f"{td} {name} ({dialect}): {sql!r}"
        root = report.context.root
        ddl = sorted(
            (e.attributes["db"], e.attributes["sql"])
            for e in root.subtree_events("ddl")
        )
        created = sorted(
            (e.attributes["db"], e.attributes["sql"])
            for e in root.subtree_events("sql")
            if not e.attributes["sql"].startswith("DROP")
        )
        assert ddl == created == sorted(report.deployed.ddl_log)
        assert sorted((db, sql) for db, _d, _s, sql in received) == sorted(
            (e.attributes["db"], e.attributes["sql"])
            for e in root.subtree_events("sql")
        )
