"""SQL/MED tests: foreign tables, wrapper pushdown, network accounting."""

import pytest

from repro.engine.database import Database
from repro.engine.fdw import PROTOCOL_FACTORS, RemoteServer
from repro.errors import ConnectorError
from repro.net.network import Network
from repro.obs.context import QueryContext
from repro.relational.schema import Field, Schema
from repro.sql.types import INTEGER, varchar

from conftest import assert_same_rows


def make_pair(local_profile="postgres", protocol="binary"):
    network = Network()
    network.add_node("L", site="onprem")
    network.add_node("R", site="onprem")
    local = Database("L", profile=local_profile, node="L")
    remote = Database("R", profile="postgres", node="R")
    remote.create_table(
        "src",
        Schema(
            [
                Field("id", INTEGER),
                Field("grp", varchar(2)),
                Field("val", INTEGER),
            ]
        ),
        [(i, ["x", "y"][i % 2], i * 10) for i in range(40)],
    )
    local.register_server(
        "R",
        RemoteServer(
            "R", remote, network, local_node="L", remote_node="R",
            protocol=protocol,
        ),
    )
    local.execute(
        "CREATE FOREIGN TABLE f (id INTEGER, grp VARCHAR(2), val INTEGER) "
        "SERVER R OPTIONS (table_name 'src')"
    )
    return local, remote, network


def transfers_of(database, sql):
    """Run ``sql`` under a fresh query context; the transfers it made."""
    with QueryContext() as ctx:
        database.execute(sql)
    return ctx.transfers


def test_foreign_scan_returns_remote_rows():
    local, remote, _ = make_pair()
    result = local.execute("SELECT COUNT(*) AS n FROM f")
    assert result.rows == [(40,)]


def test_foreign_scan_matches_remote_query():
    local, remote, _ = make_pair()
    mine = local.execute("SELECT grp, SUM(val) AS s FROM f GROUP BY grp")
    theirs = remote.execute("SELECT grp, SUM(val) AS s FROM src GROUP BY grp")
    assert_same_rows(mine.rows, theirs.rows)


def test_transfers_are_recorded_with_rows_and_bytes():
    local, _, _ = make_pair()
    records = [
        r
        for r in transfers_of(local, "SELECT id FROM f")
        if r.tag.startswith("fdw")
    ]
    assert len(records) == 1
    assert records[0].src == "R" and records[0].dst == "L"
    assert records[0].rows == 40
    assert records[0].payload_bytes > 0


def test_jdbc_protocol_inflates_bytes():
    local_b, _, _ = make_pair(protocol="binary")
    moved_b = transfers_of(local_b, "SELECT id FROM f")
    local_j, _, _ = make_pair(protocol="jdbc")
    moved_j = transfers_of(local_j, "SELECT id FROM f")
    bytes_b = sum(r.payload_bytes for r in moved_b)
    bytes_j = sum(r.payload_bytes for r in moved_j)
    assert bytes_j == pytest.approx(
        bytes_b * PROTOCOL_FACTORS["jdbc"], rel=0.01
    )


def test_filter_pushdown_for_capable_wrapper():
    # PostgreSQL wrappers push filters: only matching rows travel.
    local, _, _ = make_pair(local_profile="postgres")
    moved = transfers_of(local, "SELECT id FROM f WHERE grp = 'x'")
    fdw = [r for r in moved if r.tag.startswith("fdw")][0]
    assert fdw.rows == 20


def test_no_filter_pushdown_for_limited_wrapper():
    # MariaDB's FEDERATED wrapper does not push filters: all rows travel.
    local, _, _ = make_pair(local_profile="mariadb")
    with QueryContext() as ctx:
        result = local.execute("SELECT id FROM f WHERE grp = 'x'")
    assert len(result) == 20  # semantics unchanged
    fdw = [r for r in ctx.transfers if r.tag.startswith("fdw")][0]
    assert fdw.rows == 40  # but the whole table moved


def test_projection_pushdown_narrows_transfer():
    local, _, _ = make_pair()
    (narrow,) = transfers_of(local, "SELECT id FROM f")
    (wide,) = transfers_of(local, "SELECT id, grp, val FROM f")
    assert narrow.payload_bytes < wide.payload_bytes


def test_foreign_table_requires_known_server():
    db = Database("solo")
    with pytest.raises(Exception):
        db.execute(
            "CREATE FOREIGN TABLE f (a INT) SERVER ghost "
            "OPTIONS (table_name 'x')"
        )


def test_remote_row_estimate_and_stats():
    local, remote, _ = make_pair()
    server = local.server("R")
    assert server.remote_row_estimate("src") == pytest.approx(40, rel=0.2)
    stats = server.remote_table_stats("src")
    assert stats is not None and stats.row_count == 40


def test_unknown_protocol_rejected():
    network = Network()
    network.add_node("a")
    network.add_node("b")
    with pytest.raises(ConnectorError):
        RemoteServer(
            "x", Database("b"), network, "a", "b", protocol="carrier-pigeon"
        )


def test_recursive_foreign_chains():
    """A -> B -> C chained foreign tables (the delegation pattern)."""
    network = Network()
    for node in ("A", "B", "C"):
        network.add_node(node)
    a, b, c = (Database(n, node=n) for n in "ABC")
    c.create_table(
        "base", Schema([Field("x", INTEGER)]), [(i,) for i in range(10)]
    )
    b.register_server("C", RemoteServer("C", c, network, "B", "C"))
    a.register_server("B", RemoteServer("B", b, network, "A", "B"))
    c.execute("CREATE VIEW cv AS SELECT x FROM base WHERE x > 2")
    b.execute(
        "CREATE FOREIGN TABLE cf (x INTEGER) SERVER C "
        "OPTIONS (table_name 'cv')"
    )
    b.execute("CREATE VIEW bv AS SELECT x FROM cf WHERE x < 8")
    a.execute(
        "CREATE FOREIGN TABLE bf (x INTEGER) SERVER B "
        "OPTIONS (table_name 'bv')"
    )
    with QueryContext() as ctx:
        result = a.execute("SELECT COUNT(*) AS n FROM bf")
    assert result.rows == [(5,)]
    # Both hops are attributed to the query.
    assert any(r.src == "C" and r.dst == "B" for r in ctx.transfers)
    assert any(r.src == "B" and r.dst == "A" for r in ctx.transfers)
