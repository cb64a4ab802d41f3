"""Topology-constrained placement (§IV-B2's future-work extension)."""

import pytest

from repro.core.client import XDB
from repro.errors import NetworkError, OptimizerError
from repro.relational.schema import Field, Schema
from repro.federation.deployment import Deployment
from repro.sql.types import INTEGER, varchar

from conftest import assert_same_rows, ground_truth_database


def three_db_deployment():
    dep = Deployment({"A": "postgres", "B": "postgres", "C": "postgres"})
    dep.load_table(
        "A",
        "t_a",
        Schema([Field("k", INTEGER), Field("va", INTEGER)]),
        [(i, i * 2) for i in range(30)],
    )
    dep.load_table(
        "B",
        "t_b",
        Schema([Field("k", INTEGER), Field("vb", INTEGER)]),
        [(i, i * 3) for i in range(0, 30, 2)],
    )
    dep.load_table(
        "C",
        "t_c",
        Schema([Field("k", INTEGER), Field("vc", varchar(4))]),
        [(i, f"c{i % 4}") for i in range(0, 30, 3)],
    )
    return dep


QUERY = (
    "SELECT a.k, b.vb, c.vc FROM t_a a, t_b b, t_c c "
    "WHERE a.k = b.k AND a.k = c.k"
)


def test_forbidden_link_blocks_transfers():
    dep = three_db_deployment()
    dep.network.forbid_link("A", "B")
    assert not dep.network.is_reachable("A", "B")
    assert dep.network.is_reachable("A", "C")
    with pytest.raises(NetworkError):
        dep.network.record_transfer("A", "B", 100)


def test_forbid_link_validates_nodes():
    dep = three_db_deployment()
    with pytest.raises(NetworkError):
        dep.network.forbid_link("A", "ghost")


def test_annotator_avoids_unreachable_candidates():
    dep = three_db_deployment()
    truth = ground_truth_database(dep).execute(QUERY)
    # Forbid the A<->B pair: any A⨝B join must be placed where both
    # inputs can still reach — i.e. on C (or routed through C's data).
    dep.network.forbid_link("A", "B")
    xdb = XDB(dep, prune_candidates=False)
    report = xdb.submit(QUERY)
    assert_same_rows(report.result.rows, truth.rows)
    # No data transfer ever used the forbidden pair.
    for record in report.context.transfers:
        assert (record.src, record.dst) not in {("A", "B"), ("B", "A")}


def test_unsatisfiable_topology_raises():
    dep = three_db_deployment()
    dep.network.forbid_link("A", "B")
    dep.network.forbid_link("A", "C")
    dep.network.forbid_link("B", "C")
    xdb = XDB(dep)
    with pytest.raises(OptimizerError, match="reachable"):
        xdb.submit(QUERY)


def test_asymmetric_restriction():
    dep = three_db_deployment()
    # A can push to B, but B cannot push to A: the A⨝B join must land
    # on B (under pruning, B is the only reachable candidate).
    dep.network.forbid_link("B", "A", symmetric=False)
    truth = ground_truth_database(dep).execute(QUERY)
    xdb = XDB(dep)
    report = xdb.submit(QUERY)
    assert_same_rows(report.result.rows, truth.rows)
    for record in report.context.transfers:
        assert (record.src, record.dst) != ("B", "A")
