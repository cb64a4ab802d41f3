"""Simulated-network tests: topology, links, accounting."""

import pytest

from repro.errors import NetworkError
from repro.net.metrics import edge_rows, site_breakdown, summarize
from repro.net.network import LAN, WAN, LinkSpec, Network
from repro.obs.context import QueryContext


def test_link_transfer_time():
    link = LinkSpec(bandwidth=1_000_000.0, latency=0.01)
    assert link.transfer_time(500_000) == pytest.approx(0.51)


def test_loopback_is_nearly_free():
    network = Network()
    network.add_node("a")
    assert network.transfer_time("a", "a", 10_000) < 0.001


def test_site_links_resolve_by_site_pair():
    network = Network.on_premise(["db1", "db2"], cloud_nodes=["mw"])
    assert network.link_for("db1", "db2") == LAN
    assert network.link_for("db1", "mw") == WAN
    assert network.link_for("mw", "client") == LAN


def test_pair_override_beats_site_default():
    network = Network.on_premise(["db1", "db2"])
    slow = LinkSpec(1000.0, 1.0)
    network.set_link("db1", "db2", slow)
    assert network.link_for("db1", "db2") == slow
    assert network.link_for("db2", "db1") == LAN  # directed override


def test_geo_topology_everything_wan():
    network = Network.geo_distributed(["db1", "db2"])
    assert network.link_for("db1", "db2") == WAN
    assert network.is_cross_site("db1", "db2")


def test_onprem_middleware_site_option():
    onlan = Network.on_premise(
        ["db1"], middleware_nodes=["xdb"], middleware_site="onprem"
    )
    assert onlan.link_for("db1", "xdb") == LAN
    incloud = Network.on_premise(
        ["db1"], middleware_nodes=["xdb"], middleware_site="cloud"
    )
    assert incloud.link_for("db1", "xdb") == WAN


def test_unknown_node_rejected():
    network = Network()
    network.add_node("a")
    with pytest.raises(NetworkError):
        network.record_transfer("a", "ghost", 10)
    with pytest.raises(NetworkError):
        network.node_site("ghost")


def test_transfer_recording_and_totals():
    network = Network.on_premise(["db1", "db2"], cloud_nodes=["mw"])
    with QueryContext() as ctx:
        network.record_transfer("db1", "db2", 1000, rows=10, tag="data")
        network.record_transfer("db1", "mw", 2000, rows=20, tag="data")
        network.record_control_message("mw", "db1")
    summary = summarize(ctx.transfers)
    assert summary.total_bytes == 1000 + 2000 + 512
    assert summary.bytes_for_tag("data") == 3000
    total, to_cloud, cross_site = site_breakdown(ctx.transfers, network)
    assert total == 1000 + 2000 + 512
    assert to_cloud == 2000
    assert cross_site == 2000 + 512


def test_transfers_outside_a_context_are_not_kept():
    network = Network.on_premise(["db1"])
    record = network.record_transfer("db1", "client", 10)
    assert record.payload_bytes == 10
    with QueryContext() as ctx:
        network.record_transfer("db1", "client", 20)
    assert [r.payload_bytes for r in ctx.transfers] == [20]
    assert not hasattr(network, "log")


def test_summarize_and_edge_rows():
    network = Network.on_premise(["db1", "db2"])
    with QueryContext() as ctx:
        network.record_transfer("db1", "db2", 100, rows=5, tag="fdw:v1")
        network.record_transfer("db1", "db2", 300, rows=7, tag="fdw:v1")
        network.record_transfer("db2", "client", 50, rows=1, tag="result")
    summary = summarize(ctx.transfers)
    assert summary.total_bytes == 450
    assert summary.total_rows == 13
    assert summary.by_tag["fdw:v1"] == 400
    assert summary.bytes_for_tag("fdw") == 400
    assert summary.by_edge[("db1", "db2")] == 400
    rows = edge_rows(ctx.transfers)
    assert rows[("db1", "db2")] == 12


def test_summarize_cross_site_only():
    network = Network.on_premise(["db1", "db2"], cloud_nodes=["mw"])
    with QueryContext() as ctx:
        network.record_transfer("db1", "db2", 100, tag="lan")
        network.record_transfer("db1", "mw", 100, tag="wan")
    summary = summarize(ctx.transfers, network=network, cross_site_only=True)
    assert summary.total_bytes == 100
    with pytest.raises(ValueError):
        summarize(ctx.transfers, cross_site_only=True)


def test_transfer_time_seconds_recorded():
    network = Network.on_premise(["db1"], cloud_nodes=["mw"])
    record = network.record_transfer("db1", "mw", 12_500_000)
    assert record.seconds == pytest.approx(1.025, rel=0.01)


def test_control_messages_share_one_record_per_distinct_value():
    network = Network.on_premise(["a", "b"])
    with QueryContext() as ctx:
        first = network.record_control_message("a", "b", tag="consult")
        again = network.record_control_message("a", "b", tag="consult")
        other = network.record_control_message("a", "b", tag="delegation")
        assert again is first and other is not first
        assert len(ctx.transfers) == 3
        assert summarize(ctx.transfers).total_bytes == 3 * first.payload_bytes
        # a degraded link is a different record, not a rewritten shared one
        network.degrade_link("a", "b", latency_factor=10.0)
        slow = network.record_control_message("a", "b", tag="consult")
    assert slow is not first and slow.seconds > first.seconds
    assert ctx.transfers[0].seconds == first.seconds
