"""The simulated network substrate.

Nodes belong to *sites* (e.g. ``onprem``, ``cloud``, ``dc1``...); a link
is resolved from the pair of sites its nodes sit in, so a topology is
described by a handful of :class:`LinkSpec` values.  Two presets mirror
the paper's environments:

* :meth:`Network.on_premise` — the testbed: DBMS nodes on a 1 Gbit LAN,
  a middleware/mediator node in the cloud behind a WAN uplink.
* :meth:`Network.geo_distributed` — every DBMS in a different data
  center; all inter-node traffic crosses the WAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import NetworkError, NetworkPartitionedError
from repro.obs.runtime import current_context

#: 1 Gbit/s expressed in bytes per (simulated) second.
GBIT = 125_000_000.0
#: 100 Mbit/s WAN uplink.
WAN_100MBIT = 12_500_000.0

#: Default LAN link: 1 Gbit, 0.5 ms round trip.
LAN_LINK_BANDWIDTH = GBIT
LAN_LINK_LATENCY = 0.0005
#: Default WAN link: 100 Mbit, 25 ms.
WAN_LINK_BANDWIDTH = WAN_100MBIT
WAN_LINK_LATENCY = 0.025

#: Approximate size of one control message (a DDL or EXPLAIN request).
CONTROL_MESSAGE_BYTES = 512

#: Relative wire overhead per protocol (bytes multiplier). Binary
#: transfer (e.g. the PostgreSQL wire protocol) is the baseline; JDBC
#: serializes values as text with per-row framing.
PROTOCOL_FACTORS = {"binary": 1.0, "jdbc": 2.2}


def protocol_between(profile_a: str, profile_b: str) -> str:
    """Same-vendor PostgreSQL pairs speak the binary protocol; anything
    heterogeneous falls back to ODBC/JDBC (as in the paper's Fig. 10
    setup)."""
    if profile_a == "postgres" and profile_b == "postgres":
        return "binary"
    return "jdbc"


def wire_bytes(payload_bytes: float, protocol: str) -> int:
    """What ``payload_bytes`` of rows occupy on the wire under
    ``protocol``: the one price of moving rows, quoted by Rule 4 and
    recorded by :meth:`Network.ship`."""
    return int(payload_bytes * PROTOCOL_FACTORS[protocol])


@dataclass(frozen=True)
class LinkSpec:
    """Directed link characteristics."""

    bandwidth: float  # bytes per simulated second
    latency: float  # seconds per message

    def transfer_time(self, payload_bytes: int) -> float:
        return self.latency + payload_bytes / self.bandwidth


LAN = LinkSpec(LAN_LINK_BANDWIDTH, LAN_LINK_LATENCY)
WAN = LinkSpec(WAN_LINK_BANDWIDTH, WAN_LINK_LATENCY)
LOOPBACK = LinkSpec(4 * GBIT, 0.00001)


@dataclass(frozen=True)
class TransferRecord:
    """One recorded transfer (data or control)."""

    src: str
    dst: str
    payload_bytes: int
    rows: int
    tag: str
    protocol: str
    seconds: float


@dataclass
class _Node:
    name: str
    site: str


class Network:
    """Topology, link state, and transfer pricing.

    A transfer is priced and returned to its caller; it is kept only by
    the query context active when it happens
    (:meth:`repro.obs.context.QueryContext.record_transfer`).
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self._nodes: Dict[str, _Node] = {}
        self._site_links: Dict[Tuple[str, str], LinkSpec] = {}
        self._forbidden: set = set()
        #: transiently unreachable links (fault injection); heal-able,
        #: unlike ``_forbidden`` which is a permanent topology constraint
        self._partitioned: set = set()
        #: (src, dst) -> (latency multiplier, bandwidth multiplier)
        self._degraded: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._default_link = LAN
        #: control messages repeat (same link, tag and size) for as long
        #: as the federation lives; every context is handed one shared
        #: instance per distinct record instead of one object per message
        self._control_records: Dict[TransferRecord, TransferRecord] = {}
        #: bumped by every topology and link mutator: a plan priced or
        #: placed against this network is current while it holds
        self.version = 0

    # -- topology ------------------------------------------------------------

    def add_node(self, name: str, site: str = "default") -> None:
        self._nodes[name] = _Node(name, site)
        self.version += 1

    def node_site(self, name: str) -> str:
        node = self._nodes.get(name)
        if node is None:
            raise NetworkError(f"unknown network node {name!r}")
        return node.site

    def set_site_link(self, site_a: str, site_b: str, spec: LinkSpec) -> None:
        """Default link for traffic between two sites (symmetric)."""
        self._site_links[(site_a, site_b)] = spec
        self._site_links[(site_b, site_a)] = spec
        self.version += 1

    def link_for(self, src: str, dst: str) -> LinkSpec:
        if src == dst:
            return LOOPBACK
        spec = self._base_link_for(src, dst)
        factors = self._degraded.get((src, dst))
        if factors is not None:
            latency_factor, bandwidth_factor = factors
            spec = LinkSpec(
                bandwidth=spec.bandwidth * bandwidth_factor,
                latency=spec.latency * latency_factor,
            )
        return spec

    def _base_link_for(self, src: str, dst: str) -> LinkSpec:
        src_site = self.node_site(src)
        dst_site = self.node_site(dst)
        site = self._site_links.get((src_site, dst_site))
        if site is not None:
            return site
        if src_site != dst_site:
            return WAN
        return self._default_link

    def is_cross_site(self, src: str, dst: str) -> bool:
        return self.node_site(src) != self.node_site(dst)

    # -- topology constraints (non-fully-connected federations) ---------

    def forbid_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Declare that ``src`` cannot send data to ``dst``.

        The paper assumes fully inter-connected DBMSes and notes that
        other topologies "can be supported by constraining the possible
        values of set A" (§IV-B2) — this is that constraint's substrate:
        XDB's annotator drops placement candidates that moving inputs
        cannot reach.
        """
        self.node_site(src), self.node_site(dst)  # validate nodes
        self._forbidden.add((src, dst))
        if symmetric:
            self._forbidden.add((dst, src))
        self.version += 1

    def is_reachable(self, src: str, dst: str) -> bool:
        """Whether ``src`` may transfer data directly to ``dst``."""
        if src == dst:
            return True
        return (
            (src, dst) not in self._forbidden
            and (src, dst) not in self._partitioned
        )

    # -- fault injection (degraded / partitioned links) -----------------

    def degrade_link(
        self,
        src: str,
        dst: str,
        latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
        symmetric: bool = True,
    ) -> None:
        """Slow a link: multiply its latency, scale its bandwidth.

        ``latency_factor > 1`` and ``bandwidth_factor < 1`` model a
        congested or flapping link; the connector layer's per-call
        timeout budget turns an extreme degradation into
        :class:`ConnectorTimeoutError`.
        """
        self.node_site(src), self.node_site(dst)  # validate nodes
        self._degraded[(src, dst)] = (latency_factor, bandwidth_factor)
        if symmetric:
            self._degraded[(dst, src)] = (latency_factor, bandwidth_factor)
        self.version += 1

    def restore_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Remove a degradation installed by :meth:`degrade_link`."""
        self._degraded.pop((src, dst), None)
        if symmetric:
            self._degraded.pop((dst, src), None)
        self.version += 1

    def partition_link(
        self, src: str, dst: str, symmetric: bool = True
    ) -> None:
        """Transiently cut a link; transfers raise until it heals."""
        self.node_site(src), self.node_site(dst)  # validate nodes
        self._partitioned.add((src, dst))
        if symmetric:
            self._partitioned.add((dst, src))
        self.version += 1

    def heal_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Heal a partition installed by :meth:`partition_link`."""
        self._partitioned.discard((src, dst))
        if symmetric:
            self._partitioned.discard((dst, src))
        self.version += 1

    def is_partitioned(self, src: str, dst: str) -> bool:
        return src != dst and (src, dst) in self._partitioned

    # -- accounting -------------------------------------------------------------

    def record_transfer(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        rows: int = 0,
        tag: str = "data",
        protocol: str = "binary",
    ) -> TransferRecord:
        return self._attribute(
            self._new_record(src, dst, payload_bytes, rows, tag, protocol)
        )

    def ship(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        rows: int,
        tag: str,
        protocol: str,
    ) -> TransferRecord:
        """Move ``rows`` rows (``payload_bytes`` unframed) over the
        link: what every layer that moves rows calls."""
        return self.record_transfer(
            src, dst, wire_bytes(payload_bytes, protocol), rows, tag, protocol
        )

    def record_control_message(
        self, src: str, dst: str, tag: str = "control"
    ) -> TransferRecord:
        """A small request/response pair (DDL, EXPLAIN consultation)."""
        record = self._new_record(
            src, dst, CONTROL_MESSAGE_BYTES, 0, tag, "binary"
        )
        return self._attribute(
            self._control_records.setdefault(record, record)
        )

    def _new_record(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        rows: int,
        tag: str,
        protocol: str,
    ) -> TransferRecord:
        if src not in self._nodes or dst not in self._nodes:
            raise NetworkError(
                f"transfer between unknown nodes {src!r} -> {dst!r}"
            )
        if self.is_partitioned(src, dst):
            raise NetworkPartitionedError(
                f"link {src!r} -> {dst!r} is partitioned"
            )
        if not self.is_reachable(src, dst):
            raise NetworkError(
                f"no route from {src!r} to {dst!r} (link forbidden)"
            )
        return TransferRecord(
            src=src,
            dst=dst,
            payload_bytes=payload_bytes,
            rows=rows,
            tag=tag,
            protocol=protocol,
            seconds=self.link_for(src, dst).transfer_time(payload_bytes),
        )

    @staticmethod
    def _attribute(record: TransferRecord) -> TransferRecord:
        # The active query's observation context (span + simulated
        # clock + metrics) is the only place a transfer is kept.
        ctx = current_context()
        if ctx is not None:
            ctx.record_transfer(record)
        return record

    def transfer_time(self, src: str, dst: str, payload_bytes: int) -> float:
        return self.link_for(src, dst).transfer_time(payload_bytes)

    # -- factory topologies ----------------------------------------------------------

    @classmethod
    def on_premise(
        cls,
        db_nodes: Sequence[str],
        cloud_nodes: Sequence[str] = (),
        client_node: str = "client",
        middleware_nodes: Sequence[str] = (),
        middleware_site: str = "onprem",
    ) -> "Network":
        """The paper's testbed: DBMSes on one LAN; a cloud site for the
        client (and optionally the middleware, for the §VI-C managed-cloud
        scenario — ``middleware_site="cloud"``)."""
        network = cls("on-premise")
        for node in db_nodes:
            network.add_node(node, site="onprem")
        for node in cloud_nodes:
            network.add_node(node, site="cloud")
        for node in middleware_nodes:
            network.add_node(node, site=middleware_site)
        network.add_node(client_node, site="cloud")
        network.set_site_link("onprem", "onprem", LAN)
        network.set_site_link("onprem", "cloud", WAN)
        network.set_site_link("cloud", "cloud", LAN)
        return network

    @classmethod
    def geo_distributed(
        cls,
        db_nodes: Sequence[str],
        cloud_nodes: Sequence[str] = (),
        client_node: str = "client",
        middleware_nodes: Sequence[str] = (),
        middleware_site: str = "cloud",
    ) -> "Network":
        """Every DBMS in its own data center; all traffic is WAN."""
        network = cls("geo-distributed")
        for node in db_nodes:
            network.add_node(node, site=f"dc_{node}")
        for node in cloud_nodes:
            network.add_node(node, site="cloud")
        for node in middleware_nodes:
            network.add_node(node, site=middleware_site)
        network.add_node(client_node, site="cloud")
        network.set_site_link("cloud", "cloud", LAN)
        # All cross-site pairs default to WAN via link_for's fallback.
        return network
