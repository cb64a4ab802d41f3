"""Deployments: the cross-database environment of the experiments.

A deployment owns

* one :class:`~repro.net.network.Network` (on-premise or geo-distributed),
* N autonomous :class:`~repro.engine.database.Database` instances (one
  per node, as in the paper's testbed),
* the full mesh of SQL/MED server registrations between them, each
  speaking :func:`~repro.net.network.protocol_between` its two vendors,
* one :class:`~repro.connect.connector.DBMSConnector` per database for
  the middleware node, which speaks PostgreSQL's protocol.

The middleware ("xdb") and the client live on cloud nodes, mirroring the
paper's managed-cloud scenario of §VI-C.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.connect.connector import DBMSConnector
from repro.core.partition import PartitionSpec, partition_name
from repro.drift.ledger import ObjectLedger
from repro.engine.database import Database
from repro.engine.fdw import RemoteServer
from repro.errors import CatalogError, NetworkError
from repro.health import BreakerConfig, HealthRegistry
from repro.net.network import Network, protocol_between
from repro.qos import GateConfig, WorkloadGate
from repro.relational.schema import Schema

MIDDLEWARE_NODE = "xdb"
CLIENT_NODE = "client"


class Deployment:
    """A set of databases wired together on a simulated network."""

    def __init__(
        self,
        profiles: Mapping[str, str],
        topology: str = "onprem",
        middleware_site: Optional[str] = None,
        parallel_workers: int = 1,
    ):
        """Create databases named per ``profiles`` (name → vendor).

        ``topology`` is ``"onprem"`` (DBMS LAN) or ``"geo"`` (every DBMS
        in its own data center).  ``middleware_site`` places the
        middleware/mediator node: defaults to the DBMS LAN for the
        runtime experiments ("onprem") and to the cloud for geo setups;
        pass ``"cloud"`` explicitly for the §VI-C managed-cloud cost
        scenario.  ``parallel_workers`` is the schedule simulator's
        per-engine task slot count: how many delegated tasks one member
        DBMS runs side by side on the simulated clock.
        """
        names = list(profiles)
        if topology == "onprem":
            self.network = Network.on_premise(
                names,
                client_node=CLIENT_NODE,
                middleware_nodes=[MIDDLEWARE_NODE],
                middleware_site=middleware_site or "onprem",
            )
        elif topology == "geo":
            self.network = Network.geo_distributed(
                names,
                client_node=CLIENT_NODE,
                middleware_nodes=[MIDDLEWARE_NODE],
                middleware_site=middleware_site or "cloud",
            )
        else:
            raise NetworkError(f"unknown topology {topology!r}")
        self.topology = topology
        self.middleware_site = self.network.node_site(MIDDLEWARE_NODE)
        self.middleware_node = MIDDLEWARE_NODE
        self.client_node = CLIENT_NODE

        self.parallel_workers = max(int(parallel_workers), 1)
        #: logical table (lowercase) -> PartitionSpec; the global
        #: catalog holds this mapping by reference
        self.partition_specs: Dict[str, PartitionSpec] = {}
        #: bumped whenever :meth:`partition_table` changes that mapping
        self.partition_version = 0
        self.databases: Dict[str, Database] = {}
        for name, profile in profiles.items():
            self.databases[name] = Database(name, profile=profile, node=name)

        for local in self.databases.values():
            for remote in self.databases.values():
                if local is not remote:
                    self._register_server(local, remote)

        # The middleware speaks PostgreSQL's wire protocol.
        self.connectors: Dict[str, DBMSConnector] = {
            name: DBMSConnector(
                database,
                self.network,
                MIDDLEWARE_NODE,
                protocol=protocol_between("postgres", database.profile.name),
            )
            for name, database in self.databases.items()
        }

        # One shared health registry: every connector feeds its guarded
        # call outcomes into per-DBMS circuit breakers, and the client's
        # plan-repair loop consults/trips the same breakers.
        self.health = HealthRegistry()
        for connector in self.connectors.values():
            connector.health = self.health

        # One shared admission gate: every XDB client of this
        # deployment contends for the same per-engine concurrency
        # slots (see :mod:`repro.qos`).
        self.workload_gate = WorkloadGate()

        #: ddl namespace -> (the delegated-object ledger its clients
        #: share, the path it persists to)
        self._ledgers: Dict[str, Tuple[ObjectLedger, Optional[str]]] = {}

    # -- wiring ----------------------------------------------------------------

    def _register_server(self, local: Database, remote: Database) -> None:
        """Let ``local`` reach ``remote`` through an SQL/MED server."""
        local.register_server(
            remote.name,
            RemoteServer(
                name=remote.name,
                remote=remote,
                network=self.network,
                local_node=local.node,
                remote_node=remote.node,
                protocol=protocol_between(
                    local.profile.name, remote.profile.name
                ),
            ),
        )

    def add_auxiliary_database(
        self, name: str, profile: str, node_site: Optional[str] = None
    ) -> Database:
        """Add a database outside the federation (e.g. a mediator).

        The new database gets servers to every federation member, but
        members do *not* get a server back (it is not one of them).
        The node defaults to the middleware's site, so mediators and
        XDB are compared from the same vantage point.
        """
        if name in self.databases:
            raise CatalogError(f"database {name!r} already exists")
        self.network.add_node(name, site=node_site or self.middleware_site)
        database = Database(name, profile=profile, node=name)
        for remote in self.databases.values():
            self._register_server(database, remote)
        return database

    # -- access ------------------------------------------------------------------

    def database(self, name: str) -> Database:
        try:
            return self.databases[name]
        except KeyError:
            raise CatalogError(f"unknown database {name!r}")

    def connector(self, name: str) -> DBMSConnector:
        try:
            return self.connectors[name]
        except KeyError:
            raise CatalogError(f"no connector for database {name!r}")

    def database_names(self) -> List[str]:
        return list(self.databases)

    def _ledger(self, namespace: str, path: Optional[str]) -> ObjectLedger:
        """The delegated-object ledger of ``namespace``, one per namespace
        (``XDB(ddl_namespace=, ledger_path=)`` asks for it).

        Every client of a namespace shares it, so they draw epochs from
        one counter (no two cascades share a name) and each one's
        reaper fences every live epoch of the namespace.  The first
        client of a namespace decides its ``path``; a later one passing
        another path gets ``ValueError``.
        """
        if namespace not in self._ledgers:
            self._ledgers[namespace] = (ObjectLedger(namespace, path), path)
        ledger, kept = self._ledgers[namespace]
        if path is not None and path != kept:
            raise ValueError(
                f"ddl namespace {namespace!r} already keeps its ledger at "
                f"{kept!r}, not {path!r}"
            )
        return ledger

    # -- health ----------------------------------------------------------------------

    def configure_health(self, config: BreakerConfig) -> HealthRegistry:
        """Swap in a fresh :class:`HealthRegistry` with ``config``.

        All breaker state (trips, events, the simulated clock) is
        discarded; every connector is re-pointed at the new registry.
        """
        self.health = HealthRegistry(config)
        for connector in self.connectors.values():
            connector.health = self.health
        return self.health

    # -- qos -------------------------------------------------------------------------

    def configure_qos(self, config: GateConfig) -> WorkloadGate:
        """Swap in a fresh :class:`WorkloadGate` with ``config``.

        All admission state (slots, queues, shed counters) is
        discarded; a lease taken on the old gate releases against the
        old gate harmlessly.
        """
        self.workload_gate = WorkloadGate(config)
        return self.workload_gate

    # -- data loading ----------------------------------------------------------------

    def load_table(
        self, db_name: str, table: str, schema: Schema, rows: Iterable[tuple]
    ) -> None:
        self.database(db_name).create_table(table, schema, list(rows))

    def load_distribution(
        self,
        placement: Mapping[str, object],
        tables: Mapping[str, Tuple[Schema, List[tuple]]],
    ) -> None:
        """Load ``tables`` (name → (schema, rows)) per ``placement``
        (table name → database name, or a list of names to load the
        same table as replicas on several DBMSes)."""
        for table_name, db_names in placement.items():
            schema, rows = tables[table_name]
            if isinstance(db_names, str):
                db_names = [db_names]
            for db_name in db_names:
                self.load_table(db_name, table_name, schema, rows)

    def replicate_table(
        self, table: str, to_db: str, from_db: Optional[str] = None
    ) -> None:
        """Copy an existing table to another DBMS as a replica.

        ``from_db`` defaults to the (single) current holder.  The copy
        happens out-of-band (operator-managed replication), so it does
        not touch the network ledger or connector counters.
        """
        if from_db is None:
            holders = [
                name
                for name, database in self.databases.items()
                if database.catalog.get(table) is not None
            ]
            if not holders:
                raise CatalogError(
                    f"cannot replicate unknown table {table!r}"
                )
            from_db = holders[0]
        source = self.database(from_db).catalog.get(table)
        if source is None:
            raise CatalogError(f"no table {table!r} on DBMS {from_db!r}")
        self.database(to_db).create_table(
            table, source.schema, list(source.rows)
        )

    def partition_table(
        self,
        table: str,
        key: str,
        by_db: Iterable[str],
        scheme: str = "hash",
        bounds: Tuple = (),
        from_db: Optional[str] = None,
    ) -> PartitionSpec:
        """Split a loaded table into per-shard tables across DBMSes.

        ``by_db`` names the database hosting each shard, in partition
        order — its length is the partition count (a database may
        appear more than once to host several shards).  Rows route by
        ``key`` under ``scheme`` (``"hash"`` with a stable hash, or
        ``"range"`` over ascending upper-exclusive ``bounds``).  The
        original table is dropped from every holder: only the shards
        remain, and the logical name lives on solely in the partition
        spec the global catalog resolves.  Like replication, the split
        is an out-of-band operator action — no ledger traffic.
        """
        by_db = list(by_db)
        spec = PartitionSpec(
            table=table.lower(),
            key=key,
            partitions=len(by_db),
            scheme=scheme,
            bounds=tuple(bounds),
        )
        holders = [
            name
            for name, database in self.databases.items()
            if database.catalog.get(table) is not None
        ]
        if from_db is None:
            if not holders:
                raise CatalogError(
                    f"cannot partition unknown table {table!r}"
                )
            from_db = holders[0]
        source = self.database(from_db).catalog.get(table)
        if source is None:
            raise CatalogError(f"no table {table!r} on DBMS {from_db!r}")
        schema = source.schema
        key_index = schema.resolve(key)
        shards: List[List[tuple]] = [[] for _ in by_db]
        for row in source.rows:
            shards[spec.index_for(row[key_index])].append(row)
        for index, db_name in enumerate(by_db):
            self.database(db_name).create_table(
                partition_name(spec.table, index), schema, shards[index]
            )
        for holder in holders:
            self.database(holder).catalog.drop(table)
        self.partition_specs[spec.table] = spec
        self.partition_version += 1
        return spec
