"""XDB's global catalog: a Global-as-View union of local schemas (§III).

The catalog is populated through the DBMS connectors during the *prep*
phase (metadata gathering counts toward the §VI-E breakdown) and serves
as the table resolver for the cross-database plan builder: every scan it
produces is tagged with the DBMS the relation lives on (Rule 1's input).

Schema-drift resilience (PR 8): the catalog is **versioned** — a
monotonic ``catalog_version`` bumps on every refresh, re-introspection,
and quarantine change, and every (db, table) carries a schema
**fingerprint** (column names/types hash + that table's stats epoch).
Verification is lazy, once per table per catalog epoch: a refresh
counts as verification for everything it read (so drift-free runs pay
zero extra engine calls), and only tables whose cached verification
predates the current version re-fetch the live schema through the
connector.  A mismatch raises :class:`SchemaDriftError` with a
field-level diff; tables the recovery path cannot reconcile are
**quarantined** — their holders leave the placement candidate set like
dead engines until the next full refresh.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.connect.connector import DBMSConnector
from repro.core.partition import PartitionSpec, partition_name
from repro.drift.fingerprint import schema_diff, schema_fingerprint
from repro.engine.cost import ScanStats
from repro.engine.stats import TableStats
from repro.errors import CatalogError, SchemaDriftError
from repro.relational.algebra import Scan
from repro.relational.builder import ResolvedTable, TableResolver
from repro.relational.schema import Schema


class GlobalCatalog(TableResolver):
    """Union of the local schemas across all federation members."""

    def __init__(
        self,
        connectors: Mapping[str, DBMSConnector],
        partition_specs: Optional[Mapping[str, PartitionSpec]] = None,
    ):
        self._connectors = dict(connectors)
        #: logical table (lowercase) -> PartitionSpec.  Held by
        #: reference, not copied: the deployment mutates its spec map
        #: when tables are (re)partitioned and the catalog must see it.
        self._partition_specs: Mapping[str, PartitionSpec] = (
            partition_specs if partition_specs is not None else {}
        )
        #: (db, table_lower) -> Schema
        self._schemas: Dict[Tuple[str, str], Schema] = {}
        #: table_lower -> list of dbs exposing it
        self._locations: Dict[str, List[str]] = {}
        #: (db, table_lower) -> TableStats
        self._stats: Dict[Tuple[str, str], Optional[TableStats]] = {}
        #: (db, table_lower) -> original table name (case preserved)
        self._names: Dict[Tuple[str, str], str] = {}
        self._loaded = False
        #: monotonic version: bumps on refresh, re-introspection, and
        #: quarantine changes — the invalidation spine for prepared
        #: plans and the middleware plan memo
        self.catalog_version = 0
        #: bumps on every :meth:`override_stats`: a forced row count
        #: moves what the planner reads without moving
        #: ``catalog_version`` (which would re-verify every table)
        self.stats_version = 0
        #: (db, table_lower) -> schema fingerprint at registration
        self._fingerprints: Dict[Tuple[str, str], str] = {}
        #: (db, table_lower) -> stats epoch (bumped per re-registration)
        self._stats_epochs: Dict[Tuple[str, str], int] = {}
        #: (db, table_lower) -> catalog_version it was last verified at
        self._verified: Dict[Tuple[str, str], int] = {}
        #: (db, table_lower) out of placement -> why (the drift or
        #: shard outage that put it there)
        self._quarantined: Dict[Tuple[str, str], str] = {}

    # -- prep phase ------------------------------------------------------------

    def refresh(self) -> None:
        """Gather metadata from every DBMS through its connector.

        A refresh *is* a verification of everything it reads: each
        registered table's fingerprint is recomputed and marked
        verified at the new catalog version, and quarantines are
        lifted (the refresh re-read the authoritative truth).
        """
        self._schemas.clear()
        self._locations.clear()
        self._stats.clear()
        self._names.clear()
        self._verified.clear()
        self._quarantined.clear()
        self.catalog_version += 1
        for db_name, connector in self._connectors.items():
            for table_name, schema in connector.list_tables().items():
                key = table_name.lower()
                self._register(db_name, key, table_name, schema)
                self._stats[(db_name, key)] = connector.table_stats(
                    table_name
                )
        self._loaded = True

    def _register(
        self, db: str, key: str, table_name: str, schema: Schema
    ) -> None:
        """Record one (db, table) registration: schema, name, location,
        fingerprint at the next stats epoch, verified at this version."""
        self._schemas[(db, key)] = schema
        if db not in self._locations.setdefault(key, []):
            self._locations[key].append(db)
        self._names[(db, key)] = table_name
        epoch = self._stats_epochs.get((db, key), 0) + 1
        self._stats_epochs[(db, key)] = epoch
        self._fingerprints[(db, key)] = schema_fingerprint(schema, epoch)
        self._verified[(db, key)] = self.catalog_version

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.refresh()

    # -- fingerprints + verification --------------------------------------------

    def fingerprint_of(self, db: str, table: str) -> Optional[str]:
        self._ensure_loaded()
        return self._fingerprints.get((db, table.lower()))

    def verify_table(self, db: str, table: str, force: bool = False) -> None:
        """Check the live schema of ``db.table`` against its fingerprint.

        Lazy: a table already verified at the current
        ``catalog_version`` is a cache hit (no engine call) unless
        ``force`` is set.  On mismatch raises :class:`SchemaDriftError`
        carrying the field-level diff; a quarantined table raises
        immediately without touching the engine.
        """
        self._ensure_loaded()
        key = (db, table.lower())
        if key in self._quarantined:
            raise SchemaDriftError(
                f"table {db}.{table} is quarantined after "
                f"{self._quarantined[key]} (refresh the catalog to "
                "re-admit it)",
                db=db,
                table=self._names.get(key, table),
                quarantined=True,
            )
        expected = self._schemas.get(key)
        if expected is None:
            return  # not a catalog table (placeholder/delegated object)
        if not force and self._verified.get(key) == self.catalog_version:
            return
        name = self._names.get(key, table)
        connector = self._connectors[db]
        live = connector.table_schema(name)
        epoch = self._stats_epochs.get(key, 0)
        expected_fp = self._fingerprints.get(key, "")
        actual_fp = (
            schema_fingerprint(live, epoch) if live is not None else ""
        )
        if live is not None and actual_fp == expected_fp:
            self._verified[key] = self.catalog_version
            return
        added, removed, retyped, dropped = schema_diff(expected, live)
        raise SchemaDriftError(
            f"schema drift on {db}.{name}: "
            + (
                "table dropped on the engine"
                if dropped
                else f"live schema diverged ({expected_fp} -> {actual_fp})"
            ),
            db=db,
            table=name,
            added=added,
            removed=removed,
            retyped=retyped,
            dropped=dropped,
            expected_fingerprint=expected_fp,
            actual_fingerprint=actual_fp,
        )

    def unverified(
        self, placement: Mapping[str, str]
    ) -> List[Tuple[str, str]]:
        """(db, table) pairs of ``placement`` needing verification now.

        Placement maps table → db (the client's plan placement view);
        only tables this catalog registered — and whose verification
        predates the current version or that are quarantined — are
        returned, so the common case is an empty list and zero calls.
        """
        self._ensure_loaded()
        out: List[Tuple[str, str]] = []
        for table, db in sorted(placement.items()):
            key = (db, table.lower())
            if key not in self._schemas and key not in self._quarantined:
                continue
            if (
                key in self._quarantined
                or self._verified.get(key) != self.catalog_version
            ):
                out.append((db, table))
        return out

    # -- drift recovery ----------------------------------------------------------

    def reintrospect(self, db: str, table: str) -> Optional[Schema]:
        """Re-fetch one table's live schema + stats and adopt them.

        The drift-recovery primitive: bumps the catalog version,
        clears the table's quarantine (the fresh truth supersedes it),
        and returns the adopted schema — or None when the engine no
        longer holds the table, in which case the registration is
        removed entirely.
        """
        self._ensure_loaded()
        key = table.lower()
        name = self._names.get((db, key), table)
        connector = self._connectors[db]
        live = connector.table_schema(name)
        self.catalog_version += 1
        self._quarantined.pop((db, key), None)
        if live is None:
            self._forget(db, key)
            return None
        self._register(db, key, name, live)
        self._stats[(db, key)] = connector.table_stats(name)
        return live

    def _forget(self, db: str, key: str) -> None:
        self._schemas.pop((db, key), None)
        self._stats.pop((db, key), None)
        self._names.pop((db, key), None)
        self._fingerprints.pop((db, key), None)
        self._verified.pop((db, key), None)
        holders = self._locations.get(key)
        if holders and db in holders:
            holders.remove(db)
            if not holders:
                del self._locations[key]

    # -- quarantine ---------------------------------------------------------------

    def quarantine(self, db: str, table: str, cause: str) -> None:
        """Exclude ``db``'s copy of ``table`` from placement until the
        next refresh (Rule 4 treats it like a dead holder); ``cause``
        ("unreconcilable schema drift", "a shard outage") is what the
        errors of a query that then finds no holder name."""
        self._ensure_loaded()
        self._quarantined[(db, table.lower())] = cause
        self.catalog_version += 1

    def is_quarantined(self, db: str, table: str) -> bool:
        return (db, table.lower()) in self._quarantined

    def quarantine_causes(self, dbs: Iterable[str], table: str) -> str:
        """Why the quarantined holders among ``dbs`` of ``table`` are
        out, each cause once: ``"a shard outage"``, ``"… and …"``."""
        key = table.lower()
        causes = {
            self._quarantined[(db, key)]: None
            for db in dbs
            if (db, key) in self._quarantined
        }
        return " and ".join(causes)

    def _live_holders(self, key: str) -> List[str]:
        return [
            db
            for db in self._locations.get(key, [])
            if (db, key) not in self._quarantined
        ]

    # -- lookup -------------------------------------------------------------------

    def holders(self, table: str) -> List[str]:
        """Every DBMS exposing ``table``, in registration order."""
        self._ensure_loaded()
        return list(self._locations.get(table.lower(), []))

    def is_replicated(self, table: str) -> bool:
        """Whether ``table`` is held by more than one DBMS as replicas.

        Multiple holders count as replicas only when every copy has an
        identical schema; same-named tables with *different* schemas
        remain ambiguous (the user must qualify them as ``db.table``).
        Quarantined holders do not count — a drifted replica is out of
        the replica set until re-admitted.
        """
        self._ensure_loaded()
        return self._replicated(table.lower())

    def _replicated(self, key: str) -> bool:
        locations = self._live_holders(key)
        if len(locations) < 2:
            return False
        first = self._schemas[(locations[0], key)]
        return all(
            self._schemas[(db, key)] == first for db in locations[1:]
        )

    def locate(self, table: str) -> str:
        """The primary DBMS hosting an unqualified table name.

        For a replicated table this is the first registered live
        holder (the annotator may still place the scan on any healthy
        replica); same-named tables with diverging schemas stay
        ambiguous; a table whose every holder is quarantined is
        unanswerable until a refresh re-admits one.
        """
        self._ensure_loaded()
        key = table.lower()
        locations = self._live_holders(key)
        if not locations:
            if self._locations.get(key):
                cause = self.quarantine_causes(self._locations[key], key)
                raise CatalogError(
                    f"every holder of table {table!r} is quarantined "
                    f"after {cause}; refresh the catalog to re-admit"
                )
            raise CatalogError(f"unknown table {table!r} in the federation")
        if len(locations) > 1 and not self._replicated(key):
            raise CatalogError(
                f"table {table!r} exists on multiple DBMSes "
                f"({', '.join(locations)}); qualify it as db.table"
            )
        return locations[0]

    def tables(self) -> List[Tuple[str, str]]:
        """All (db, table) pairs in the federation."""
        self._ensure_loaded()
        return [(db, self._names[(db, key)]) for (db, key) in self._schemas]

    def schema_of(self, db: str, table: str) -> Schema:
        self._ensure_loaded()
        schema = self._schemas.get((db, table.lower()))
        if schema is None:
            raise CatalogError(f"unknown table {db}.{table}")
        return schema

    def stats_of(self, db: str, table: str) -> Optional[TableStats]:
        self._ensure_loaded()
        return self._stats.get((db, table.lower()))

    def override_stats(
        self, db: str, table: str, row_count: float
    ) -> None:
        """Force the cataloged row count of ``db.table``.

        A deliberate-skew hook for the cardinality-feedback bench and
        tests: the planner sees ``row_count`` until the next
        :meth:`refresh` re-reads the engine's real statistics.
        """
        self._ensure_loaded()
        key = (db, table.lower())
        stats = self._stats.get(key)
        if stats is None:
            self._stats[key] = TableStats(
                row_count=float(row_count), columns={}
            )
        else:
            self._stats[key] = dataclasses.replace(
                stats, row_count=float(row_count)
            )
        self.stats_version += 1

    # -- partitioned tables ------------------------------------------------------------

    def partition_spec(self, table: str) -> Optional[PartitionSpec]:
        """The partitioning of a logical table name, if any."""
        return self._partition_specs.get(table.lower())

    def has_partitions(self) -> bool:
        return bool(self._partition_specs)

    def _resolve_partitioned(self, spec: PartitionSpec) -> ResolvedTable:
        """Synthesize the logical table from its first partition.

        The logical name exists nowhere on the engines — only the
        ``<table>__p<i>`` shards do.  The builder's scan of the logical
        name is a stand-in the expansion pass replaces wholesale, so
        shard 0's schema and holder are representative enough.
        """
        first = partition_name(spec.table, 0)
        db = self.locate(first)
        return ResolvedTable(
            table=spec.table, schema=self.schema_of(db, first), source_db=db
        )

    # -- resolver interface -----------------------------------------------------------

    def resolve_table(self, parts: Tuple[str, ...]) -> ResolvedTable:
        self._ensure_loaded()
        replicas: Tuple[str, ...] = ()
        if len(parts) == 1:
            spec = self.partition_spec(parts[0])
            if spec is not None:
                return self._resolve_partitioned(spec)
        if len(parts) == 2:
            # Qualified names pin the holder: the user chose a replica.
            db, table = parts
            if db not in self._connectors:
                raise CatalogError(f"unknown DBMS {db!r} in {db}.{table}")
        elif len(parts) == 1:
            table = parts[0]
            db = self.locate(table)
            if self._replicated(table.lower()):
                replicas = tuple(self._live_holders(table.lower()))
        else:
            raise CatalogError(f"invalid table name {'.'.join(parts)!r}")
        return ResolvedTable(
            table=table,
            schema=self.schema_of(db, table),
            source_db=db,
            replica_dbs=replicas,
        )

    # -- statistics provider for the global estimator ------------------------------------

    def scan_stats(self, scan: Scan) -> ScanStats:
        """Statistics oracle backing the cross-database estimator."""
        if scan.placeholder:
            rows = scan.estimated_rows if scan.estimated_rows else 1000.0
            return ScanStats(row_count=rows, columns={})
        spec = self.partition_spec(scan.table)
        if spec is not None and scan.partition_of is None:
            return self._partitioned_stats(spec)
        if scan.source_db is None:
            raise CatalogError(
                f"scan of {scan.table!r} has no source DBMS annotation"
            )
        stats = self.stats_of(scan.source_db, scan.table)
        if stats is None:
            return ScanStats(row_count=1000.0, columns={})
        return ScanStats(
            row_count=float(stats.row_count), columns=stats.columns
        )

    def _partitioned_stats(self, spec: PartitionSpec) -> ScanStats:
        """Aggregate shard statistics for a *logical* partitioned scan.

        Row counts sum across shards; column statistics come from the
        first shard with any (an approximation — NDVs of the partition
        key are shard-local, but join ordering only needs the scale).
        """
        rows = 0.0
        columns: Dict[str, object] = {}
        for name in spec.partition_names():
            for db in self._live_holders(name.lower()):
                stats = self.stats_of(db, name)
                if stats is None:
                    continue
                rows += float(stats.row_count)
                if not columns:
                    columns = dict(stats.columns)
                break
        if rows <= 0.0:
            return ScanStats(row_count=1000.0, columns={})
        return ScanStats(row_count=rows, columns=columns)
