"""Engine catalog: stored tables, views, and foreign tables.

Names are case-insensitive, like mainstream SQL engines.  The catalog
implements :class:`repro.relational.builder.TableResolver`, so the plan
builder can bind queries directly against it; foreign tables resolve as
ordinary relations and the planner turns their scans into foreign scans.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.engine.stats import (
    DEFAULT_SAMPLE_SIZE,
    REANALYZE_FRACTION,
    TableStats,
    compute_stats,
)
from repro.errors import CatalogError
from repro.obs.runtime import current_context
from repro.relational.builder import ResolvedTable, TableResolver
from repro.relational.schema import Schema
from repro.sql import ast


class BaseTable:
    """A stored relation: schema, rows, and an ANALYZE snapshot of its
    statistics.

    ``stats`` is what the last analysis saw, ``row_count`` included, and
    stays that way while writes append no more than
    :data:`~repro.engine.stats.REANALYZE_FRACTION` of it: between two
    analyses ``stats.row_count <= len(rows) <= (1 + fraction) *
    stats.row_count`` plus one batch.  The write that goes past the
    bound invalidates the snapshot (and moves the catalog version); the
    next read takes a new one.
    """

    kind = "TABLE"

    def __init__(self, name: str, schema: Schema, rows=None, temporary=False):
        self.name = name
        self.schema = schema.unqualified()
        self.rows: List[tuple] = list(rows) if rows is not None else []
        self.temporary = temporary
        #: how many times the snapshot was invalidated, and the
        #: statistics tagged with the count they were computed under — a
        #: scan that an invalidation overtakes stores a tag nobody will
        #: accept
        self._generation = 0
        self._generation_lock = threading.Lock()
        self._stats: Optional[Tuple[int, TableStats]] = None
        #: held while analyzing, so concurrent readers of a table
        #: without a snapshot pay for one scan, not one each
        self._analyze_lock = threading.Lock()
        #: the catalog holding this table (set by :meth:`Catalog.add`),
        #: told whenever the snapshot is invalidated
        self._catalog: Optional["Catalog"] = None

    def _snapshot(self) -> Optional[TableStats]:
        """The current snapshot, if there is one."""
        cached = self._stats
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        return None

    @property
    def stats(self) -> TableStats:
        stats = self._snapshot()
        if stats is not None:
            return stats
        with self._analyze_lock:
            generation = self._generation
            stats = self._snapshot()
            if stats is None:
                stats = self._analyze()
                self._stats = (generation, stats)
            return stats

    def _analyze(self) -> TableStats:
        stats = compute_stats(self.schema, self.rows)
        ctx = current_context()
        if ctx is not None:
            labels = {
                "db": (
                    self._catalog.database_name
                    if self._catalog is not None
                    else None
                ),
                "table": self.name,
            }
            profiled = min(stats.row_count, DEFAULT_SAMPLE_SIZE)
            ctx.metrics.inc("engine.stats.analyze", **labels)
            ctx.metrics.inc("engine.stats.analyze_rows", profiled, **labels)
            ctx.tracer.add_event("analyze", rows=profiled, **labels)
        return stats

    def invalidate_stats(self) -> None:
        """Announce that schema or rows changed beyond what the snapshot
        may lag by: statistics are recomputed on next read and the
        catalog version moves on."""
        with self._generation_lock:
            self._generation += 1
        self._stats = None
        if self._catalog is not None:
            self._catalog.bump_version()

    def insert(self, rows) -> int:
        """Append a batch, all or nothing: an arity error leaves the
        table (and its statistics) untouched.  The snapshot is kept —
        and the catalog version with it — until the rows appended since
        exceed ``REANALYZE_FRACTION`` of the rows it counted."""
        batch = [tuple(row) for row in rows]
        for row in batch:
            if len(row) != len(self.schema):
                raise CatalogError(
                    f"row arity {len(row)} does not match table "
                    f"{self.name!r} with {len(self.schema)} columns"
                )
        self.rows.extend(batch)
        snapshot = self._snapshot()
        if (
            snapshot is None
            or len(self.rows) - snapshot.row_count
            > REANALYZE_FRACTION * snapshot.row_count
        ):
            self.invalidate_stats()
        return len(batch)


class View:
    """A named query; expanded inline by the plan builder."""

    kind = "VIEW"

    def __init__(self, name: str, query: ast.Select):
        self.name = name
        self.query = query


class ForeignTable:
    """A SQL/MED foreign table: schema plus (server, remote object)."""

    kind = "FOREIGN TABLE"

    def __init__(
        self, name: str, schema: Schema, server: str, remote_object: str
    ):
        self.name = name
        self.schema = schema.unqualified()
        self.server = server
        self.remote_object = remote_object


CatalogObject = object  # BaseTable | View | ForeignTable


class Catalog(TableResolver):
    """Name → object map with resolver support for the plan builder.

    ``version`` counts every change a local plan or estimate could
    observe — objects added, replaced or dropped, statistics
    invalidated, servers registered.  Plans and estimates read a
    table's statistics snapshot, never its rows, so an INSERT moves the
    version only when it invalidates the snapshot
    (:meth:`BaseTable.insert`).  It only ever grows, and
    a writer changes state *first* and bumps *second*, so a reader that
    notes the version before it reads can tell afterwards whether what
    it read is still current (see :class:`VersionStamp`).  It is this
    engine's private counter and unrelated to
    ``GlobalCatalog.catalog_version``.
    """

    def __init__(self, database_name: str):
        self.database_name = database_name
        self._objects: Dict[str, CatalogObject] = {}
        self.version = 0
        self._version_lock = threading.Lock()

    # -- management ----------------------------------------------------------

    def bump_version(self) -> None:
        with self._version_lock:
            self.version += 1

    def add(self, obj: CatalogObject, replace: bool = False) -> None:
        key = obj.name.lower()
        if not replace and key in self._objects:
            raise CatalogError(
                f"object {obj.name!r} already exists in database "
                f"{self.database_name!r}"
            )
        self._objects[key] = obj
        if isinstance(obj, BaseTable):
            obj._catalog = self
        self.bump_version()

    def drop(self, name: str, kind: Optional[str] = None) -> None:
        key = name.lower()
        obj = self._objects.get(key)
        if obj is None:
            raise CatalogError(
                f"object {name!r} does not exist in database "
                f"{self.database_name!r}"
            )
        if kind is not None and obj.kind != kind:
            # MariaDB-style engines drop federated tables via DROP TABLE.
            if not (kind == "TABLE" and obj.kind == "FOREIGN TABLE"):
                raise CatalogError(
                    f"object {name!r} is a {obj.kind}, not a {kind}"
                )
        del self._objects[key]
        self.bump_version()

    def get(self, name: str) -> Optional[CatalogObject]:
        return self._objects.get(name.lower())

    def require(self, name: str) -> CatalogObject:
        obj = self.get(name)
        if obj is None:
            raise CatalogError(
                f"unknown relation {name!r} in database "
                f"{self.database_name!r}"
            )
        return obj

    def names(self) -> List[str]:
        return sorted(obj.name for obj in self._objects.values())

    def objects(self) -> List[CatalogObject]:
        return list(self._objects.values())

    def tables(self) -> List[BaseTable]:
        return [o for o in self._objects.values() if isinstance(o, BaseTable)]

    # -- resolver interface --------------------------------------------------

    def resolve_table(self, parts: Tuple[str, ...]) -> ResolvedTable:
        if len(parts) == 2:
            if parts[0].lower() != self.database_name.lower():
                raise CatalogError(
                    f"cannot resolve {'.'.join(parts)!r}: this engine is "
                    f"{self.database_name!r} and has no cross-database view"
                )
            name = parts[1]
        elif len(parts) == 1:
            name = parts[0]
        else:
            raise CatalogError(f"invalid table name {'.'.join(parts)!r}")

        obj = self.require(name)
        if isinstance(obj, View):
            return ResolvedTable(table=obj.name, view_query=obj.query)
        if isinstance(obj, (BaseTable, ForeignTable)):
            return ResolvedTable(
                table=obj.name,
                schema=obj.schema,
                source_db=self.database_name,
            )
        raise CatalogError(f"cannot scan object {name!r}")


class VersionStamp(Dict[Catalog, int]):
    """The catalog versions a plan or estimate was computed under.

    Maps every engine catalog that was read — the planning engine's own
    and, transitively, each remote's it consulted — to the version noted
    *before* the read.  Versions only grow, so when one catalog is read
    twice the older version is kept: a change between the two reads
    must invalidate whatever was derived from them.
    """

    def note(self, catalog: Catalog) -> None:
        """Record that ``catalog`` is about to be read."""
        self.merge({catalog: catalog.version})

    def merge(self, other: Dict[Catalog, int]) -> None:
        for catalog, version in other.items():
            self[catalog] = min(self.get(catalog, version), version)

    def is_current(self) -> bool:
        """Whether nothing that was read has changed since."""
        return all(
            catalog.version == version for catalog, version in self.items()
        )
