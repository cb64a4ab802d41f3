"""Seeded between-queries drift schedules for benchmarks and chaos CI.

A :class:`DriftSchedule` rolls a die between query submissions and,
at the configured rate, applies one random schema mutation to a random
stored table of the federation — the workload-level counterpart of the
per-call :class:`~repro.faults.policy.SchemaDrift` fault.  Column
names in ``protected_columns`` (the ones the workload's queries
reference) are never dropped or renamed, so a schedule can be tuned
for recoverable drift; type *widening* is allowed anywhere.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set

from repro.drift.ledger import DELEGATED_PREFIXES
from repro.drift.mutate import apply_drift
from repro.engine.catalog import BaseTable
from repro.faults.policy import SchemaDrift
from repro.sql.types import TypeKind

#: Default drift mix: ≥4 kinds, all recoverable under replanning when
#: ``protected_columns`` covers the workload's referenced columns.
DEFAULT_KINDS = (
    "add_column",
    "rename_column",
    "drop_column",
    "widen_column",
)


class DriftSchedule:
    """Applies seeded random drifts between queries; records history."""

    def __init__(
        self,
        deployment,
        seed: int = 0,
        rate: float = 0.1,
        kinds: Sequence[str] = DEFAULT_KINDS,
        protected_columns: Optional[Iterable[str]] = None,
        tables: Optional[Iterable[str]] = None,
    ):
        self._deployment = deployment
        self._rng = random.Random(seed)
        self.rate = rate
        self.kinds = tuple(kinds)
        self._protected: Set[str] = {
            name.lower() for name in (protected_columns or ())
        }
        self._tables = (
            {name.lower() for name in tables} if tables is not None else None
        )
        self._counter = 0
        #: every drift applied, in order
        self.applied: List[SchemaDrift] = []

    # -- candidates -----------------------------------------------------

    def _candidates(self) -> List[tuple]:
        """(db, BaseTable) pairs eligible for a drift."""
        out = []
        for db_name in sorted(self._deployment.databases):
            database = self._deployment.database(db_name)
            for table in database.catalog.tables():
                if table.temporary:
                    continue
                name = table.name.lower()
                if name.startswith(DELEGATED_PREFIXES):
                    continue
                if self._tables is not None and name not in self._tables:
                    continue
                out.append((db_name, table))
        return out

    def _free_columns(self, table: BaseTable) -> List[str]:
        return [
            field.name
            for field in table.schema
            if field.name.lower() not in self._protected
        ]

    def _build_drift(self) -> Optional[SchemaDrift]:
        candidates = self._candidates()
        if not candidates:
            return None
        db, table = self._rng.choice(candidates)
        for kind in self._rng.sample(list(self.kinds), len(self.kinds)):
            if kind == "add_column":
                self._counter += 1
                return SchemaDrift(
                    db=db,
                    table=table.name,
                    kind="add_column",
                    column=f"drift_{self._counter}",
                    new_type=("INTEGER",),
                )
            if kind in ("rename_column", "drop_column"):
                free = self._free_columns(table)
                if not free:
                    continue
                column = self._rng.choice(free)
                if kind == "drop_column":
                    return SchemaDrift(
                        db=db,
                        table=table.name,
                        kind="drop_column",
                        column=column,
                    )
                self._counter += 1
                return SchemaDrift(
                    db=db,
                    table=table.name,
                    kind="rename_column",
                    column=column,
                    new_name=f"{column}_v{self._counter}",
                )
            if kind == "widen_column":
                narrow = [
                    field.name
                    for field in table.schema
                    if field.type.kind is TypeKind.INTEGER
                ]
                if not narrow:
                    continue
                return SchemaDrift(
                    db=db,
                    table=table.name,
                    kind="retype_column",
                    column=self._rng.choice(narrow),
                    new_type=("BIGINT",),
                )
        return None

    # -- the driver -----------------------------------------------------

    def maybe_drift(self) -> Optional[SchemaDrift]:
        """Roll the die; apply and return a drift (or None) for this gap."""
        if self._rng.random() >= self.rate:
            return None
        drift = self._build_drift()
        if drift is None:
            return None
        apply_drift(self._deployment.database(drift.db), drift)
        self.applied.append(drift)
        return drift
