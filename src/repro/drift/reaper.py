"""The epoch-fenced orphan reaper.

Reconciles what each engine actually holds against the ledger and
drops **orphans**: delegated objects whose creating epoch is closed
(their deployment was rolled back or retired) or that the ledger
already wrote off as leaked.  Two fencing rules make the sweep safe to
run while queries execute:

1. objects from a **live** epoch are never dropped — a prepared query
   mid-flight keeps its cascade;
2. objects whose name does not carry this client's namespace (or whose
   epoch cannot be attributed at all) are left alone — another
   client's reaper owns them.

Sweeps are *deferred*: a breaker closing (half-open probe success)
marks the engine pending via :meth:`note_recovery`, and the next
submission — or an explicit ``XDB.reap()`` — performs the guarded
calls.  Running engine calls from inside the health registry's
callback would recurse into the very guarded path that fired it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.drift.ledger import DELEGATED_PREFIXES, ObjectLedger
from repro.errors import ReproError
from repro.sql import ast


@dataclass
class ReapReport:
    """What one reaper sweep did, per fencing outcome."""

    #: (db, kind, name) orphans dropped from the engines
    dropped: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (db, kind, name) kept because their epoch is still live
    kept_live: List[Tuple[str, str, str]] = field(default_factory=list)
    #: engines the sweep could not reach (still down / breaker open)
    unreachable: List[str] = field(default_factory=list)
    #: (db, kind, name) whose DROP failed (stay leaked for next sweep)
    failed: List[Tuple[str, str, str]] = field(default_factory=list)
    #: ledger entries reconciled dropped because the engine no longer
    #: holds them (e.g. someone cleaned up manually)
    reconciled: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def orphans_dropped(self) -> int:
        return len(self.dropped)

    def describe(self) -> str:
        parts = [f"{len(self.dropped)} orphan(s) dropped"]
        if self.kept_live:
            parts.append(f"{len(self.kept_live)} live kept")
        if self.failed:
            parts.append(f"{len(self.failed)} drop(s) failed")
        if self.unreachable:
            parts.append(f"unreachable: {sorted(self.unreachable)}")
        if self.reconciled:
            parts.append(f"{len(self.reconciled)} reconciled")
        return ", ".join(parts)


class OrphanReaper:
    """Sweeps delegated-object orphans off recovered engines."""

    def __init__(self, ledger: ObjectLedger, connectors, health=None):
        self._ledger = ledger
        self._connectors = dict(connectors)
        self._health = health
        self._lock = threading.Lock()
        #: engines whose breaker closed since the last sweep
        self._pending: Set[str] = set()
        #: lifetime counter (observability)
        self.orphans_reaped = 0

    # -- recovery listener (deferred trigger) ---------------------------

    def note_recovery(self, db: str) -> None:
        """Mark ``db`` for sweeping at the next opportunity.

        Called by the health registry when a breaker transitions back
        to CLOSED (half-open probe success).  Only records intent — no
        engine calls happen here.
        """
        if db in self._connectors:
            with self._lock:
                self._pending.add(db)

    def pending(self) -> Set[str]:
        with self._lock:
            return set(self._pending)

    def sweep_pending(self) -> Optional[ReapReport]:
        """Sweep engines marked by :meth:`note_recovery`, if any."""
        with self._lock:
            dbs = sorted(self._pending)
            self._pending.clear()
        if not dbs:
            return None
        return self.sweep(dbs)

    # -- the sweep ------------------------------------------------------

    def sweep(self, dbs=None) -> ReapReport:
        """Reconcile engine-held objects against the ledger.

        Best-effort per engine: an unreachable engine is skipped (and
        stays pending for the next recovery), a failing DROP leaves
        the entry leaked for the next sweep.  Never raises for engine
        trouble — reaping is maintenance, not a query.
        """
        report = ReapReport()
        names = sorted(dbs) if dbs is not None else sorted(self._connectors)
        live_epochs = self._ledger.live_epochs()
        for db in names:
            connector = self._connectors.get(db)
            if connector is None:
                continue
            try:
                held = connector.list_objects(DELEGATED_PREFIXES)
            except ReproError:
                report.unreachable.append(db)
                with self._lock:
                    self._pending.add(db)
                continue
            held_names = {name.lower() for _, name in held}
            for kind, name in sorted(held):
                self._reconcile_object(
                    db, kind, name, connector, live_epochs, report
                )
            # Ledger-side reconcile: leaked entries whose object is no
            # longer on the (reachable) engine were cleaned up out of
            # band — close them out so leaked_count() reflects reality.
            for entry in self._ledger.leaked_entries():
                if entry.db == db and entry.name.lower() not in held_names:
                    self._ledger.mark_dropped(entry.db, entry.name)
                    report.reconciled.append(
                        (entry.db, entry.kind, entry.name)
                    )
        return report

    def _reconcile_object(
        self, db, kind, name, connector, live_epochs, report
    ) -> None:
        entry = self._ledger.entry_for(db, name)
        if entry is not None:
            epoch: Optional[int] = entry.epoch
        else:
            if not self._ledger.owns(name):
                return  # another client's object — not ours to judge
            epoch = self._ledger.epoch_of_name(name)
            if epoch is None:
                return  # cannot attribute an epoch: fence, don't drop
        if epoch in live_epochs:
            report.kept_live.append((db, kind, name))
            return
        try:
            connector.execute_ddl(
                ast.DropObject(kind=kind, name=name, if_exists=True)
            )
        except ReproError:
            report.failed.append((db, kind, name))
            self._ledger.mark_leaked(db, name)
            return
        self._ledger.mark_dropped(db, name)
        report.dropped.append((db, kind, name))
        self.orphans_reaped += 1

    # -- audit (no drops) ----------------------------------------------

    def audit(self, dbs=None) -> Dict[str, List[Tuple[str, str]]]:
        """Orphans currently held per engine, without dropping any.

        Benchmarks use this to plot orphan-count-over-time curves;
        unreachable engines are simply absent from the result.
        """
        orphans: Dict[str, List[Tuple[str, str]]] = {}
        names = sorted(dbs) if dbs is not None else sorted(self._connectors)
        live_epochs = self._ledger.live_epochs()
        for db in names:
            connector = self._connectors.get(db)
            if connector is None:
                continue
            try:
                held = connector.list_objects(DELEGATED_PREFIXES)
            except ReproError:
                continue
            found: List[Tuple[str, str]] = []
            for kind, name in sorted(held):
                entry = self._ledger.entry_for(db, name)
                if entry is not None:
                    epoch: Optional[int] = entry.epoch
                elif self._ledger.owns(name):
                    epoch = self._ledger.epoch_of_name(name)
                else:
                    continue
                if epoch is None or epoch in live_epochs:
                    continue
                found.append((kind, name))
            if found:
                orphans[db] = found
        return orphans
