"""The epoch-fenced orphan reaper.

Reconciles what each engine actually holds against the ledger and
drops **orphans**: delegated objects whose creating epoch is closed
(their deployment was rolled back or retired) or that the ledger
already wrote off as leaked.  Two fencing rules make the sweep safe to
run while queries execute:

1. objects from a **live** epoch are never dropped — a prepared query
   mid-flight keeps its cascade;
2. objects the ledger does not hold and whose whole name does not
   parse under this client's namespace are left alone — another
   client's reaper owns them.

Sweeps are *deferred*: a breaker closing (half-open probe success)
marks the engine pending via :meth:`note_recovery`, and the next
submission — or an explicit ``XDB.reap()`` — performs the guarded
calls.  Running engine calls from inside the health registry's
callback would recurse into the very guarded path that fired it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.drift.ledger import DELEGATED_PREFIXES, ObjectLedger
from repro.errors import ReproError


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

    def __init__(self, ledger: ObjectLedger, connectors):
        self._ledger = ledger
        self._connectors = dict(connectors)
        #: engines whose breaker closed since the last sweep
        self._pending: Set[str] = set()

    # -- recovery listener (deferred trigger) ---------------------------

    def note_recovery(self, db: str) -> None:
        """Mark ``db`` for sweeping at the next opportunity.

        Called by the health registry when a breaker transitions back
        to CLOSED (half-open probe success).  Only records intent — no
        engine calls happen here.
        """
        if db in self._connectors:
            self._pending.add(db)

    def pending(self) -> Set[str]:
        return set(self._pending)

    def sweep_pending(self) -> Optional[ReapReport]:
        """Sweep engines marked by :meth:`note_recovery`, if any."""
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
        for db, held, live, orphans in self._classify(dbs):
            if held is None:
                report.unreachable.append(db)
                self._pending.add(db)
                continue
            report.kept_live.extend(live)
            # The ledger drops newest first: reversed, in name order.
            dropped, failed = self._ledger.drop(
                self._connectors, orphans[::-1]
            )
            report.dropped.extend(dropped)
            report.failed.extend(failed)
            # Ledger-side reconcile: leaked entries whose object is no
            # longer on the (reachable) engine were cleaned up out of
            # band — close them out so leaked_count() reflects reality.
            held_names = {name.lower() for _, name in held}
            for entry in self._ledger.leaked_entries():
                if entry.db == db and entry.name.lower() not in held_names:
                    self._ledger.mark_dropped(entry.db, entry.name)
                    report.reconciled.append(
                        (entry.db, entry.kind, entry.name)
                    )
        return report

    def audit(self, dbs=None) -> Dict[str, List[Tuple[str, str]]]:
        """Orphans currently held per engine, without dropping any.

        Benchmarks use this to plot orphan-count-over-time curves;
        unreachable engines are simply absent from the result.
        """
        return {
            db: [(kind, name) for _db, kind, name in orphans]
            for db, held, _live, orphans in self._classify(dbs)
            if orphans
        }

    def _classify(self, dbs):
        """Per engine, ``(db, held, live, orphans)``: what it holds
        (None when unreachable), and which of this client's objects
        are fenced by a live epoch or orphaned by a closed one.

        An object's epoch is its ledger entry's or, for one the ledger
        forgot, the one its name carries; a name that does not parse
        under this namespace is another client's to judge.
        """
        live_epochs = self._ledger.live_epochs()
        for db in sorted(dbs) if dbs is not None else sorted(self._connectors):
            connector = self._connectors.get(db)
            if connector is None:
                continue
            try:
                held = connector.list_objects(DELEGATED_PREFIXES)
            except ReproError:
                yield db, None, [], []
                continue
            live: List[Tuple[str, str, str]] = []
            orphans: List[Tuple[str, str, str]] = []
            for kind, name in sorted(held):
                entry = self._ledger.entry_for(db, name)
                epoch = (
                    entry.epoch
                    if entry is not None
                    else self._ledger.epoch_of_name(name)
                )
                if epoch is None:
                    continue
                (live if epoch in live_epochs else orphans).append(
                    (db, kind, name)
                )
            yield db, held, live, orphans
