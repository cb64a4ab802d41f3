"""The delegated-object ledger: every DDL object one client ever made.

The delegation engine creates short-lived ``xf_/xm_/xv_`` objects on
autonomous engines; rollbacks and cleanups drop them — except when an
engine is down, a DROP exhausts its retry budget, or a deadline's
grace window runs out, in which case the objects *leak*.  The ledger
is the client's durable memory of everything it created, so leaks are
a bounded, reconcilable debt instead of silent garbage:

* every created object is recorded under the **epoch** (the delegation
  counter value) of the cascade that created it;
* an epoch is **live** while its deployment may still be executed
  (prepared queries keep theirs live across re-executions) and
  **closed** once the deployment is rolled back or retired;
* the reaper (:mod:`repro.drift.reaper`) drops engine-held objects
  from closed epochs and never touches live ones — the fencing
  invariant that makes sweeping safe while queries run.

An entry is forgotten once it is **dropped and its epoch closed** —
nothing can owe or fence it any more — so a long-lived client's ledger
holds its live cascades and outstanding leaks, not its history.  The
highest epoch ever seen survives the pruning as a scalar.

With a ``path`` the ledger persists as JSON after every mutation, so a
restarted client can still reap what a crashed one leaked.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

#: Entry lifecycle states.
STATUS_LIVE = "live"
STATUS_DROPPED = "dropped"
STATUS_LEAKED = "leaked"


@dataclass(frozen=True)
class LedgerEntry:
    """One delegated DDL object and what became of it."""

    db: str
    kind: str
    name: str
    epoch: int
    status: str = STATUS_LIVE

    @property
    def key(self) -> Tuple[str, str]:
        return (self.db, self.name.lower())


class ObjectLedger:
    """Per-namespace record of delegated objects, keyed by epoch."""

    def __init__(self, namespace: str = "", path: Optional[str] = None):
        self.namespace = namespace
        self._path = path
        self._lock = threading.Lock()
        #: (db, name_lower) -> entry
        self._entries: Dict[Tuple[str, str], LedgerEntry] = {}
        #: epochs whose deployment may still execute
        self._live_epochs: Set[int] = set()
        #: high-water mark over every epoch ever opened or recorded
        self._max_epoch = 0
        #: entries currently in ``STATUS_LEAKED``
        self._leaked = 0
        if path and os.path.exists(path):
            self._load(path)

    # -- epochs ---------------------------------------------------------

    def open_epoch(self, epoch: int) -> int:
        with self._lock:
            self._live_epochs.add(epoch)
            self._max_epoch = max(self._max_epoch, epoch)
        self._persist()
        return epoch

    def close_epoch(self, epoch: int) -> None:
        """Retire ``epoch``: its undropped objects become reapable, its
        dropped ones are forgotten."""
        with self._lock:
            self._live_epochs.discard(epoch)
            settled = [
                key
                for key, entry in self._entries.items()
                if entry.epoch == epoch and entry.status == STATUS_DROPPED
            ]
            for key in settled:
                del self._entries[key]
        self._persist()

    def live_epochs(self) -> Set[int]:
        with self._lock:
            return set(self._live_epochs)

    def is_live(self, epoch: int) -> bool:
        with self._lock:
            return epoch in self._live_epochs

    # -- recording ------------------------------------------------------

    def record(self, db: str, kind: str, name: str, epoch: int) -> None:
        with self._lock:
            entry = LedgerEntry(db=db, kind=kind, name=name, epoch=epoch)
            self._store(entry.key, entry)
            self._max_epoch = max(self._max_epoch, epoch)
        self._persist()

    def mark_dropped(self, db: str, name: str) -> None:
        self._mark(db, name, STATUS_DROPPED)

    def mark_leaked(self, db: str, name: str) -> None:
        self._mark(db, name, STATUS_LEAKED)

    def _mark(self, db: str, name: str, status: str) -> None:
        with self._lock:
            key = (db, name.lower())
            entry = self._entries.get(key)
            if entry is not None and entry.status != status:
                self._store(key, replace(entry, status=status))
        self._persist()

    def _store(self, key: Tuple[str, str], entry: LedgerEntry) -> None:
        """Put ``entry`` under ``key`` (lock held), keeping the leaked
        count; a dropped entry of a closed epoch is forgotten instead."""
        previous = self._entries.get(key)
        if previous is not None and previous.status == STATUS_LEAKED:
            self._leaked -= 1
        if entry.status == STATUS_LEAKED:
            self._leaked += 1
        if (
            entry.status == STATUS_DROPPED
            and entry.epoch not in self._live_epochs
        ):
            self._entries.pop(key, None)
        else:
            self._entries[key] = entry

    # -- queries --------------------------------------------------------

    def entry_for(self, db: str, name: str) -> Optional[LedgerEntry]:
        with self._lock:
            return self._entries.get((db, name.lower()))

    def entries(self) -> List[LedgerEntry]:
        with self._lock:
            return list(self._entries.values())

    def leaked_entries(self) -> List[LedgerEntry]:
        return [e for e in self.entries() if e.status == STATUS_LEAKED]

    def leaked_count(self) -> int:
        """Cumulative outstanding leaked objects (reaping pays it down)."""
        with self._lock:
            return self._leaked

    def max_epoch(self) -> int:
        """Highest epoch ever recorded — a restarted client resumes its
        delegation counter above this so new object names can never
        collide with a crashed predecessor's leaked ones."""
        with self._lock:
            return self._max_epoch

    def owns(self, name: str) -> bool:
        """Whether ``name`` matches this ledger's delegated-object shape.

        Delegated objects are ``x{f,m,v}_<namespace><epoch>_<task>``;
        the namespace check keeps concurrent clients' reapers off each
        other's objects.
        """
        lowered = name.lower()
        if not lowered.startswith(("xf_", "xm_", "xv_")):
            return False
        return lowered[3:].startswith(self.namespace.lower())

    def epoch_of_name(self, name: str) -> Optional[int]:
        """Parse the creating epoch out of a delegated object name."""
        if not self.owns(name):
            return None
        stem = name[3 + len(self.namespace):]
        digits = stem.split("_", 1)[0]
        try:
            return int(digits)
        except ValueError:
            return None

    # -- persistence ----------------------------------------------------

    def _persist(self) -> None:
        if not self._path:
            return
        with self._lock:
            payload = {
                "namespace": self.namespace,
                "live_epochs": sorted(self._live_epochs),
                "max_epoch": self._max_epoch,
                "entries": [
                    {
                        "db": e.db,
                        "kind": e.kind,
                        "name": e.name,
                        "epoch": e.epoch,
                        "status": e.status,
                    }
                    for e in self._entries.values()
                ],
            }
        tmp = f"{self._path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self._path)

    def _load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        self._live_epochs = set(payload.get("live_epochs", []))
        self._max_epoch = max(
            [int(payload.get("max_epoch", 0)), *self._live_epochs]
        )
        for raw in payload.get("entries", []):
            entry = LedgerEntry(
                db=raw["db"],
                kind=raw["kind"],
                name=raw["name"],
                epoch=int(raw["epoch"]),
                status=raw.get("status", STATUS_LIVE),
            )
            self._store(entry.key, entry)
            self._max_epoch = max(self._max_epoch, entry.epoch)
