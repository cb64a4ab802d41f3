"""The delegated-object ledger: every DDL object one namespace ever made.

The delegation engine creates short-lived ``xf_/xm_/xv_`` objects on
autonomous engines; rollbacks and cleanups drop them — except when an
engine is down, a DROP exhausts its retry budget, or a deadline's
grace window runs out, in which case the objects *leak*.  The ledger
is the namespace's durable memory of everything its clients created,
so leaks are a bounded, reconcilable debt instead of silent garbage:

* every created object is recorded under the **epoch** of the cascade
  that created it; the ledger hands epochs out
  (:meth:`ObjectLedger.open_epoch`), so every client of one namespace
  — they share its ledger, which the deployment keeps — draws from
  one counter;
* an epoch is **live** while its deployment may still be executed
  (prepared queries and the cascades a plan memo keeps stay live
  across re-executions) and **closed** once the deployment is rolled
  back or retired;
* the reaper (:mod:`repro.drift.reaper`) drops engine-held objects
  from closed epochs and never touches live ones — the fencing
  invariant that makes sweeping safe while queries run.

An entry is forgotten once it is **dropped and its epoch closed** —
nothing can owe or fence it any more — so a long-lived client's ledger
holds its live cascades and outstanding leaks, not its history.  The
highest epoch ever seen survives the pruning as a scalar.

With a ``path`` the ledger persists as JSON after every mutation, so a
restarted client can still reap what a crashed one leaked.

The ledger is also the one owner of a delegated object's name and of
its drop: :meth:`ObjectLedger.name` builds
``x{f,m,v}_<namespace><epoch>_<task>``,
:meth:`ObjectLedger.epoch_of_name` reads its epoch back (whole names
only), and :meth:`ObjectLedger.drop` is the one routine that issues
``DROP … IF EXISTS`` and records the outcome — cleanup, rollback,
salvage and the reaper all go through it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import ReproError
from repro.obs.runtime import current_context
from repro.sql import ast

#: Name prefix per kind of object a delegation cascade creates: foreign
#: tables, materializations and views.
PREFIX_OF_KIND = {"FOREIGN TABLE": "xf_", "TABLE": "xm_", "VIEW": "xv_"}
DELEGATED_PREFIXES = tuple(PREFIX_OF_KIND.values())

#: (db, kind, name) of one delegated object
DelegatedObject = Tuple[str, str, str]

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
        if namespace[-1:].isdigit():
            # ``xv_1`` + ``5_2`` would also read as ``xv_`` + ``15_2``:
            # a namespace ending in a digit lets two clients claim one
            # name.
            raise ValueError(
                f"ddl namespace {namespace!r} must not end in a digit"
            )
        self.namespace = namespace
        self._name_shape = re.compile(
            rf"x[fmv]_{re.escape(namespace)}(\d+)_[a-z0-9]+", re.IGNORECASE
        )
        self._path = path
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

    def open_epoch(self, epoch: Optional[int] = None) -> int:
        """Mark ``epoch`` live — by default the next one: above every
        epoch this namespace has seen, whichever of its clients opened
        it, so no two cascades ever share a name."""
        if epoch is None:
            epoch = self._max_epoch + 1
        self._live_epochs.add(epoch)
        self._max_epoch = max(self._max_epoch, epoch)
        self._persist()
        return epoch

    def close_epoch(self, epoch: int) -> None:
        """Retire ``epoch``: its undropped objects become reapable, its
        dropped ones are forgotten."""
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
        return set(self._live_epochs)

    def is_live(self, epoch: int) -> bool:
        return epoch in self._live_epochs

    # -- recording ------------------------------------------------------

    def record(self, db: str, kind: str, name: str, epoch: int) -> None:
        entry = LedgerEntry(db=db, kind=kind, name=name, epoch=epoch)
        self._store(entry.key, entry)
        self._max_epoch = max(self._max_epoch, epoch)
        self._persist()

    def mark_dropped(self, db: str, name: str) -> None:
        self._mark(db, name, STATUS_DROPPED)

    def mark_leaked(self, db: str, name: str) -> None:
        self._mark(db, name, STATUS_LEAKED)

    def _mark(self, db: str, name: str, status: str) -> None:
        key = (db, name.lower())
        entry = self._entries.get(key)
        if entry is not None and entry.status != status:
            self._store(key, replace(entry, status=status))
        self._persist()

    def _store(self, key: Tuple[str, str], entry: LedgerEntry) -> None:
        """Put ``entry`` under ``key``, keeping the leaked
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
        return self._entries.get((db, name.lower()))

    def entries(self) -> List[LedgerEntry]:
        return list(self._entries.values())

    def leaked_entries(self) -> List[LedgerEntry]:
        return [e for e in self.entries() if e.status == STATUS_LEAKED]

    def leaked_count(self) -> int:
        """Cumulative outstanding leaked objects (reaping pays it down)."""
        return self._leaked

    def max_epoch(self) -> int:
        """Highest epoch ever recorded — a restarted client resumes its
        delegation counter above this so new object names can never
        collide with a crashed predecessor's leaked ones."""
        return self._max_epoch

    # -- names ----------------------------------------------------------

    def name(self, kind: str, epoch: int, task_id: int) -> str:
        """The name of the ``kind`` object task ``task_id`` of cascade
        ``epoch`` creates: ``x{f,m,v}_<namespace><epoch>_<task>``."""
        return f"{PREFIX_OF_KIND[kind]}{self.namespace}{epoch}_{task_id}"

    def epoch_of_name(self, name: str) -> Optional[int]:
        """The creating epoch of one of this namespace's objects, or
        None when ``name`` is not one.

        The whole name must match ``x{f,m,v}_<namespace><epoch>_<tail>``
        with an underscore-free tail (the task id in every name
        :meth:`name` builds).  With no namespace ending in a digit, no
        name parses under two namespaces, which keeps the
        reapers of clients sharing engines off each other's objects.
        """
        match = self._name_shape.fullmatch(name)
        return int(match.group(1)) if match else None

    # -- dropping -------------------------------------------------------

    def drop(
        self,
        connectors: Mapping[str, object],
        objects: List[DelegatedObject],
        skip_db: Optional[str] = None,
        rollback: bool = False,
    ) -> Tuple[List[DelegatedObject], List[DelegatedObject]]:
        """Drop delegated objects, newest first, and record each fate.

        Returns ``(dropped, leaked)`` in drop order.  Drops go through
        the connectors' retry layer, so transient faults are absorbed;
        an object leaks when its DROP exhausts the retry budget, when
        its engine has no connector, or when it lives on ``skip_db`` —
        an engine known to be down, which is not called at all.  A
        leaked entry is what the reaper reconciles.  ``rollback`` notes
        a ``rollback-drop`` / ``rollback-leaked`` event per object on
        the active query trace.
        """
        dropped: List[DelegatedObject] = []
        leaked: List[DelegatedObject] = []
        ctx = current_context() if rollback else None
        for db, kind, name in reversed(objects):
            connector = connectors.get(db) if db != skip_db else None
            gone = False
            if connector is not None:
                try:
                    connector.execute_ddl(
                        ast.DropObject(kind=kind, name=name, if_exists=True)
                    )
                    gone = True
                except ReproError:
                    pass
            (dropped if gone else leaked).append((db, kind, name))
            self._mark(db, name, STATUS_DROPPED if gone else STATUS_LEAKED)
            if ctx is not None:
                ctx.tracer.add_event(
                    "rollback-drop" if gone else "rollback-leaked",
                    db=db,
                    kind=kind,
                    object=name,
                )
        return dropped, leaked

    # -- persistence ----------------------------------------------------

    def _persist(self) -> None:
        if not self._path:
            return
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
