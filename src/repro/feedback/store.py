"""The persistent cardinality-feedback store and its planner overlay.

:class:`FeedbackStore` is the durable half of the Q-Error loop: a
JSON-backed map (same crash-safe idiom as the drift
:class:`~repro.drift.ledger.ObjectLedger` — in-memory dict, atomic
temp-file-then-rename persistence) from canonical
subexpression fingerprints to corrected cardinalities observed at
execution time.

:class:`FeedbackOverlay` is the read side: handed to the cardinality
estimator, it intercepts every node estimate, fingerprints the
subtree, and substitutes the learned row count when one is known —
which transparently re-steers both the Selinger join-order DP and the
Rule-4 placement costing (they both read ``estimated_rows``).

Staleness: learned cardinalities are only as good as the schema they
were observed under.  :meth:`FeedbackStore.invalidate_table` drops
every entry touching a table and is wired into the drift-recovery
path, so a re-introspected table forgets its corrections along with
its fingerprint.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.feedback import qerror
from repro.feedback.fingerprint import base_tables, fingerprint


@dataclass
class Observation:
    """One (estimate, actual) pair harvested from an execution."""

    fingerprint: str
    kind: str  # "scan" | "task"
    locus: str  # qerror.JOIN / SCAN / AGGREGATE
    tables: List[str]  # "db.table" keys the subtree reads
    estimated_rows: float
    actual_rows: float
    label: str = ""  # human-readable locus (table or task notation)

    @property
    def q_error(self) -> float:
        return qerror.q_error(self.estimated_rows, self.actual_rows)

    @property
    def direction(self) -> str:
        return qerror.direction(self.estimated_rows, self.actual_rows)


@dataclass
class FeedbackEntry:
    """A learned cardinality for one fingerprint."""

    fingerprint: str
    kind: str
    tables: List[str] = field(default_factory=list)
    estimated_rows: float = 0.0
    actual_rows: float = 0.0
    qerror: float = 1.0
    hits: int = 1


class FeedbackStore:
    """Fingerprint → corrected cardinality, optionally persisted."""

    def __init__(self, path: Optional[str] = None):
        self._path = path
        self._entries: Dict[str, FeedbackEntry] = {}
        #: moves only when some :meth:`correction` answer changes: a
        #: plan estimated under the store is current while it holds
        self.version = 0
        if path is not None and os.path.exists(path):
            self._load(path)

    # -- observation ----------------------------------------------------

    def observe(self, obs: Observation) -> FeedbackEntry:
        """Record (or refresh) the learned cardinality for ``obs``."""
        entry = self._entries.get(obs.fingerprint)
        if entry is None:
            entry = FeedbackEntry(
                fingerprint=obs.fingerprint,
                kind=obs.kind,
                tables=list(obs.tables),
                estimated_rows=float(obs.estimated_rows),
                actual_rows=float(obs.actual_rows),
                qerror=obs.q_error,
            )
            self._entries[obs.fingerprint] = entry
            self.version += 1
        else:
            if entry.actual_rows != float(obs.actual_rows):
                self.version += 1
            entry.actual_rows = float(obs.actual_rows)
            entry.estimated_rows = float(obs.estimated_rows)
            entry.qerror = obs.q_error
            entry.hits += 1
        self._persist()
        return entry

    def observe_many(self, observations: Iterable[Observation]) -> int:
        count = 0
        for obs in observations:
            self.observe(obs)
            count += 1
        return count

    # -- lookup ---------------------------------------------------------

    def correction(self, fp: str) -> Optional[float]:
        """The learned row count for ``fp``, or None."""
        entry = self._entries.get(fp)
        return None if entry is None else entry.actual_rows

    def get(self, fp: str) -> Optional[FeedbackEntry]:
        return self._entries.get(fp)

    def entries(self) -> List[FeedbackEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- staleness ------------------------------------------------------

    def invalidate_table(self, db: str, table: str) -> int:
        """Drop every entry whose subtree reads ``db.table``.

        Called from drift recovery: a re-introspected (or quarantined)
        table invalidates the cardinalities observed under its old
        schema.  Returns the number of entries dropped.
        """
        key = f"{db.lower()}.{table.lower()}"
        doomed = [
            fp
            for fp, entry in self._entries.items()
            if key in entry.tables
        ]
        for fp in doomed:
            del self._entries[fp]
        if doomed:
            self.version += 1
            self._persist()
        return len(doomed)

    def clear(self) -> None:
        if self._entries:
            self.version += 1
        self._entries.clear()
        self._persist()

    # -- persistence (ObjectLedger idiom) -------------------------------

    def _persist(self) -> None:
        if self._path is None:
            return
        payload = {
            "entries": [
                {
                    "fingerprint": e.fingerprint,
                    "kind": e.kind,
                    "tables": list(e.tables),
                    "estimated_rows": e.estimated_rows,
                    "actual_rows": e.actual_rows,
                    "qerror": e.qerror if e.qerror != qerror.INFINITE else -1.0,
                    "hits": e.hits,
                }
                for e in self._entries.values()
            ]
        }
        tmp = f"{self._path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, self._path)

    def _load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for raw in payload.get("entries", []):
            q = float(raw.get("qerror", 1.0))
            entry = FeedbackEntry(
                fingerprint=str(raw["fingerprint"]),
                kind=str(raw.get("kind", "task")),
                tables=[str(t) for t in raw.get("tables", [])],
                estimated_rows=float(raw.get("estimated_rows", 0.0)),
                actual_rows=float(raw.get("actual_rows", 0.0)),
                qerror=qerror.INFINITE if q < 0 else q,
                hits=int(raw.get("hits", 1)),
            )
            self._entries[entry.fingerprint] = entry


class FeedbackOverlay:
    """The estimator-facing view: fingerprint a node, apply a learned
    cardinality when one exists.

    ``corrections`` holds transient, higher-priority overrides — the
    mid-query adaptivity path uses it to pin the actuals it just
    observed without waiting for (or requiring) a persistent store.
    """

    def __init__(
        self,
        store: Optional[FeedbackStore] = None,
        corrections: Optional[Dict[str, float]] = None,
    ):
        self._store = store
        self._corrections: Dict[str, float] = dict(corrections or {})
        # id-keyed fingerprint cache with identity pinning (the same
        # idiom as the estimator's memo): fingerprints render SQL, so
        # computing one per estimator call would be quadratic.
        self._fingerprints: Dict[int, Tuple[object, str]] = {}
        self.applied = 0

    def pin(self, fp: str, rows: float) -> None:
        self._corrections[fp] = float(rows)

    def fingerprint_of(self, plan) -> str:
        cached = self._fingerprints.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        fp = fingerprint(plan)
        self._fingerprints[id(plan)] = (plan, fp)
        return fp

    def correct(self, plan, default_rows: float) -> Optional[float]:
        """The corrected row count for ``plan``, or None to keep the
        model's estimate."""
        fp = self.fingerprint_of(plan)
        value = self._corrections.get(fp)
        if value is None and self._store is not None:
            value = self._store.correction(fp)
        if value is None:
            return None
        value = max(float(value), 0.0)
        if value != default_rows:
            self.applied += 1
        return value


def observe_expr(
    store_or_overlay,
    expr,
    actual_rows: float,
    estimated_rows: Optional[float] = None,
    kind: str = "task",
    label: str = "",
) -> Observation:
    """Build (and record) an observation for a plan subtree."""
    obs = Observation(
        fingerprint=fingerprint(expr),
        kind=kind,
        locus=qerror.locus_of(expr),
        tables=base_tables(expr),
        estimated_rows=float(
            estimated_rows
            if estimated_rows is not None
            else (expr.estimated_rows or 0.0)
        ),
        actual_rows=float(actual_rows),
        label=label,
    )
    if store_or_overlay is not None:
        store_or_overlay.observe(obs)
    return obs
