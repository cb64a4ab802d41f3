"""Harvesting (estimate, actual) pairs out of an executed query.

Two sources, both already recorded by the observability spine:

* **Task boundaries** — every delegation-plan task carries the
  optimizer's estimate (``Task.estimated_rows``) and, after
  :func:`~repro.core.timing.attribute_edge_stats`, its out-edge
  carries the rows that actually crossed the boundary
  (``TaskEdge.moved_rows``).  The root task's actual is the result's
  row count.  Each pair is keyed by the fingerprint of the task's
  *pre-finalization* logical subtree (``Task.source_expr``), so the
  correction survives re-finalization into a different task cutting.
* **Base-table scans** — the executor mirrors every physical operator
  into ``kind="operator"`` spans; a ``SeqScan[t]`` span's ``rows_out``
  is the table's true cardinality, compared against the catalog's
  (possibly stale or skewed) ``row_count``.  Delegated objects
  (``xf_``/``xm_``/``xv_`` and partition shards) are skipped — they
  are plan artifacts, not base tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.drift.ledger import DELEGATED_PREFIXES
from repro.feedback import qerror
from repro.feedback.fingerprint import (
    base_tables,
    fingerprint,
    scan_fingerprint,
    table_key,
)
from repro.feedback.store import Observation

#: Name prefixes of plan artifacts (never base tables): delegated
#: objects and unresolved placeholder scans.
_ARTIFACT_PREFIXES = DELEGATED_PREFIXES + ("__placeholder_",)


def is_delegated_name(table: str) -> bool:
    lowered = table.lower()
    if lowered.startswith(_ARTIFACT_PREFIXES):
        return True
    # Partition shards look like "<table>__p<i>"; their counts belong
    # to the shard, not the logical table the fingerprints use.
    base, sep, tail = lowered.rpartition("__p")
    return bool(sep) and bool(base) and tail.isdigit()


def harvest_tasks(dplan, result_rows: Optional[int]) -> List[Observation]:
    """Observations for every task boundary with a measured actual.

    A task derives its ``source_expr``'s fingerprint, locus and tables
    once and keeps them for as long as it keeps that expression: the
    runs of a kept plan share their tasks."""
    out: List[Observation] = []
    if dplan is None:
        return out
    for task in dplan.tasks.values():
        src = getattr(task, "source_expr", None)
        if src is None:
            continue
        if task.task_id == dplan.root_id:
            if result_rows is None:
                continue
            actual = float(result_rows)
        else:
            edge = dplan.out_edge(task)
            if edge is None or edge.moved_rows is None:
                continue
            actual = float(edge.moved_rows)
            if actual <= 0.0:
                # 0 is ambiguous: attribute_edge_stats writes (0, 0)
                # for edges no transfer record matched.  Don't learn
                # "this subtree is empty" from a bookkeeping gap.
                continue
        keys = task._memo.get("harvest")
        if keys is None or keys[0] is not src:
            keys = (src, fingerprint(src), qerror.locus_of(src), base_tables(src))
            task._memo["harvest"] = keys
        _, fp, locus, tables = keys
        out.append(
            Observation(
                fingerprint=fp,
                kind="task",
                locus=locus,
                tables=list(tables),
                estimated_rows=float(task.estimated_rows or 0.0),
                actual_rows=actual,
                label=f"task {task.task_id}@{task.annotation}",
            )
        )
    return out


def harvest_scans(exec_span, catalog) -> List[Observation]:
    """Observations for every base-table scan the engines executed."""
    if exec_span is None:
        return []
    best: Dict[str, Observation] = {}
    for span in exec_span.find_all(kind="operator"):
        name = span.name
        if not (name.startswith("SeqScan[") and name.endswith("]")):
            continue
        table = name[len("SeqScan[") : -1]
        db = str(span.attributes.get("db", "") or "")
        if not db or is_delegated_name(table):
            continue
        stats = catalog.stats_of(db, table)
        if stats is None:
            continue
        actual = float(span.attributes.get("rows_out", 0) or 0)
        obs = Observation(
            fingerprint=scan_fingerprint(db, table),
            kind="scan",
            locus=qerror.SCAN,
            tables=[table_key(db, table)],
            estimated_rows=float(stats.row_count),
            actual_rows=actual,
            label=f"{db}.{table}",
        )
        prior = best.get(obs.fingerprint)
        if prior is None or obs.actual_rows > prior.actual_rows:
            best[obs.fingerprint] = obs
    return list(best.values())


def harvest_execution(
    dplan, exec_span, catalog, result_rows: Optional[int]
) -> List[Observation]:
    """All feedback observations from one completed execution."""
    return harvest_tasks(dplan, result_rows) + harvest_scans(
        exec_span, catalog
    )
