"""Greedy spec shrinking: minimize a failing case before saving it.

Shrinking works on the JSON spec, not the AST: each candidate move
produces a strictly smaller spec (measured by its JSON encoding), and
a move is kept only if the shrunk case still fails.  Strict-decrease
plus a bounded move set guarantees termination.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List


def _size(spec: Dict[str, object]) -> int:
    return len(json.dumps(spec, sort_keys=True, ensure_ascii=False))


def _simpler_strings(value: str) -> List[str]:
    """Candidate replacements for a string, simplest first."""
    candidates = []
    if value != "t":
        candidates.append("t")
    if len(value) > 1:
        candidates.append(value[: len(value) // 2])
        candidates.append(value[len(value) // 2:])
    return candidates


def _candidates(spec: Dict[str, object]) -> Iterator[Dict[str, object]]:
    """Strictly-smaller variants of ``spec``, most aggressive first."""
    for key in ("name", "server", "remote_object", "table", "source"):
        value = spec.get(key)
        if isinstance(value, str):
            for simpler in _simpler_strings(value):
                yield {**spec, key: simpler}
    columns = spec.get("columns")
    if isinstance(columns, list) and columns:
        if len(columns) > 1:
            for index in range(len(columns)):
                kept = columns[:index] + columns[index + 1 :]
                out = {**spec, "columns": kept}
                if spec.get("kind") == "insert" and spec.get("values"):
                    out["values"] = [
                        row[:index] + row[index + 1 :]
                        for row in spec["values"]
                    ]
                yield out
        # Statement columns are [name, type] pairs; INSERT columns are
        # bare names.
        for index, column in enumerate(columns):
            if isinstance(column, list):
                for simpler in _simpler_strings(column[0]):
                    kept = list(columns)
                    kept[index] = [simpler, column[1]]
                    yield {**spec, "columns": kept}
                if column[1] != ["INTEGER"]:
                    kept = list(columns)
                    kept[index] = [column[0], ["INTEGER"]]
                    yield {**spec, "columns": kept}
            elif isinstance(column, str):
                for simpler in _simpler_strings(column):
                    kept = list(columns)
                    kept[index] = simpler
                    yield {**spec, "columns": kept}
    values = spec.get("values")
    if isinstance(values, list):
        if len(values) > 1:
            for index in range(len(values)):
                yield {
                    **spec,
                    "values": values[:index] + values[index + 1 :],
                }
        for row_index, row in enumerate(values):
            for col_index, value in enumerate(row):
                for simpler in _simpler_values(value):
                    rows = [list(r) for r in values]
                    rows[row_index][col_index] = simpler
                    yield {**spec, "values": rows}
    if spec.get("kind") == "query":
        for key, neutral in (
            ("where", None),
            ("join", False),
            ("distinct", False),
            ("order", False),
            ("limit", None),
        ):
            if spec.get(key) not in (neutral, None, False):
                yield {**spec, key: neutral}
        select = spec.get("select")
        if isinstance(select, list) and len(select) > 1:
            yield {**spec, "select": select[:1]}
        where = spec.get("where")
        if isinstance(where, list) and isinstance(where[2], str):
            for simpler in _simpler_strings(where[2]):
                yield {**spec, "where": [where[0], where[1], simpler]}
    if spec.get("kind") == "pushdown":
        if spec.get("where_value") is not None:
            yield {**spec, "where_value": None}
        if spec.get("project_all"):
            yield {**spec, "project_all": False}
    if spec.get("kind") == "memo":
        steps = spec["steps"]
        for index in range(len(steps)):
            yield {**spec, "steps": steps[:index] + steps[index + 1 :]}
    if spec.get("kind") == "partition":
        if spec.get("co_partition"):
            yield {**spec, "co_partition": False}
        if spec.get("scheme") != "hash":
            yield {**spec, "scheme": "hash", "bounds": []}
        if int(spec.get("partitions", 2)) > 2:
            count = int(spec["partitions"]) - 1
            bounds = spec.get("bounds") or []
            yield {
                **spec,
                "partitions": count,
                "bounds": bounds[: count - 1],
            }
        inner = spec.get("query")
        if isinstance(inner, dict):
            for shrunk in _candidates(inner):
                yield {**spec, "query": shrunk}


def _simpler_values(value) -> List[object]:
    if isinstance(value, str):
        return _simpler_strings(value)
    if isinstance(value, bool) or value is None:
        return []
    if isinstance(value, (int, float)) and value != 0:
        return [0]
    return []


def shrink_case(
    spec: Dict[str, object], still_fails, max_steps: int = 400
) -> Dict[str, object]:
    """Greedily minimize ``spec`` while ``still_fails(spec)`` holds."""
    current = spec
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(current):
            steps += 1
            if steps >= max_steps:
                break
            if _size(candidate) >= _size(current):
                continue
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current
