"""Canonical span trees of XDB and the three baselines, pinned.

``tests/golden/traces.json`` holds one canonical trace per (system,
distribution, query): the TPC-H join queries Q3, Q5 and Q7–Q10 at sf
0.002 on TD1 and on TD3 with the Fig. 10 engine mix (``TD3-mixed``),
run through XDB with the left-deep and with the bushy plan shape,
Garlic, Presto(4w) and Sclera.  Each trace comes from a fresh deployment and a fresh client or
system, so no counter (temp-table names, delegation epochs) depends on
which traces ran before it.

Two sequences pin the cascades a client keeps, on TD1: one client
submits Q3 three times (the plan-memo miss, the hit that deploys the
cascade it keeps, the run on that cascade) and closes; a prepared Q3
handle under ``movement_policy="explicit"`` executes, sees a fixed
INSERT of new ``orders`` and ``lineitem`` rows, executes again and is
closed.  Each of their reports is pinned in turn, and so is what the
close left on the engines.

The canonical form keeps every span's name, kind and nesting, its
attributes, its ``sim_start`` / ``sim_end``, its events (name and
attributes) and its transfer records (src, dst, bytes, rows, tag), plus
a digest of the result rows.  It drops what is not a function of the
query: every ``wall_*`` attribute, operator ``exec_seconds`` and the
root's process-global query id (its name and its ``query_id``
attribute).  Floats are kept to 9 significant digits, so a last-place
difference in a float sum (``sum`` compensates from Python 3.12 on) is
not a change.

A change that means to move a trace re-records the file::

    PYTHONPATH=src python tests/test_golden_traces.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.baselines.garlic import GarlicSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem
from repro.bench.scenarios import HETEROGENEOUS_PROFILES, build_tpch_deployment
from repro.core.client import XDB
from repro.drift.ledger import DELEGATED_PREFIXES
from repro.workloads.tpch import query

GOLDEN = Path(__file__).parent / "golden" / "traces.json"
QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")
SCALE_FACTOR = 0.002
#: name -> (table distribution, vendor overrides)
CONFIGS = {
    "TD1": ("TD1", None),
    "TD3-mixed": ("TD3", HETEROGENEOUS_PROFILES),
}


def _xdb(shape):
    def run(deployment, sql):
        xdb = XDB(deployment, plan_shape=shape)
        xdb.warm_metadata()
        return xdb.submit(sql)

    return run


def _baseline(make):
    def run(deployment, sql):
        system = make(deployment)
        system.catalog.refresh()
        return system.run(sql)

    return run


#: system name -> run(deployment, sql) on a fresh client or system
SYSTEMS = {
    "XDB-left-deep": _xdb("left-deep"),
    "XDB-bushy": _xdb("bushy"),
    "Garlic": _baseline(GarlicSystem),
    "Presto(4w)": _baseline(lambda dep: PrestoSystem(dep, workers=4)),
    "Sclera": _baseline(ScleraSystem),
}


def _holder(deployment, table):
    return next(
        database
        for database in deployment.databases.values()
        if database.catalog.get(table) is not None
    )


#: A fixed write inside Q3's window: a BUILDING customer's new order and
#: its two lineitems, large enough to lead the top ten.  Customer 3 is
#: BUILDING at this module's scale factor (at sf 0.001 it is customer 6).
NEW_ROWS = {
    "orders": "INSERT INTO orders VALUES (900001, 3, 'O', 900000.0, "
    "DATE '1995-03-01', '1-URGENT', 'Clerk#000000001', 0, 'new order')",
    "lineitem": "INSERT INTO lineitem VALUES "
    + ", ".join(
        f"(900001, {line}, {line}, {line}, 10.0, {price}, 0.0, 0.0, 'N', "
        "'O', DATE '1995-04-01', DATE '1995-04-02', DATE '1995-04-03', "
        "'NONE', 'MAIL', 'new item')"
        for line, price in ((1, 400000.0), (2, 300000.0))
    ),
}


def _repeated_submits(deployment):
    """The miss, the deploying hit and the kept-cascade run, then close."""
    xdb = XDB(deployment)
    xdb.warm_metadata()
    reports = [xdb.submit(query("Q3")) for _ in range(3)]
    xdb.close()
    return reports


def _prepared_handle(deployment):
    """Prepare, execute, insert new rows, execute, close."""
    xdb = XDB(deployment, movement_policy="explicit")
    xdb.warm_metadata()
    handle = xdb.prepare(query("Q3"))
    reports = [handle.execute()]
    for table, sql in NEW_ROWS.items():
        _holder(deployment, table).execute(sql)
    reports.append(handle.execute())
    handle.close()
    # the refreshed snapshot reaches the answer
    assert reports[1].result.rows[0][0] == 900001
    return reports


#: (system, config, name) -> run(deployment): the reports of one
#: sequence of calls on one fresh client
SEQUENCES = {
    ("XDB-left-deep", "TD1", "Q3-submit-x3-close"): _repeated_submits,
    ("XDB-prepared-explicit", "TD1", "Q3-prepare-insert-close"): (
        _prepared_handle
    ),
}

CASES = [
    (system, config, name)
    for system in SYSTEMS
    for config in CONFIGS
    for name in QUERIES
] + list(SEQUENCES)


# -- canonical form --------------------------------------------------------


def _value(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _value(item) for key, item in value.items()}
    return str(value)


def _attributes(attributes, drop=()):
    return {
        key: _value(value)
        for key, value in attributes.items()
        if not key.startswith("wall_") and key not in drop
    }


def _span(span, root=False):
    drop = ("query_id",) if root else ()
    if span.kind == "operator":
        drop += ("exec_seconds",)
    return {
        "name": "<query>" if root else span.name,
        "kind": span.kind,
        "attributes": _attributes(span.attributes, drop),
        "sim": [_value(span.sim_start), _value(span.sim_end)],
        "events": [
            [event.name, _attributes(event.attributes)]
            for event in span.events
        ],
        "transfers": [
            [r.src, r.dst, r.payload_bytes, r.rows, r.tag]
            for r in span.records
        ],
        "children": [_span(child) for child in span.children],
    }


def _digest(result) -> str:
    text = json.dumps([_value(list(row)) for row in result.rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(report) -> dict:
    return {
        "rows": _digest(report.result),
        "span": _span(report.context.root, root=True),
    }


def _delegated_objects(deployment) -> list:
    return sorted(
        [db, name]
        for db, database in deployment.databases.items()
        for name in database.catalog.names()
        if name.lower().startswith(DELEGATED_PREFIXES)
    )


def trace(system: str, config: str, name: str) -> dict:
    """The canonical trace of one query, or of each report of one
    sequence plus the delegated objects it left, on a fresh
    deployment."""
    td, profiles = CONFIGS[config]
    deployment, _ = build_tpch_deployment(td, SCALE_FACTOR, profiles=profiles)
    sequence = SEQUENCES.get((system, config, name))
    if sequence is None:
        return _canonical(SYSTEMS[system](deployment, query(name)))
    return {
        "reports": [_canonical(report) for report in sequence(deployment)],
        "left": _delegated_objects(deployment),
    }


def _key(system: str, config: str, name: str) -> str:
    return f"{system}/{config}/{name}"


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record() -> None:
    """Write every case's trace, one per line."""
    lines = [
        f"{json.dumps(_key(*case))}:{_compact(trace(*case))}"
        for case in CASES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


# -- comparison ------------------------------------------------------------


def _first_divergence(golden, actual, path=""):
    """The first path at which ``actual`` differs from ``golden``, with
    both values there; None when they are equal."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        if "name" in golden and "children" in golden:
            path = f"{path}/{golden['name']}"
        for key in sorted(set(golden) | set(actual)):
            if key not in golden or key not in actual:
                return f"{path}: key {key!r} only in " + (
                    "golden" if key in golden else "actual"
                )
            found = _first_divergence(golden[key], actual[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(golden, list) and isinstance(actual, list):
        for index, (g, a) in enumerate(zip(golden, actual)):
            found = _first_divergence(g, a, f"{path}[{index}]")
            if found is not None:
                return found
        if len(golden) != len(actual):
            return f"{path}: {len(actual)} items, golden has {len(golden)}"
        return None
    if golden == actual and type(golden) is type(actual):
        return None
    return f"{path}: {actual!r} != golden {golden!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("system,config,name", CASES)
def test_trace_is_where_it_was(golden, system, config, name):
    key = _key(system, config, name)
    found = _first_divergence(golden[key], trace(system, config, name))
    assert found is None, f"{key} diverges at {found}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
