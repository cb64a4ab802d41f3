"""Executor microbenchmarks.

Measures rows/sec of :class:`repro.engine.database.Database` for the
core operator shapes (scan, filter, computed projection, hash join,
grouped aggregation) on synthetic fact/dim tables, and checks every
bench's cardinality against sqlite (:mod:`repro.fuzz.reference`) on
the same tables.  The hash join is measured in both FROM orders:
``fact, dim`` puts the small table on the right, ``dim, fact`` on the
left — the orientation a smallest-first join order produces and the
one a build-always-right executor loses on.

Standalone (unlike the ``bench_fig*`` pytest modules) so CI can gate on
it cheaply::

    python benchmarks/bench_executor.py                 # full scale
    python benchmarks/bench_executor.py --rows 60000 --check

``aggregate_pruned``, ``filter_selective`` and ``probe_selective``
consume a narrowing projection of ``fact`` directly.  A narrowing
projection is a position map its consumer reads through, so the
aggregation (a plain-column GROUP BY, which the row-tuple layout once
made slower than the zero-copy hybrid layout before it) builds no
narrowed tuple at all.  The filter and the probe keep 1 row in 100 and
build the narrowed tuple only for those rows, so both must outrun
``scan``, which builds one for every row.  The probe is one
comprehension that evaluates and looks up each row's key inline, so it
must outrun the scan by a wide margin.

Writes ``benchmarks/results/BENCH_executor.json``; ``--check`` exits
non-zero if a shape's rate falls below its floor (:data:`FLOORS`): the
flipped join below 0.8x the join's, ``filter_selective`` below 1.5x
the scan's, ``probe_selective`` below 2.5x the scan's (the two-pass
probe it replaced, key list then ``map(dict.get)`` then a zip, ran at
1.7-2.2x).  ``filter`` / ``scan`` (an AND, whose tests a filter joins
with ``&``) is printed and written under ``ratios`` but not gated: it
sits too close to 1x.  ``aggregate_case`` (a ``SUM`` over a CASE,
lowered inline like every expression) is recorded, not gated; it runs
last, so the gated shapes are timed as before it was added.  There is
no second executor to race any more: a kernel regression shows end to
end on the perf benchmark's ``exec_heavy`` workload, and per kernel in
its ``engine.kernel.*.rows_per_s`` metrics (``benchmarks/perf``).
"""

from __future__ import annotations

import argparse
import json
from contextlib import closing
import pathlib
import platform
import random
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.database import Database  # noqa: E402
from repro.fuzz.reference import Reference  # noqa: E402
from repro.obs.clock import wall_now  # noqa: E402
from repro.relational.schema import Field, Schema  # noqa: E402
from repro.sql.parser import parse_statement  # noqa: E402
from repro.sql.types import DOUBLE, INTEGER, varchar  # noqa: E402

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_executor.json"

#: name -> (sql, which table's row count the rows/sec rate is over)
BENCHES = {
    "scan": ("SELECT id, v FROM fact", "fact"),
    "filter": ("SELECT id FROM fact WHERE v > 50 AND did < 4000", "fact"),
    "project": ("SELECT id, v * (1 - w) AS net FROM fact", "fact"),
    "join": (
        "SELECT f.v, d.name FROM fact f, dim d WHERE f.did = d.id",
        "fact",
    ),
    "join_flipped": (
        "SELECT f.v, d.name FROM dim d, fact f WHERE f.did = d.id",
        "fact",
    ),
    "aggregate": (
        "SELECT g, SUM(v) AS s, COUNT(*) AS n, AVG(v) AS a "
        "FROM fact GROUP BY g",
        "fact",
    ),
    "aggregate_expr": (
        "SELECT g, SUM(v * (1 - w)) AS s FROM fact WHERE did < 4000 GROUP BY g",
        "fact",
    ),
    "aggregate_pruned": ("SELECT g, COUNT(*) AS n FROM fact GROUP BY g", "fact"),
    "filter_selective": ("SELECT id, v FROM fact WHERE did < 20", "fact"),
    "probe_selective": (
        "SELECT f.v, d.name FROM fact f, dim d WHERE f.did = d.id AND d.id < 20",
        "fact",
    ),
    "aggregate_case": (
        "SELECT g, SUM(CASE WHEN did < 4000 THEN v ELSE 0 END) AS s "
        "FROM fact GROUP BY g",
        "fact",
    ),
}

#: What --check requires: ``(shape, reference shape, floor)`` — the
#: shape's rate must reach ``floor`` times the reference's.
FLOORS = [
    # The same join, whichever side of the FROM list the small table is on.
    ("join_flipped", "join", 0.8),
    # Selective consumers of a narrowed scan build the narrow tuple only
    # for the rows they keep, so they outrun the scan that builds it for
    # every row.
    ("filter_selective", "scan", 1.5),
    # The fused probe: one comprehension, the lookup inline.
    ("probe_selective", "scan", 2.5),
]

#: Rate ratios that are recorded but not gated.
RECORDED = [("filter", "scan")]


def build_tables(fact_rows: int, dim_rows: int) -> list:
    """``(name, schema, rows)`` of the two synthetic tables."""
    rng = random.Random(7)
    fact = [
        (i, i % dim_rows, rng.random() * 100.0, "g%d" % (i % 50), rng.random())
        for i in range(fact_rows)
    ]
    dim = [(i, "name%d" % i) for i in range(dim_rows)]
    return [
        (
            "fact",
            Schema(
                [
                    Field("id", INTEGER),
                    Field("did", INTEGER),
                    Field("v", DOUBLE),
                    Field("g", varchar(8)),
                    Field("w", DOUBLE),
                ]
            ),
            fact,
        ),
        ("dim", Schema([Field("id", INTEGER), Field("name", varchar(16))]), dim),
    ]


def time_query(database: Database, sql: str, repeat: int):
    """Best-of-``repeat`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = wall_now()
        result = database.execute(sql)
        elapsed = wall_now() - start
        best = min(best, elapsed)
    return best, result


def run(fact_rows: int, dim_rows: int, repeat: int) -> dict:
    tables = build_tables(fact_rows, dim_rows)
    database = Database("BENCH")
    for table, schema, rows in tables:
        database.create_table(table, schema, rows)
    input_rows = {"fact": fact_rows, "dim": dim_rows}
    benches = {}
    with closing(Reference(tables)) as reference:
        for name, (sql, rate_table) in BENCHES.items():
            seconds, result = time_query(database, sql, repeat)
            want = len(reference.rows(parse_statement(sql), result.schema))
            if len(result.rows) != want:
                raise SystemExit(
                    f"{name}: {len(result.rows)} rows, sqlite returns {want}"
                )
            benches[name] = {
                "sql": sql,
                "seconds": round(seconds, 6),
                "rows_per_sec": round(input_rows[rate_table] / seconds),
                "rows_out": want,
            }
    return {
        "meta": {
            "fact_rows": fact_rows,
            "dim_rows": dim_rows,
            "repeat": repeat,
            "python": platform.python_version(),
        },
        "benches": benches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=200_000,
                        help="fact table rows (default 200000)")
    parser.add_argument("--dims", type=int, default=5_000,
                        help="dim table rows (default 5000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions; best is kept")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_PATH,
                        help="output JSON path")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a shape's rate is below its floor "
                             "(FLOORS)")
    args = parser.parse_args(argv)

    report = run(args.rows, args.dims, args.repeat)
    benches = report["benches"]
    ratios = {
        f"{shape}/{reference}": benches[shape]["rows_per_sec"]
        / benches[reference]["rows_per_sec"]
        for shape, reference, *_ in FLOORS + RECORDED
    }
    report["ratios"] = {key: round(ratio, 2) for key, ratio in ratios.items()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'bench':16s} {'seconds':>8s} {'rows/s':>10s} {'rows_out':>8s}")
    for name, entry in benches.items():
        print(
            f"{name:16s} {entry['seconds']:8.3f} "
            f"{entry['rows_per_sec']:10d} {entry['rows_out']:8d}"
        )
    failed = False
    for shape, reference, floor in FLOORS:
        ratio = ratios[f"{shape}/{reference}"]
        print(f"{shape} / {reference} rate: {ratio:.2f}x (floor {floor}x)")
        failed = failed or ratio < floor
    for shape, reference in RECORDED:
        ratio = ratios[f"{shape}/{reference}"]
        print(f"{shape} / {reference} rate: {ratio:.2f}x (not gated)")
    print(f"wrote {args.out}")
    if args.check and failed:
        print("FAIL: a shape runs below its floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
