"""Partition scaling benchmark — intra-query parallelism over TPC-H.

Runs Q3, Q8, and Q9 against a four-engine federation whose fact tables
(``orders`` and ``lineitem``) are hash-partitioned on the order key at
1, 4, and 16 partitions, with every dimension replicated to every
engine so each shard's join fragment stays in-situ.  Every
configuration's answer is judged by stdlib sqlite over the generated
tables (:class:`repro.fuzz.reference.Reference`).  Per configuration it
records two clocks:

* **simulated schedule seconds** — the decentralized-execution model
  with per-engine worker slots, where co-partitioned branch tasks
  overlap across engines;
* **derived pool seconds** — the measured wall seconds of every
  ``branch-N`` span (the gathering engine runs its branches one after
  another), folded into a K-wide wall clock with LPT list scheduling
  (:func:`makespan`).  A derived makespan, not a measured overlap.

Standalone (like ``bench_drift.py``) so CI can gate on it cheaply::

    python benchmarks/bench_partition.py
    python benchmarks/bench_partition.py --check

Writes ``benchmarks/results/BENCH_partition.json``; ``--check`` exits
non-zero unless every query shows >= 2x speedup at 4 partitions on
*both* clocks, co-partitioned joins move zero cross-shard bytes, and
every configuration returns sqlite's rows.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
from contextlib import closing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.scenarios import build_tpch_deployment  # noqa: E402
from repro.core.client import XDB  # noqa: E402
from repro.core.partition import cross_shard_bytes  # noqa: E402
from repro.engine.parallel import makespan  # noqa: E402
from repro.fuzz.reference import Reference, same_rows  # noqa: E402
from repro.sql.parser import parse_statement  # noqa: E402
from repro.workloads.tpch import query  # noqa: E402

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_partition.json"
)

#: scale factor — large enough that per-shard scan/join work dominates
#: the fixed per-task costs the speedup has to amortize
SCALE_FACTOR = 0.05
QUERY_NAMES = ("Q3", "Q8", "Q9")
PARTITION_COUNTS = (1, 4, 16)
#: per-engine worker slots for the partitioned configurations
WORKERS = 4
#: the speedup floor --check enforces at 4 partitions, on both clocks
SPEEDUP_FLOOR = 2.0

#: everything that is not a partitioned fact table gets replicated to
#: every engine, so branch joins never leave their shard
DIMENSIONS = (
    "customer", "part", "supplier", "partsupp", "nation", "region",
)


def build_sharded(partitions: int, scale_factor: float):
    """TD1 data, dimensions replicated everywhere, facts partitioned;
    returns ``(deployment, workers, data)``."""
    deployment, data = build_tpch_deployment("TD1", scale_factor)
    dbs = sorted(deployment.databases)
    for table in DIMENSIONS:
        holders = [
            db for db in dbs
            if deployment.database(db).catalog.get(table) is not None
        ]
        for db in dbs:
            if db not in holders:
                deployment.replicate_table(table, db, from_db=holders[0])
    if partitions > 1:
        by_db = [dbs[i % len(dbs)] for i in range(partitions)]
        deployment.partition_table("orders", "o_orderkey", by_db)
        deployment.partition_table("lineitem", "l_orderkey", by_db)
    workers = WORKERS if partitions > 1 else 1
    deployment.parallel_workers = workers
    return deployment, workers, data


def branch_seconds(report) -> list:
    """Measured wall seconds of every ``branch-N`` span."""
    return [
        span.wall_seconds
        for span in report.context.tracer.root.find_all(kind="parallel")
    ]


def oracle_rows(data, sql: str, schema) -> list:
    """sqlite's answer to ``sql`` over the generated tables; ``schema``
    is the engine's result schema."""
    tables = (
        (table, table_schema, rows)
        for table, (table_schema, rows) in data.tables.items()
    )
    with closing(Reference(tables)) as reference:
        return reference.rows(parse_statement(sql), schema)


def run_scaling(scale_factor: float) -> dict:
    queries = {}
    for name in QUERY_NAMES:
        sql = query(name)
        configs = []
        truth = None
        for partitions in PARTITION_COUNTS:
            deployment, workers, data = build_sharded(partitions, scale_factor)
            xdb = XDB(deployment)
            xdb.warm_metadata()
            report = xdb.submit(sql)

            if truth is None:
                truth = oracle_rows(data, sql, report.result.schema)
            busy = branch_seconds(report)
            serial = sum(busy)
            pool = makespan(busy, workers)
            configs.append(
                {
                    "partitions": partitions,
                    "workers": workers,
                    "tasks": len(report.plan.tasks),
                    "rows": len(report.result),
                    "oracle_rows": len(truth),
                    "matches_oracle": same_rows(report.result.rows, truth),
                    "sim_exec_seconds": report.schedule.execution_seconds,
                    "sim_total_seconds": report.schedule.total_seconds,
                    "cross_shard_bytes": cross_shard_bytes(report.plan),
                    "transfer_bytes": report.transfers.total_bytes,
                    "pool": {
                        "branches": len(busy),
                        "serial_seconds": serial,
                        "pool_seconds": pool,
                        "speedup": serial / pool if pool else None,
                    },
                }
            )

        by_count = {c["partitions"]: c for c in configs}
        base = by_count[PARTITION_COUNTS[0]]

        def sim_speedup(partitions):
            sim = by_count[partitions]["sim_exec_seconds"]
            return base["sim_exec_seconds"] / sim if sim else None

        queries[name] = {
            "configs": configs,
            "sim_speedup_at_4": sim_speedup(4),
            "sim_speedup_at_16": sim_speedup(16),
            "pool_speedup_at_4": by_count[4]["pool"]["speedup"],
            "pool_speedup_at_16": by_count[16]["pool"]["speedup"],
        }
    return queries


def check(report: dict) -> list:
    """The regression gate; returns a list of violation strings."""
    problems = []
    for name, run in report["queries"].items():
        for metric in ("sim_speedup_at_4", "pool_speedup_at_4"):
            value = run[metric]
            if value is None or value < SPEEDUP_FLOOR:
                problems.append(
                    f"{name}: {metric} "
                    f"{'missing' if value is None else f'{value:.2f}'} "
                    f"< {SPEEDUP_FLOOR:.1f}"
                )
        for config in run["configs"]:
            label = f"{name}@{config['partitions']}"
            if config["cross_shard_bytes"] != 0:
                problems.append(
                    f"{label}: co-partitioned join moved "
                    f"{config['cross_shard_bytes']} cross-shard byte(s)"
                )
            if not config["matches_oracle"]:
                problems.append(f"{label}: rows diverge from sqlite's")
            if config["partitions"] > 1 and not config["pool"]["branches"]:
                problems.append(f"{label}: no gather branches were traced")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale-factor", type=float, default=SCALE_FACTOR,
        help=f"TPC-H scale factor (default {SCALE_FACTOR})",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=RESULTS_PATH,
        help=f"output JSON path (default {RESULTS_PATH})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on gate violations",
    )
    args = parser.parse_args(argv)

    report = {
        "benchmark": "partition-scaling",
        "python": platform.python_version(),
        "config": {
            "scale_factor": args.scale_factor,
            "queries": list(QUERY_NAMES),
            "partition_counts": list(PARTITION_COUNTS),
            "workers": WORKERS,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        "queries": run_scaling(args.scale_factor),
    }

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, run in report["queries"].items():
        print(
            f"{name}: sim x{run['sim_speedup_at_4']:.2f} @4 "
            f"(x{run['sim_speedup_at_16']:.2f} @16), "
            f"pool x{run['pool_speedup_at_4']:.2f} @4 "
            f"(x{run['pool_speedup_at_16']:.2f} @16), "
            "cross-shard bytes "
            f"{[c['cross_shard_bytes'] for c in run['configs']]}"
        )
    if args.check:
        problems = check(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
