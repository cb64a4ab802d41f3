"""Partial-chaos benchmark — task-level fault domains under load.

Two seeded scenarios over a hash-partitioned four-engine federation,
both judged against stdlib sqlite holding the unpartitioned table
(:class:`repro.fuzz.reference.Reference`):

1. **Branch failover**: a per-submission single-shard outage strikes
   the shard's primary holder while every shard has a replica.  The
   repair must stay *branch-local*: availability 1.0 with zero
   whole-query ``repair_attempts`` — only ``branch_repairs`` — and
   completed sibling snapshots pinned (reused), never recomputed.
2. **Partial results**: a shard with no replica dies; a
   ``completeness_floor`` submission must return a row-subset of the
   fault-free oracle with completeness exactly the missing shards'
   row-weighted fraction.

Standalone (like ``bench_drift.py``) so CI can gate on it cheaply::

    python benchmarks/bench_partial.py                  # default seed
    python benchmarks/bench_partial.py --seed 7 --check

Writes ``benchmarks/results/BENCH_partial.json``; ``--check`` exits
non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
from contextlib import closing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.client import XDB  # noqa: E402
from repro.core.partition import partition_name  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.faults import (  # noqa: E402
    EngineOutage,
    FaultInjector,
    FaultPolicy,
)
from repro.federation.deployment import Deployment  # noqa: E402
from repro.fuzz.reference import Reference, same_rows  # noqa: E402
from repro.qos import QoSPolicy  # noqa: E402
from repro.relational.schema import Field, Schema  # noqa: E402
from repro.sql.parser import parse_statement  # noqa: E402
from repro.sql.types import DOUBLE, INTEGER  # noqa: E402

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_partial.json"
)

DBS = ["p1", "p2", "p3", "p4"]

ORDERS = Schema(
    [
        Field("o_orderkey", INTEGER),
        Field("o_custkey", INTEGER),
        Field("o_total", DOUBLE),
    ]
)
ORDERS_ROWS = [(i, i % 10, float(i * 7 % 90)) for i in range(120)]

AGG_SQL = """
    SELECT o_custkey, SUM(o_total) AS total
    FROM orders
    GROUP BY o_custkey
    ORDER BY total DESC, o_custkey
"""

SCAN_SQL = "SELECT o_orderkey, o_custkey FROM orders ORDER BY o_orderkey"


def build_sharded(replicated: bool) -> Deployment:
    """orders hash-sharded over four engines; optionally every shard
    also replicated onto the next engine (a healthy failover target)."""
    dep = Deployment(
        {name: "postgres" for name in DBS}, parallel_workers=2
    )
    dep.load_table("p1", "orders", ORDERS, ORDERS_ROWS)
    dep.partition_table("orders", "o_orderkey", DBS)
    if replicated:
        for index in range(len(DBS)):
            dep.replicate_table(
                partition_name("orders", index),
                DBS[(index + 1) % len(DBS)],
            )
    return dep


def oracle_rows(sql: str, schema: Schema):
    """sqlite's answer to ``sql`` over the unpartitioned table;
    ``schema`` is the engine's result schema."""
    with closing(Reference([("orders", ORDERS, ORDERS_ROWS)])) as reference:
        return reference.rows(parse_statement(sql), schema)


# -- scenario 1: branch-local failover ------------------------------------


def run_failover(seed: int, submissions: int) -> dict:
    rng = random.Random(seed)
    dep = build_sharded(replicated=True)
    xdb = XDB(dep, movement_policy="explicit")
    xdb.warm_metadata()
    baseline = xdb.submit(AGG_SQL)
    truth = oracle_rows(AGG_SQL, baseline.result.schema)

    timeline = []
    ok = 0
    repair_attempts = 0
    branch_repairs = 0
    pinned_total = 0
    placement = dict(baseline.recovery.placement)
    for index in range(submissions):
        shard_index = rng.randrange(len(DBS))
        shard = partition_name("orders", shard_index)
        holder = placement.get(shard, DBS[shard_index])
        injector = FaultInjector(
            FaultPolicy(outages=(EngineOutage(db=holder, table=shard),))
        ).install(dep)
        record = {"index": index, "shard": shard, "holder": holder}
        try:
            report = xdb.submit(AGG_SQL)
        except ReproError as exc:
            record["outcome"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            ok += 1
            recovery = report.recovery
            record["outcome"] = "ok"
            record["correct"] = same_rows(report.result.rows, truth)
            record["repair_attempts"] = recovery.repair_attempts
            record["branch_repairs"] = recovery.branch_repairs
            record["pinned_tasks"] = len(recovery.pinned_tasks)
            record["events"] = [
                list(event) for event in recovery.branch_events
            ]
            repair_attempts += recovery.repair_attempts
            branch_repairs += recovery.branch_repairs
            pinned_total += len(recovery.pinned_tasks)
            placement = dict(recovery.placement)
        finally:
            injector.uninstall()
            # The disk behind the shard is back: fresh truth re-admits
            # the struck holder (clears its quarantine), so the next
            # seeded outage exercises a fresh branch repair.
            xdb.catalog.reintrospect(holder, shard)
        timeline.append(record)
    return {
        "submissions": submissions,
        "ok": ok,
        "availability": ok / submissions if submissions else 0.0,
        "correct": all(
            r.get("correct", False)
            for r in timeline
            if r["outcome"] == "ok"
        ),
        "repair_attempts": repair_attempts,
        "branch_repairs": branch_repairs,
        "pinned_tasks": pinned_total,
        "breakers_open": sorted(
            db for db in DBS if dep.health.is_open(db)
        ),
        "shard_outages_seen": len(dep.health.shard_outages),
        "timeline": timeline,
    }


# -- scenario 2: policy-bounded partial results ---------------------------


def run_partial(seed: int) -> dict:
    rng = random.Random(seed * 104729)
    dep = build_sharded(replicated=False)
    xdb = XDB(dep)
    xdb.warm_metadata()

    shard_index = rng.randrange(len(DBS))
    shard = partition_name("orders", shard_index)
    holder = DBS[shard_index]
    lost = xdb.catalog.stats_of(holder, shard).row_count
    expected = (len(ORDERS_ROWS) - lost) / len(ORDERS_ROWS)

    with FaultInjector(
        FaultPolicy(outages=(EngineOutage(db=holder, table=shard),))
    ).install(dep):
        report = xdb.submit(
            SCAN_SQL,
            qos=QoSPolicy(completeness_floor=0.0),
        )
    truth = {tuple(r) for r in oracle_rows(SCAN_SQL, report.result.schema)}
    got = {tuple(r) for r in report.result.rows}
    recovery = report.recovery
    return {
        "shard": shard,
        "holder": holder,
        "oracle_rows": len(truth),
        "partial_rows": len(got),
        "subset": got < truth,
        "partial": recovery.partial,
        "completeness": recovery.completeness,
        "expected_completeness": expected,
        "missing_partitions": list(recovery.missing_partitions),
        "repair_attempts": recovery.repair_attempts,
        "breaker_open": dep.health.is_open(holder),
    }


# -- gates ----------------------------------------------------------------


def check(report: dict) -> list:
    problems = []
    failover = report["failover"]
    if failover["availability"] != 1.0:
        problems.append(
            f"failover availability {failover['availability']:.3f} != 1.0"
        )
    if not failover["correct"]:
        problems.append("a failover submission returned wrong rows")
    if failover["repair_attempts"] != 0:
        problems.append(
            f"{failover['repair_attempts']} whole-query repair(s) — "
            "branch failover must stay branch-local"
        )
    if failover["branch_repairs"] == 0:
        problems.append("the seeded outages never exercised a branch repair")
    if failover["pinned_tasks"] == 0:
        problems.append("no completed sibling snapshot was ever pinned")
    if failover["breakers_open"]:
        problems.append(
            f"shard faults tripped engine breakers: "
            f"{failover['breakers_open']}"
        )
    partial = report["partial"]
    if not partial["subset"]:
        problems.append(
            "the partial answer is not a strict row-subset of the oracle"
        )
    if not partial["partial"]:
        problems.append("the partial degrade was not reported as partial")
    if abs(partial["completeness"] - partial["expected_completeness"]) > 1e-9:
        problems.append(
            f"completeness {partial['completeness']:.4f} != missing-shard "
            f"fraction {partial['expected_completeness']:.4f}"
        )
    if partial["repair_attempts"] != 0:
        problems.append(
            "the partial degrade consumed whole-query repair budget"
        )
    if partial["breaker_open"]:
        problems.append("the shard fault tripped the engine breaker")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11,
                        help="scenario seed (default 11)")
    parser.add_argument("--submissions", type=int, default=8,
                        help="failover submissions (default 8)")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_PATH,
                        help=f"output JSON path (default {RESULTS_PATH})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on gate violations")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "partial-chaos",
        "seed": args.seed,
        "python": platform.python_version(),
        "config": {
            "submissions": args.submissions,
            "rows": len(ORDERS_ROWS),
            "engines": DBS,
        },
        "failover": run_failover(args.seed, args.submissions),
        "partial": run_partial(args.seed),
    }

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    failover, partial = report["failover"], report["partial"]
    print(
        f"failover: availability {failover['availability']:.3f}, "
        f"{failover['branch_repairs']} branch repair(s), "
        f"{failover['repair_attempts']} query repair(s), "
        f"{failover['pinned_tasks']} sibling snapshot(s) pinned"
    )
    print(
        f"partial: {partial['partial_rows']}/{partial['oracle_rows']} rows, "
        f"completeness {partial['completeness']:.3f} "
        f"(expected {partial['expected_completeness']:.3f}), "
        f"missing {partial['missing_partitions']}"
    )
    if args.check:
        problems = check(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
