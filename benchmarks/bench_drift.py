"""Drift chaos benchmark — schema drift + outages over a TPC-H workload.

Drives one XDB client through a seeded TPC-H query stream while a
:class:`repro.drift.DriftSchedule` mutates the live schemas between
submissions (four drift kinds at a 10% per-gap rate; the workload's
referenced columns are protected so every drift is *recoverable*).
Every fifth submission is a ``SELECT *`` schema probe, which is where
stale plans actually collide with drifted tables and exercise the
re-introspect → invalidate → replan recovery path.  Two mid-cascade
outage windows leak delegated objects into the ledger, and one
crashed-client orphan is planted directly, so the epoch-fenced reaper
has real debt to pay down.

Standalone (like ``bench_overload.py``) so CI can gate on it cheaply::

    python benchmarks/bench_drift.py                  # default seed
    python benchmarks/bench_drift.py --seed 7 --check

Writes ``benchmarks/results/BENCH_drift.json`` with availability,
recovery-latency, and orphan-count-over-time curves; ``--check`` exits
non-zero if availability or the drift-recovery success ratio falls
below 0.9, no drift was ever absorbed, or the final ``XDB.reap()``
leaves orphans on the (healthy) engines.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.scenarios import build_tpch_deployment  # noqa: E402
from repro.core.client import XDB  # noqa: E402
from repro.drift import DriftSchedule  # noqa: E402
from repro.drift.ledger import DELEGATED_PREFIXES  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.faults import EngineOutage, FaultInjector, FaultPolicy  # noqa: E402
from repro.relational.schema import Field, Schema  # noqa: E402
from repro.sql.types import INTEGER  # noqa: E402
from repro.workloads.tpch import QUERIES, query  # noqa: E402

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_drift.json"
)

#: per-gap drift probability (the issue's 10% rate)
DRIFT_RATE = 0.10
#: micro scale factor — drift chaos measures control flow, not data
SCALE_FACTOR = 0.001
#: every Nth submission is a SELECT * schema probe (stale plans meet
#: drifted schemas here; the TPC-H queries' columns are protected)
PROBE_EVERY = 5
#: submissions whose exec phase runs under a mid-cascade outage window
#: (index -> struck DBMS); these leak delegated objects for the reaper
OUTAGE_AT = {20: "db2", 40: "db3"}


def protected_columns(sqls) -> set:
    """Every identifier-ish token the workload references.

    Over-approximating (keywords, aliases) is fine: protecting a name
    only removes it from the drop/rename candidate pool, and the
    schedule still drifts freely via add/widen and the unreferenced
    columns.
    """
    tokens = set()
    for sql in sqls:
        tokens.update(re.findall(r"[a-z_][a-z0-9_]*", sql.lower()))
    return tokens


def base_tables(deployment):
    """(db, table) pairs of every stored base table."""
    out = []
    for db_name in sorted(deployment.databases):
        for table in deployment.database(db_name).catalog.tables():
            if not table.name.lower().startswith(DELEGATED_PREFIXES):
                out.append((db_name, table.name))
    return out


def orphan_count(xdb) -> int:
    return sum(len(held) for held in xdb.reaper.audit().values())


def run_chaos(seed: int, submissions: int) -> dict:
    deployment, _ = build_tpch_deployment("TD1", SCALE_FACTOR)
    xdb = XDB(deployment)
    xdb.warm_metadata()

    workload = sorted(QUERIES, key=lambda name: int(name[1:]))
    schedule = DriftSchedule(
        deployment,
        seed=seed,
        rate=DRIFT_RATE,
        protected_columns=protected_columns(
            query(name) for name in workload
        ),
    )
    probes = base_tables(deployment)

    # One crashed predecessor's leftover: on the engine, in the ledger,
    # leaked, and from an epoch that is not (and never will be) live.
    planted = ("db1", "xm_900_crashed")
    deployment.database(planted[0]).create_table(
        planted[1], Schema([Field("x", INTEGER)]), [(1,)]
    )
    xdb.ledger.record(planted[0], "TABLE", planted[1], epoch=900)
    xdb.ledger.mark_leaked(planted[0], planted[1])

    timeline = []
    drifts_applied = 0
    for index in range(submissions):
        drift = schedule.maybe_drift()
        if drift is not None:
            drifts_applied += 1
        if index % PROBE_EVERY == PROBE_EVERY - 1:
            db, table = probes[(index // PROBE_EVERY) % len(probes)]
            sql = f"SELECT * FROM {table}"
            name = f"probe:{table}"
        else:
            name = workload[index % len(workload)]
            sql = query(name)

        injector = None
        if index in OUTAGE_AT:
            injector = FaultInjector(
                FaultPolicy(
                    outages=(
                        EngineOutage(db=OUTAGE_AT[index], after_calls=2),
                    )
                )
            ).install(deployment)
        record = {
            "index": index,
            "query": name,
            "drift": (
                f"{drift.kind} {drift.db}.{drift.table}.{drift.column}"
                if drift is not None
                else None
            ),
        }
        try:
            report = xdb.submit(sql)
        except ReproError as exc:
            record["outcome"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["outcome"] = "ok"
            record["rows"] = len(report.result)
            record["drift_events"] = report.recovery.drift_events
            record["quarantined"] = len(report.recovery.quarantined)
            if report.recovery.drifted:
                record["recovery_seconds"] = report.recovery.repair_seconds
            record["leaked_objects"] = report.resilience.leaked_objects
        finally:
            if injector is not None:
                injector.uninstall()
                # The engine is back: the next half-open probe succeeds
                # and (via the recovery listener) schedules the
                # deferred orphan sweep on a later submission.
                deployment.health.record_success(OUTAGE_AT[index])
        record["orphans_held"] = orphan_count(xdb)
        timeline.append(record)

    orphans_before_reap = orphan_count(xdb)
    reap = xdb.reap()
    orphans_after_reap = orphan_count(xdb)

    ok = [r for r in timeline if r["outcome"] == "ok"]
    absorbed = [r for r in ok if r.get("drift_events")]
    drift_failures = [
        r
        for r in timeline
        if r["outcome"] == "error" and r["index"] not in OUTAGE_AT
    ]
    detections = len(absorbed) + len(drift_failures)
    recovery_latencies = sorted(
        r["recovery_seconds"] for r in absorbed
    )
    return {
        "submissions": len(timeline),
        "ok": len(ok),
        "availability": len(ok) / len(timeline) if timeline else 0.0,
        "drifts_applied": drifts_applied,
        "drifts_absorbed": sum(r.get("drift_events", 0) for r in ok),
        "drift_detections": detections,
        "recovery_success_ratio": (
            len(absorbed) / detections if detections else 1.0
        ),
        "recovery_latency_seconds": {
            "mean": (
                sum(recovery_latencies) / len(recovery_latencies)
                if recovery_latencies
                else 0.0
            ),
            "max": recovery_latencies[-1] if recovery_latencies else 0.0,
        },
        "outage_submissions": sorted(OUTAGE_AT),
        "error_samples": [
            r["error"] for r in timeline if r["outcome"] == "error"
        ][:5],
        "orphans_before_reap": orphans_before_reap,
        "orphans_after_reap": orphans_after_reap,
        "reap": {
            "dropped": len(reap.dropped),
            "kept_live": len(reap.kept_live),
            "failed": len(reap.failed),
            "unreachable": sorted(reap.unreachable),
            "reconciled": len(reap.reconciled),
        },
        "leaked_outstanding": xdb.ledger.leaked_count(),
        "timeline": timeline,
    }


def check(report: dict) -> list:
    """The regression gate; returns a list of violation strings."""
    run = report["run"]
    problems = []
    if run["availability"] < 0.90:
        problems.append(
            f"availability {run['availability']:.3f} < 0.90"
        )
    if run["recovery_success_ratio"] < 0.90:
        problems.append(
            f"drift-recovery success ratio "
            f"{run['recovery_success_ratio']:.3f} < 0.90"
        )
    if run["drifts_applied"] == 0:
        problems.append("the seeded schedule never applied a drift")
    if run["drifts_absorbed"] == 0:
        problems.append("no drift was ever detected and absorbed")
    if run["orphans_after_reap"] != 0:
        problems.append(
            f"{run['orphans_after_reap']} orphan(s) survived the final "
            "reap on healthy engines"
        )
    if run["reap"]["unreachable"]:
        problems.append(
            f"final reap could not reach {run['reap']['unreachable']}"
        )
    if run["leaked_outstanding"] != 0:
        problems.append(
            f"{run['leaked_outstanding']} ledger entr(ies) still "
            "leaked after the final reap"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11,
                        help="drift-schedule seed (default 11)")
    parser.add_argument("--submissions", type=int, default=60,
                        help="total query submissions (default 60)")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_PATH,
                        help=f"output JSON path (default {RESULTS_PATH})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on gate violations")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "drift-chaos",
        "seed": args.seed,
        "python": platform.python_version(),
        "config": {
            "scale_factor": SCALE_FACTOR,
            "drift_rate": DRIFT_RATE,
            "probe_every": PROBE_EVERY,
            "outage_at": {
                str(k): v for k, v in sorted(OUTAGE_AT.items())
            },
            "submissions": args.submissions,
        },
        "run": run_chaos(args.seed, args.submissions),
    }

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    run = report["run"]
    print(
        f"availability {run['availability']:.3f} "
        f"({run['ok']}/{run['submissions']}), "
        f"{run['drifts_applied']} drift(s) applied, "
        f"{run['drifts_absorbed']} absorbed, "
        f"recovery success {run['recovery_success_ratio']:.3f}, "
        f"mean recovery "
        f"{run['recovery_latency_seconds']['mean']:.3f}s"
    )
    print(
        f"orphans: {run['orphans_before_reap']} before reap, "
        f"{run['orphans_after_reap']} after "
        f"({run['reap']['dropped']} dropped, "
        f"{run['reap']['reconciled']} reconciled); "
        f"leaked outstanding {run['leaked_outstanding']}"
    )
    if args.check:
        problems = check(report)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
