"""Overload benchmark — admission control and deadlines under load.

Drives one shared two-engine federation with N XDB clients at 1x / 4x /
16x its admission capacity, with 5% injected transient faults at a
fixed seed.  One thread submits for every client: the client whose
simulated clock is earliest goes next (ties in priority order), and a
shed client waits out its ``retry_after_seconds`` hint on its own
clock.  Every query carries a :class:`repro.qos.QoSPolicy` (deadline +
priority); the workload gate queues and sheds on the simulated clock
while each query's retries, backoff, and queue waits draw down its own
deadline budget.  The same seed writes byte-identical JSON.

Standalone (like ``bench_executor.py``) so CI can gate on it cheaply::

    python benchmarks/bench_overload.py                  # default seed
    python benchmarks/bench_overload.py --seed 7 --check

Writes ``benchmarks/results/BENCH_overload.json``; ``--check`` exits
non-zero if any query died on an unhandled error, any short-lived
catalog object is left once every client has closed, an admitted query neither met its deadline nor
returned a structured DeadlineExceeded, or the shed ratios fall
outside their bounds (none at 1x, substantial shedding at 16x).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.connect.connector import RetryPolicy  # noqa: E402
from repro.core.client import XDB  # noqa: E402
from repro.drift.ledger import DELEGATED_PREFIXES  # noqa: E402
from repro.errors import DeadlineExceeded, OverloadError  # noqa: E402
from repro.faults import FaultInjector, FaultPolicy  # noqa: E402
from repro.federation.deployment import Deployment  # noqa: E402
from repro.qos import (  # noqa: E402
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    GateConfig,
    QoSPolicy,
)
from repro.relational.schema import Field, Schema  # noqa: E402
from repro.sql.types import INTEGER, varchar  # noqa: E402

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_overload.json"
)

QUERY = (
    "SELECT u.name, COUNT(*) AS n FROM users u, events e "
    "WHERE u.id = e.user_id GROUP BY u.name"
)

#: per-engine concurrency tokens; offered load multiplies the total
MAX_CONCURRENT = 2
#: bounded waiting room per engine — beyond this the gate sheds
MAX_QUEUE = 4
#: per-query deadline / per-call cap (deadline seconds)
DEADLINE_SECONDS = 20.0
PER_CALL_CAP_SECONDS = 10.0
#: transient fault rate on every engine (the 5% of the gate's spec)
FAULT_RATE = 0.05
#: retry attempts per guarded call — at 5% faults the chance of a
#: spurious give-up is rate**attempts ~ 1.6e-8 per call
MAX_ATTEMPTS = 6

PRIORITIES = (PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH)
PRIORITY_NAMES = {
    PRIORITY_LOW: "low",
    PRIORITY_NORMAL: "normal",
    PRIORITY_HIGH: "high",
}


def build_deployment(seed: int) -> Deployment:
    dep = Deployment({"A": "postgres", "B": "postgres"})
    users = Schema([Field("id", INTEGER), Field("name", varchar())])
    events = Schema([Field("user_id", INTEGER), Field("kind", varchar())])
    dep.load_table(
        "A", "users", users, [(i, f"user{i}") for i in range(40)]
    )
    dep.load_table(
        "B",
        "events",
        events,
        [(i % 40, "login" if i % 3 else "query") for i in range(160)],
    )
    dep.configure_qos(
        GateConfig(max_concurrent=MAX_CONCURRENT, max_queue=MAX_QUEUE)
    )
    for connector in dep.connectors.values():
        connector.retry_policy = RetryPolicy(max_attempts=MAX_ATTEMPTS)
    FaultInjector(
        FaultPolicy(seed=seed, transient_error_rate=FAULT_RATE)
    ).install(dep)
    return dep


def scan_leaks(dep: Deployment):
    """Short-lived delegation objects still on any engine's catalog."""
    leaked = []
    for name, database in dep.databases.items():
        for obj in database.catalog.names():
            if obj.startswith(DELEGATED_PREFIXES):
                leaked.append(f"{name}:{obj}")
    return sorted(leaked)


def submit(xdb: XDB, index: int, priority: int) -> dict:
    """One submission from client ``index``, as a JSON-able record."""
    policy = QoSPolicy(
        deadline_seconds=DEADLINE_SECONDS,
        per_call_cap_seconds=PER_CALL_CAP_SECONDS,
        priority=priority,
    )
    record = {"worker": index, "priority": priority}
    try:
        report = xdb.submit(QUERY, qos=policy)
    except OverloadError as exc:
        record["outcome"] = "shed"
        record["retry_after_seconds"] = exc.retry_after_seconds
        # The client honours the hint before its next submission.
        xdb.clock.advance(exc.retry_after_seconds)
    except DeadlineExceeded as exc:
        record["outcome"] = "deadline_exceeded"
        record["phase"] = exc.phase
        record["rolled_back"] = len(exc.rolled_back)
        record["leaked_in_error"] = len(exc.leaked)
    except Exception as exc:  # noqa: BLE001 - the gate: must be empty
        record["outcome"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    else:
        record["outcome"] = "ok"
        record["rows"] = len(report.result)
        remaining = report.qos.deadline_remaining_seconds
        record["deadline_remaining_seconds"] = remaining
        record["latency_seconds"] = DEADLINE_SECONDS - remaining
        record["admission_wait_seconds"] = report.qos.admission_wait_seconds
    return record


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[rank]


def run_load(load: int, seed: int, queries_per_worker: int) -> dict:
    dep = build_deployment(seed)
    engines = len(dep.databases)
    workers = MAX_CONCURRENT * engines * load
    # Every client has its own XDB (own DDL namespace) over the shared
    # engines, gate, breakers and fault schedule; all of them start at
    # simulated instant 0, so the offered load arrives at once.
    clients = [XDB(dep, ddl_namespace=f"t{i}_") for i in range(workers)]
    for xdb in clients:
        xdb.warm_metadata()
    sent = [0] * workers

    def priority(index: int) -> int:
        return PRIORITIES[(index + sent[index]) % len(PRIORITIES)]

    records: list = []
    while True:
        waiting = [i for i in range(workers) if sent[i] < queries_per_worker]
        if not waiting:
            break
        # The earliest client submits next; arrivals at one simulated
        # instant go in priority order.
        index = min(
            waiting,
            key=lambda i: (clients[i].clock.now(), -priority(i), i),
        )
        records.append(submit(clients[index], index, priority(index)))
        sent[index] += 1

    # A repeated QUERY keeps its cascade deployed until its client
    # closes: anything still on an engine after that is a leak.
    for xdb in clients:
        xdb.close()
    leaked = scan_leaks(dep)
    by_outcome = {}
    for record in records:
        by_outcome.setdefault(record["outcome"], []).append(record)
    ok = by_outcome.get("ok", [])
    shed = by_outcome.get("shed", [])
    expired = by_outcome.get("deadline_exceeded", [])
    errors = by_outcome.get("error", [])
    latencies = [r["latency_seconds"] for r in ok]
    total = len(records)
    gate = dep.workload_gate
    shed_by_priority = {
        PRIORITY_NAMES[p]: sum(1 for r in shed if r["priority"] == p)
        for p in PRIORITIES
    }
    return {
        "load": load,
        "workers": workers,
        "queries": total,
        "ok": len(ok),
        "shed": len(shed),
        "deadline_exceeded": len(expired),
        "errors": len(errors),
        "error_samples": [r["error"] for r in errors[:5]],
        "deadline_violations": sum(
            1 for r in ok if r["deadline_remaining_seconds"] < 0.0
        ),
        "leaked_objects": leaked,
        "leaked_in_errors": sum(
            r.get("leaked_in_error", 0) for r in expired
        ),
        "goodput": len(ok) / total if total else 0.0,
        "shed_ratio": len(shed) / total if total else 0.0,
        "shed_by_priority": shed_by_priority,
        "p50_latency_seconds": percentile(latencies, 0.50),
        "p99_latency_seconds": percentile(latencies, 0.99),
        "p50_deadline_fraction": percentile(
            [lat / DEADLINE_SECONDS for lat in latencies], 0.50
        ),
        "p99_deadline_fraction": percentile(
            [lat / DEADLINE_SECONDS for lat in latencies], 0.99
        ),
        "gate": {"admitted": gate.admitted, "sheds": gate.sheds},
    }


def check(report: dict) -> list:
    """The regression gate; returns a list of violation strings."""
    problems = []
    for row in report["loads"]:
        tag = f"{row['load']}x"
        if row["errors"]:
            problems.append(
                f"{tag}: {row['errors']} unhandled error(s), e.g. "
                + "; ".join(row["error_samples"])
            )
        if row["leaked_objects"]:
            problems.append(
                f"{tag}: leaked catalog objects: {row['leaked_objects']}"
            )
        if row["leaked_in_errors"]:
            problems.append(
                f"{tag}: {row['leaked_in_errors']} object(s) reported "
                "leaked by DeadlineExceeded rollbacks"
            )
        if row["deadline_violations"]:
            problems.append(
                f"{tag}: {row['deadline_violations']} query(ies) "
                "returned ok past their deadline"
            )
    by_load = {row["load"]: row for row in report["loads"]}
    base = by_load.get(1)
    peak = by_load.get(max(by_load))
    if base is not None and base["shed_ratio"] > 0.05:
        problems.append(
            f"1x: shed ratio {base['shed_ratio']:.3f} > 0.05 — the gate "
            "sheds work the capacity could have carried"
        )
    if peak is not None and peak is not base:
        if peak["shed_ratio"] <= 0.10:
            problems.append(
                f"{peak['load']}x: shed ratio {peak['shed_ratio']:.3f} "
                "<= 0.10 — overload is not being shed"
            )
        if peak["ok"] == 0:
            problems.append(
                f"{peak['load']}x: zero goodput under overload"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-injection seed (default 7)")
    parser.add_argument("--loads", type=int, nargs="+",
                        default=[1, 4, 16],
                        help="offered-load multipliers (default 1 4 16)")
    parser.add_argument("--queries", type=int, default=3,
                        help="queries per client (default 3)")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_PATH,
                        help=f"output JSON path (default {RESULTS_PATH})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on gate violations")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "overload",
        "seed": args.seed,
        "python": platform.python_version(),
        "config": {
            "max_concurrent": MAX_CONCURRENT,
            "max_queue": MAX_QUEUE,
            "deadline_seconds": DEADLINE_SECONDS,
            "per_call_cap_seconds": PER_CALL_CAP_SECONDS,
            "fault_rate": FAULT_RATE,
            "max_attempts": MAX_ATTEMPTS,
            "queries_per_worker": args.queries,
        },
        "loads": [
            run_load(load, args.seed, args.queries)
            for load in args.loads
        ],
    }

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    header = (
        f"{'load':>5} {'workers':>7} {'ok':>5} {'shed':>5} "
        f"{'expired':>7} {'errors':>6} {'goodput':>8} "
        f"{'p50s':>8} {'p99s':>8}"
    )
    print(header)
    for row in report["loads"]:
        print(
            f"{row['load']:>4}x {row['workers']:>7} {row['ok']:>5} "
            f"{row['shed']:>5} {row['deadline_exceeded']:>7} "
            f"{row['errors']:>6} {row['goodput']:>8.3f} "
            f"{row['p50_latency_seconds']:>8.3f} "
            f"{row['p99_latency_seconds']:>8.3f}"
        )
    print(f"results -> {args.out}")

    if args.check:
        problems = check(report)
        if problems:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print("overload gate: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
