"""Self-healing benchmark: availability under a mid-workload outage.

Runs the paper's TPC-H queries on TD1 across the grid {no replicas,
replicated} × {no outage, mid-workload outage of db2}.  With
``customer`` and ``orders`` replicated onto db3, the client's plan
repair re-routes every affected query onto the surviving holder: the
replicated column must report full availability with answers identical
to the fault-free run, while the un-replicated column shows what the
outage costs without self-healing.  The table reports availability
(queries answered / total), answer fidelity, how many queries healed
through the repair loop, and the mean repair latency.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.bench.scenarios import build_tpch_deployment
from repro.core.client import XDB
from repro.errors import ReproError
from repro.faults import EngineOutage, FaultInjector, FaultPolicy
from repro.health import BreakerConfig
from repro.workloads.tpch import QUERIES, query

SCALE_FACTOR = 0.001
VICTIM = "db2"
REPLICA_TARGET = "db3"
REPLICATED_TABLES = ("customer", "orders")


def build(replicated: bool):
    deployment, _ = build_tpch_deployment("TD1", SCALE_FACTOR)
    if replicated:
        for table in REPLICATED_TABLES:
            deployment.replicate_table(table, REPLICA_TARGET)
    # The outage is permanent: an effectively infinite cool-down keeps
    # the breaker from re-probing the dead engine mid-benchmark.
    deployment.configure_health(BreakerConfig(cooldown_seconds=1e9))
    return deployment


def strike_point(replicated: bool, names):
    """Fault-free truth plus the guarded-call index at which killing
    the victim hits the first exec-phase statement of the first query
    that places work on it (a genuine mid-workload strike)."""
    deployment = build(replicated)
    xdb = XDB(deployment)
    xdb.warm_metadata()
    counting = FaultInjector(FaultPolicy()).install(deployment)
    truth = {}
    strike = None
    try:
        for name in names:
            before = counting.calls_by_db.get(VICTIM, 0)
            report = xdb.submit(query(name))
            truth[name] = report.result.sorted_rows()
            ddl = sum(
                1 for db, _ in report.deployed.ddl_log if db == VICTIM
            )
            execs = ddl + (
                1 if report.plan.root.annotation == VICTIM else 0
            )
            after = counting.calls_by_db.get(VICTIM, 0)
            if strike is None and execs:
                # The window is ann + execs + cleanup drops (one per
                # DDL); the strike lands right after the ann calls.
                strike = before + (after - before) - execs - ddl
    finally:
        counting.uninstall()
    assert strike is not None, f"no query places work on {VICTIM!r}"
    return strike, truth


def run_grid():
    names = sorted(QUERIES)
    rows = []
    for replicated in (False, True):
        strike, truth = strike_point(replicated, names)
        for outage in (False, True):
            deployment = build(replicated)
            xdb = XDB(deployment)
            xdb.warm_metadata()
            injector = None
            if outage:
                injector = FaultInjector(
                    FaultPolicy(
                        outages=(
                            EngineOutage(db=VICTIM, after_calls=strike),
                        )
                    )
                ).install(deployment)
            answered = identical = repaired = fastfails = 0
            repair_seconds = []
            try:
                for name in names:
                    try:
                        report = xdb.submit(query(name))
                    except ReproError as exc:
                        # a failed submission's context rides on the error
                        if exc.context is not None:
                            fastfails += exc.context.resilience_summary().fastfails
                        continue
                    answered += 1
                    fastfails += report.resilience.fastfails
                    if report.result.sorted_rows() == truth[name]:
                        identical += 1
                    recovery = report.recovery
                    if recovery is not None and recovery.repaired:
                        repaired += 1
                        repair_seconds.append(recovery.repair_seconds)
            finally:
                if injector is not None:
                    injector.uninstall()
            rows.append(
                {
                    "replicas": (
                        ",".join(REPLICATED_TABLES) + "→" + REPLICA_TARGET
                        if replicated
                        else "none"
                    ),
                    "outage": f"{VICTIM} down" if outage else "none",
                    "answered": answered,
                    "identical": identical,
                    "repaired": repaired,
                    "mean_repair_s": (
                        sum(repair_seconds) / len(repair_seconds)
                        if repair_seconds
                        else 0.0
                    ),
                    "fastfails": fastfails,
                }
            )
    return rows, len(names)


def test_self_healing_grid(benchmark, results_sink):
    rows, total = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    table = format_table(
        [
            "replicas",
            "outage",
            "availability",
            "identical",
            "repaired",
            "mean_repair_s",
            "breaker_fastfails",
        ],
        [
            [
                r["replicas"],
                r["outage"],
                f"{r['answered']}/{total}",
                f"{r['identical']}/{total}",
                r["repaired"],
                f"{r['mean_repair_s']:.4f}",
                r["fastfails"],
            ]
            for r in rows
        ],
    )
    results_sink(
        "self_healing",
        "Self-healing — TPC-H on TD1, mid-workload outage of db2\n"
        + table,
    )

    none_ok, none_down, repl_ok, repl_down = rows
    # Fault-free rows: full availability, nothing to repair.
    for r in (none_ok, repl_ok):
        assert r["answered"] == r["identical"] == total
        assert r["repaired"] == 0
    # Without replicas the outage costs answers.
    assert none_down["answered"] < total
    # With replicas the plan-repair loop preserves full availability
    # and exact answers; at least one query healed mid-flight and paid
    # a measurable repair latency.
    assert repl_down["answered"] == repl_down["identical"] == total
    assert repl_down["repaired"] >= 1
    assert repl_down["mean_repair_s"] > 0.0
