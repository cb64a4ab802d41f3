"""Standalone experiment runner: ``python -m repro.bench.run``.

Runs a (systems × queries × distribution) grid without pytest and
prints paper-style tables — handy for quick exploration at custom
scale factors.

Usage::

    python -m repro.bench.run [--td TD1] [--sf 0.005] [--topology onprem]
                              [--queries Q3,Q5] [--systems xdb,garlic]
                              [--hetero] [--presto-workers 4]
"""

from __future__ import annotations

import argparse
from typing import Dict, List

from repro.bench.harness import (
    RunRecord,
    build_systems,
    run_baseline,
    run_xdb,
)
from repro.bench.reporting import format_table, print_banner
from repro.bench.scenarios import (
    HETEROGENEOUS_PROFILES,
    build_tpch_deployment,
)
from repro.workloads.tpch import QUERIES, query

SYSTEM_CHOICES = ("xdb", "garlic", "presto", "sclera")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.run",
        description="Run the cross-database evaluation grid.",
    )
    parser.add_argument("--td", default="TD1", help="table distribution")
    parser.add_argument(
        "--sf", type=float, default=0.005, help="micro scale factor"
    )
    parser.add_argument(
        "--topology", default="onprem", choices=("onprem", "geo")
    )
    parser.add_argument(
        "--queries",
        default=",".join(sorted(QUERIES, key=lambda q: int(q[1:]))),
        help="comma-separated query names (e.g. Q3,Q5)",
    )
    parser.add_argument(
        "--systems",
        default="xdb,garlic,presto,sclera",
        help=f"comma-separated subset of {SYSTEM_CHOICES}",
    )
    parser.add_argument(
        "--hetero",
        action="store_true",
        help="use the Fig. 10 heterogeneous engine mix",
    )
    parser.add_argument("--presto-workers", type=int, default=4)
    return parser.parse_args(argv)


def run_grid(args: argparse.Namespace) -> List[List[object]]:
    """Execute the grid; returns printable table rows."""
    systems_wanted = [
        name.strip().lower() for name in args.systems.split(",") if name
    ]
    unknown = set(systems_wanted) - set(SYSTEM_CHOICES)
    if unknown:
        raise SystemExit(f"unknown systems: {sorted(unknown)}")

    deployment, data = build_tpch_deployment(
        args.td,
        args.sf,
        topology=args.topology,
        profiles=HETEROGENEOUS_PROFILES if args.hetero else None,
    )
    systems = build_systems(deployment, presto_workers=args.presto_workers)

    rows: List[List[object]] = []
    for query_name in (q.strip().upper() for q in args.queries.split(",")):
        sql = query(query_name)
        records: Dict[str, RunRecord] = {}
        for system_name in systems_wanted:
            system = getattr(systems, system_name)
            records[system_name] = (
                run_xdb(deployment, sql, query_name, xdb=system)
                if system_name == "xdb"
                else run_baseline(system, deployment, sql, query_name)
            )
        baseline = records.get("xdb")
        for system_name, record in records.items():
            relative = (
                f"{record.total_seconds / baseline.total_seconds:.1f}x"
                if baseline and baseline.total_seconds
                else "-"
            )
            rows.append(
                [
                    query_name,
                    record.system,
                    record.total_seconds,
                    record.transfer_seconds,
                    record.megabytes_total,
                    relative,
                ]
            )
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    print_banner(
        f"{args.td} @ micro-sf {args.sf} ({args.topology}"
        f"{', heterogeneous' if args.hetero else ''})"
    )
    rows = run_grid(args)
    print(
        format_table(
            ["query", "system", "total_s", "xfer_s", "moved_MB", "vs XDB"],
            rows,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
