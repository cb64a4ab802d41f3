"""CLI: score the engine profiles' cost constants.

Usage::

    PYTHONPATH=src python -m repro.calibrate \\
        --rows 40000 --repeat 3 \\
        --out benchmarks/results/BENCH_calibration.json \\
        --check

``--check`` exits non-zero unless every profile's median Q-error is at
or below its bound in :data:`_MEDIAN_BOUNDS` and every operator kind in
:data:`_KINDS` yielded an observation — the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from repro.calibrate.harness import run_workload, score
from repro.engine.profiles import available_profiles

#: The highest median Q-error ``--check`` accepts, per profile: three
#: times the worst of five runs at ``--rows 40000 --repeat 3`` on a
#: 2-vCPU Linux container (hive 9.31, mariadb 8.52, postgres 21.42).
#: The prices are the emulated testbed's, not
#: this executor's, so the scored Q-error scales with the runner's
#: speed; the bound is there to catch an order-of-magnitude break, not
#: drift.
_MEDIAN_BOUNDS = {"hive": 28.0, "mariadb": 25.6, "postgres": 64.3}

#: The operator kinds the micro-workload runs and the price list
#: charges.  Each must yield an observation: one that yields none means
#: the operator spans stopped exporting their measured seconds.
_KINDS = (
    "DistinctOp",
    "Filter",
    "ForeignScan",
    "HashAggregate",
    "HashJoin",
    "Limit",
    "Project",
    "SeqScan",
    "Sort",
    "UnionAllOp",
)


def _failures(name: str, entry: Dict[str, object]) -> list:
    """Why ``entry`` fails ``--check``; empty if it passes."""
    failures = [
        f"{name}: no {kind} observation"
        for kind in _KINDS
        if kind not in entry["per_operator"]
    ]
    if entry["median_q_error"] > _MEDIAN_BOUNDS[name]:
        failures.append(
            f"{name}: median Q-error {entry['median_q_error']:.2f} is "
            f"above its bound {_MEDIAN_BOUNDS[name]:.2f}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.calibrate",
        description="Score the engine profiles' cost constants against "
        "measured per-operator executor timings.",
    )
    parser.add_argument(
        "--rows", type=int, default=40_000,
        help="fact-table rows in the micro-workload (default 40000)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="workload repetitions per profile (default 3)",
    )
    parser.add_argument(
        "--profiles", default=",".join(available_profiles()),
        help="comma-separated profile names (default: all)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the calibration report JSON here",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every profile's median Q-error is within "
        "its recorded bound and every operator kind was observed",
    )
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.profiles.split(",") if n.strip()]
    report: Dict[str, object] = {
        "workload": {"rows": args.rows, "repeat": args.repeat},
        "q_error": "max(estimated/actual, actual/estimated)",
        "profiles": {},
    }
    failures = []
    for name in names:
        entry = score(
            run_workload(name, rows=args.rows, repeat=args.repeat), name
        )
        report["profiles"][name] = entry
        failures.extend(_failures(name, entry))
        print(
            f"{name:>10}: median Q-error {entry['median_q_error']:.2f}, "
            f"max {entry['max_q_error']:.2f} "
            f"({entry['observations']} observations)"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
