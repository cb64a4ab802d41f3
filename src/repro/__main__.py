"""``python -m repro`` — a one-command demo of the system.

Runs the paper's motivating pandemic query through XDB and the three
baselines on freshly generated data, printing the delegation plan, the
DDL cascade, an EXPLAIN ANALYZE-style span tree, and a runtime/transfer
comparison.  ``--trace out.json`` additionally exports the XDB run's
span tree as Chrome trace-event JSON (load it in ``chrome://tracing``
or Perfetto).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.baselines.garlic import GarlicSystem
from repro.baselines.presto import PrestoSystem
from repro.baselines.sclera import ScleraSystem
from repro.bench.reporting import format_table, print_banner
from repro.core.client import XDB
from repro.obs.context import validate_chrome_trace
from repro.workloads.pandemic import CHO_QUERY, build_pandemic_deployment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="demo: the paper's pandemic query on XDB + baselines",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the XDB run's Chrome trace-event JSON to PATH",
    )
    args = parser.parse_args(argv)

    deployment = build_pandemic_deployment(
        citizens=1_000, vaccinations=1_500, measurements=2_500
    )

    print_banner("XDB — in-situ cross-database query processing")
    print("federation:", ", ".join(deployment.database_names()))
    print("query (Fig. 3 of the paper):")
    print(CHO_QUERY)

    xdb = XDB(deployment)
    report = xdb.submit(CHO_QUERY)

    print_banner("results")
    print(report.result.to_table(max_rows=12))

    print_banner("delegation plan")
    print(report.plan.describe())
    print()
    for db, ddl in report.deployed.ddl_log:
        print(f"@{db}: {ddl}")

    print_banner("explain analyze (span tree)")
    print(report.explain_analyze())

    if args.trace:
        payload = report.to_chrome_trace()
        validate_chrome_trace(payload)
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        print(f"\nwrote Chrome trace ({len(payload['traceEvents'])} "
              f"events) to {args.trace}")

    print_banner("XDB vs. the mediator baselines")
    rows = [
        [
            "XDB",
            report.total_seconds,
            report.transfers.total_megabytes,
        ]
    ]
    for system in (
        GarlicSystem(deployment),
        PrestoSystem(deployment, workers=4),
        ScleraSystem(deployment),
    ):
        baseline = system.run(CHO_QUERY)
        rows.append(
            [
                baseline.system,
                baseline.total_seconds,
                baseline.transfers.total_megabytes,
            ]
        )
    print(format_table(["system", "total_s", "moved_MB"], rows))
    print(
        "\n(see examples/ for more, and `pytest benchmarks/ "
        "--benchmark-only` for the full evaluation)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
