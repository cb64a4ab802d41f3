"""Figures 15a–15b — XDB query-processing phase breakdown (§VI-E).

Per query and scale factor: prep (parse + metadata gathering), lopt
(logical optimization), ann (annotation + finalization, including the
consultation round-trips), and exec (delegation + decentralized
execution).  Paper findings: prep/lopt/ann stay below ~10 s and their
share shrinks from ~50% at sf 1 to a few percent at large scale; lopt
and ann are scale-independent.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_xdb
from repro.bench.reporting import format_table
from repro.core.client import XDB
from repro.workloads.tpch import query

from conftest import SWEEP_SFS, systems_for

SCENARIOS = [("Q3", "TD1"), ("Q8", "TD3")]


def run_breakdown(name: str, td: str):
    rows = []
    for sf in SWEEP_SFS:
        systems = systems_for(td, scale_factor=sf)
        # Force a fresh metadata pass so prep is measured every time,
        # as in the paper's per-query accounting.
        systems.xdb.invalidate_metadata()
        record = run_xdb(
            systems.deployment, query(name), name, xdb=systems.xdb
        )
        phases = record.extra
        overhead = phases["prep"] + phases["lopt"] + phases["ann"]
        rows.append(
            [
                sf,
                phases["prep"],
                phases["lopt"],
                phases["ann"],
                phases["exec"],
                f"{overhead / record.total_seconds:.0%}",
                int(phases["consultations"]),
            ]
        )
    return rows


@pytest.mark.parametrize("name,td", SCENARIOS)
def test_fig15_breakdown(benchmark, results_sink, name, td):
    rows = benchmark.pedantic(
        run_breakdown, args=(name, td), rounds=1, iterations=1
    )
    table = format_table(
        [
            "micro_sf",
            "prep_s",
            "lopt_s",
            "ann_s",
            "exec_s",
            "overhead_share",
            "consultations",
        ],
        rows,
    )
    results_sink(
        f"fig15_breakdown_{name.lower()}_{td.lower()}",
        f"Figure 15 — phase breakdown, {name}; {td}\n{table}",
    )

    first, last = rows[0], rows[-1]
    # exec grows with scale...
    assert last[4] > first[4]
    # ...while the optimization phases stay roughly constant: their share
    # of the total shrinks as data grows.
    first_share = float(first[5].rstrip("%"))
    last_share = float(last[5].rstrip("%"))
    assert last_share <= first_share
    # ann consultations are scale-independent (plan-dependent only).
    assert first[6] == last[6]
    # Consultation count = 4 per cross-database join.
    assert first[6] % 4 == 0


def test_fig15_q8_td3_has_most_consultations(benchmark, results_sink):
    """§VI-E: Q8 under TD3 requires the most consulting round-trips
    (all tables except nation/region on different DBMSes)."""

    def run():
        # A fresh client per query: the session's cached client has run
        # both before, and a reused plan consults nothing.
        deployment = systems_for("TD3").deployment
        counts = []
        for name in ("Q8", "Q3"):
            xdb = XDB(deployment)
            xdb.warm_metadata()
            counts.append(xdb.submit(query(name)).consultations)
        return tuple(counts)

    q8_consults, q3_consults = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert q8_consults > q3_consults
    results_sink(
        "fig15_consultations",
        "Consultation round-trips (TD3): "
        f"Q8={q8_consults}, Q3={q3_consults}",
    )
