"""The calibration micro-workload: small, deterministic, per-operator.

One workload instance is a two-database deployment (a local engine plus
a same-vendor remote reached through SQL/MED) loaded with synthetic
tables, and a fixed list of queries chosen so that every calibratable
cost constant is exercised by at least one operator:

* ``seq_scan_cost_per_row`` — full scans of ``fact``;
* ``cpu_tuple_cost`` — filters, projections, limits, nested loops;
* ``hash_build_cost_per_row`` — hash joins (small table on either
  side of the FROM list) and aggregations;
* ``sort_cost_factor`` — ORDER BY over ``fact``;
* ``foreign_fetch_cost_per_row`` — ``ffact``, a foreign table served
  by the remote engine over the simulated network.

Everything is seeded: two runs with the same ``rows`` produce the same
tables, plans, and cardinalities, so measured timings are comparable
across repeats and profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.engine.database import Database
from repro.federation.deployment import Deployment
from repro.relational.schema import Field, Schema
from repro.sql import ast
from repro.sql.types import DOUBLE, INTEGER, varchar

#: Default fact-table size: large enough that per-operator wall timings
#: dominate timer overhead, small enough for CI.
DEFAULT_ROWS = 40_000

LOCAL = "L"
REMOTE = "R"


@dataclass
class MicroWorkload:
    """A wired deployment plus the calibration query list."""

    deployment: Deployment
    local: Database
    remote: Database
    #: ``(name, sql)`` pairs, executed in order against ``local``
    queries: List[Tuple[str, str]]
    rows: int


def build_workload(
    profile: str,
    rows: int = DEFAULT_ROWS,
    seed: int = 0xCA11B,
) -> MicroWorkload:
    """Build the micro-workload for one vendor ``profile``."""
    deployment = Deployment({LOCAL: profile, REMOTE: profile})
    local = deployment.databases[LOCAL]
    remote = deployment.databases[REMOTE]

    rng = random.Random(seed)
    dim_rows = max(rows // 40, 8)
    fact = [
        (
            i,
            rng.randrange(dim_rows),
            f"c{rng.randrange(8)}",
            rng.uniform(0.0, 500.0),
        )
        for i in range(rows)
    ]
    dim = [(i, f"label_{i:05d}") for i in range(dim_rows)]
    rfact = [
        (i, rng.uniform(0.0, 500.0)) for i in range(max(rows // 4, 16))
    ]

    local.create_table(
        "fact",
        Schema(
            [
                Field("id", INTEGER),
                Field("did", INTEGER),
                Field("cat", varchar(4)),
                Field("val", DOUBLE),
            ]
        ),
        fact,
    )
    local.create_table(
        "dim",
        Schema([Field("id", INTEGER), Field("label", varchar(12))]),
        dim,
    )
    remote.create_table(
        "rfact",
        Schema([Field("id", INTEGER), Field("val", DOUBLE)]),
        rfact,
    )
    # Declare the foreign table through the engine's own declarative
    # interface (dialect-rendered DDL), same as the delegation engine.
    ddl = ast.CreateForeignTable(
        name="ffact",
        columns=(
            ast.ColumnDef("id", INTEGER),
            ast.ColumnDef("val", DOUBLE),
        ),
        server=REMOTE,
        remote_object="rfact",
    )
    local.execute(local.dialect.render(ddl))

    queries: List[Tuple[str, str]] = [
        ("scan", "SELECT id, val FROM fact"),
        ("filter", "SELECT COUNT(*) AS n FROM fact WHERE val > 250.0"),
        ("filter_eq", "SELECT COUNT(*) AS n FROM fact WHERE cat = 'c1'"),
        (
            "join",
            "SELECT COUNT(*) AS n FROM fact, dim "
            "WHERE fact.did = dim.id",
        ),
        (
            # the same join from the other side of the FROM list, so
            # the build constant is fitted on both orientations
            "join_flipped",
            "SELECT COUNT(*) AS n FROM dim, fact "
            "WHERE fact.did = dim.id",
        ),
        ("aggregate", "SELECT did, SUM(val) AS s FROM fact GROUP BY did"),
        ("sort", "SELECT id, val FROM fact ORDER BY val"),
        ("distinct", "SELECT DISTINCT did FROM fact"),
        ("limit", f"SELECT id, val FROM fact LIMIT {max(rows // 10, 1)}"),
        (
            "union",
            "SELECT id FROM fact UNION ALL SELECT id FROM dim",
        ),
        ("foreign", "SELECT id, val FROM ffact"),
        (
            "foreign_filter",
            "SELECT COUNT(*) AS n FROM ffact WHERE val > 100.0",
        ),
    ]
    return MicroWorkload(
        deployment=deployment,
        local=local,
        remote=remote,
        queries=queries,
        rows=rows,
    )
