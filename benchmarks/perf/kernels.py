"""Five member-engine kernel rates, through ``Database.execute`` only.

A synthetic 100 000-row fact / 5 000-row dimension pair on one
database isolates scan, filter, hash join, grouped aggregation and
sort from the federation around them.  Reported on ``exec_heavy`` only
— the workload whose wall these kernels are.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict

from repro.engine.database import Database
from repro.obs.clock import wall_now
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER

from workloads import Timed, yardstick

FACT_ROWS = 100_000
DIM_ROWS = 5_000
REPEATS = 3

#: kernel -> (statement, rows it consumes, rows it must return or None
#: where that depends on the seeded values) — the last is the output check
KERNELS = {
    "scan": ("SELECT f_key, f_value FROM fact", FACT_ROWS, FACT_ROWS),
    "filter": ("SELECT f_key FROM fact WHERE f_value < 0.1", FACT_ROWS, None),
    "join": (
        "SELECT f.f_key, d.d_group FROM fact f, dim d WHERE f.f_dim = d.d_key",
        FACT_ROWS + DIM_ROWS,
        FACT_ROWS,
    ),
    "aggregate": (
        "SELECT f_dim, SUM(f_value), COUNT(*) FROM fact GROUP BY f_dim",
        FACT_ROWS,
        DIM_ROWS,
    ),
    "sort": ("SELECT f_key, f_value FROM fact ORDER BY f_value", FACT_ROWS, FACT_ROWS),
}


def kernel_rates(seed: int) -> Dict[str, float]:
    """``engine.kernel.<name>.rows_per_s``: input rows over the median
    wall (at the reference machine speed) of :data:`REPEATS`
    executions."""
    rng = random.Random(seed)
    database = Database("kernels")
    database.create_table(
        "fact",
        Schema(
            [
                Field("f_key", INTEGER),
                Field("f_dim", INTEGER),
                Field("f_value", DOUBLE),
            ]
        ),
        [
            (key, key % DIM_ROWS + 1, rng.random())
            for key in range(1, FACT_ROWS + 1)
        ],
    )
    database.create_table(
        "dim",
        Schema([Field("d_key", INTEGER), Field("d_group", INTEGER)]),
        [(key, rng.randrange(50)) for key in range(1, DIM_ROWS + 1)],
    )
    rates = {}
    for name, (sql, rows_in, rows_out) in KERNELS.items():
        walls = []
        for _ in range(REPEATS):
            before = yardstick()
            start = wall_now()
            result = database.execute(sql)
            wall = wall_now() - start
            walls.append(Timed(wall, (before + yardstick()) / 2.0).norm)
            if rows_out is not None and len(result.rows) != rows_out:
                raise AssertionError(
                    f"kernel {name}: {len(result.rows)} rows, expected {rows_out}"
                )
        rates[f"engine.kernel.{name}.rows_per_s"] = rows_in / statistics.median(walls)
    return rates
