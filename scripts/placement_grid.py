#!/usr/bin/env python
"""Print every Rule-4 placement decision over the TPC-H grid.

Usage: ``python scripts/placement_grid.py > grid.txt``

The grid is TD1-3 x micro sf 0.001 / 0.005 / 0.01 x homogeneous /
heterogeneous vendors x the default, unpruned and bushy optimizer x
Q3, Q5, Q7, Q8, Q9, Q10: 324 submissions, each on a fresh client.  One
line per submission holds every ``PlacementDecision`` in annotation
order (chosen db, left / right movement, and each quoted alternative
with its cost as ``float.hex``; one token per decision), the
consultation count and a digest of the sorted answer.  The output is
deterministic, so ``diff`` of two runs (say a parent and a change)
names each decision that moved.  About 15 s on 2 vCPUs; no CI job runs
it.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.scenarios import (  # noqa: E402
    HETEROGENEOUS_PROFILES,
    build_tpch_deployment,
)
from repro.core.client import XDB  # noqa: E402
from repro.workloads.tpch import query  # noqa: E402

DISTRIBUTIONS = ("TD1", "TD2", "TD3")
SCALE_FACTORS = (0.001, 0.005, 0.01)
VENDORS = {"homogeneous": None, "heterogeneous": HETEROGENEOUS_PROFILES}
OPTIONS = {
    "default": {},
    "unpruned": {"prune_candidates": False},
    "bushy": {"plan_shape": "bushy"},
}
QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")


def _decisions(report) -> str:
    return " ".join(
        "{}:{}/{}[{}]".format(
            decision.chosen_db,
            decision.left_movement,
            decision.right_movement,
            ",".join(
                f"{db}:{moves.replace(' ', '')}:{cost.hex()}"
                for db, moves, cost in decision.costs
            ),
        )
        for decision in report.annotation.decisions.values()
    )


def _digest(rows) -> str:
    text = "\n".join(sorted(repr(tuple(row)) for row in rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main() -> int:
    for td in DISTRIBUTIONS:
        for sf in SCALE_FACTORS:
            for vendors, profiles in VENDORS.items():
                deployment, _ = build_tpch_deployment(td, sf, profiles=profiles)
                for option, kwargs in OPTIONS.items():
                    for name in QUERIES:
                        xdb = XDB(deployment, **kwargs)
                        report = xdb.submit(query(name))
                        xdb.close()
                        print(
                            f"{td} {sf} {vendors} {option} {name} "
                            f"consult={report.consultations} "
                            f"rows={_digest(report.result.rows)} "
                            f"{_decisions(report)}",
                            flush=True,
                        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
