"""Shared fixtures: tiny deployments, ground-truth helpers."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.engine.database import Database
from repro.engine.planner import LocalPlanner
from repro.engine.profiles import clear_calibrated
from repro.federation.deployment import Deployment
from repro.relational.schema import Field, Schema
from repro.sql.types import DOUBLE, INTEGER, varchar


@pytest.fixture(autouse=True)
def _isolate_calibrated_profiles():
    """Drop any calibrated-profile overlay a test installed.

    ``bench.harness.build_systems(calibrated=True)`` installs the
    overlay; it is process-global, so without this teardown a harness
    test would silently change the cost constants every later test
    sees.
    """
    yield
    clear_calibrated()


@pytest.fixture
def optimize_calls(monkeypatch):
    """Counts entries into ``LocalPlanner.optimize`` per engine name."""
    calls = Counter()
    original = LocalPlanner.optimize

    def counting(self, plan, estimator=None):
        calls[self._db.name] += 1
        return original(self, plan, estimator)

    monkeypatch.setattr(LocalPlanner, "optimize", counting)
    return calls


def normalized_rows(rows, places: int = 2):
    """Order-insensitive, float-rounded row normalization."""
    out = []
    for row in rows:
        out.append(
            tuple(
                round(value, places) if isinstance(value, float) else value
                for value in row
            )
        )
    return sorted(map(repr, out))


def assert_same_rows(left, right, places: int = 2):
    assert normalized_rows(left, places) == normalized_rows(right, places)


def ground_truth_database(deployment: Deployment, name: str = "GT") -> Database:
    """One engine holding every table of the federation."""
    database = Database(name)
    for member in deployment.databases.values():
        for table in member.catalog.tables():
            database.create_table(table.name, table.schema, table.rows)
    return database


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def two_db_deployment() -> Deployment:
    """Two PostgreSQL databases with small, deterministic tables."""
    dep = Deployment({"A": "postgres", "B": "postgres"})
    dep.load_table(
        "A",
        "users",
        Schema(
            [
                Field("id", INTEGER),
                Field("name", varchar(16)),
                Field("score", DOUBLE),
            ]
        ),
        [(i, f"user{i}", float(i * 10 % 70)) for i in range(1, 21)],
    )
    dep.load_table(
        "B",
        "events",
        Schema(
            [
                Field("user_id", INTEGER),
                Field("kind", varchar(8)),
                Field("weight", INTEGER),
            ]
        ),
        [
            (1 + i % 25, ["login", "query", "logout"][i % 3], i % 7)
            for i in range(60)
        ],
    )
    return dep


@pytest.fixture
def pandemic_deployment():
    from repro.workloads.pandemic import build_pandemic_deployment

    return build_pandemic_deployment(
        citizens=300, vaccinations=500, measurements=800, seed=11
    )


@pytest.fixture(scope="session")
def tpch_tiny():
    """TD1 deployment at micro sf 0.001, shared across the session.

    Tests must not mutate loaded tables; transient DDL objects are fine
    as long as they are dropped (XDB and the baselines clean up).
    """
    from repro.bench.scenarios import build_tpch_deployment

    deployment, data = build_tpch_deployment("TD1", 0.001)
    return deployment, data


@pytest.fixture(scope="session")
def tpch_tiny_ground_truth(tpch_tiny):
    deployment, _ = tpch_tiny
    return ground_truth_database(deployment)
