"""Per-vendor engine profiles.

A profile captures everything that differs between the simulated
PostgreSQL, MariaDB, and Hive instances of the paper's testbed:

* the SQL dialect used at their declarative interface;
* wrapper (SQL/MED) pushdown capabilities — the source of the
  "undesirable executions" of §V that XDB's virtual relations avoid;
* cost-model constants, which drive both EXPLAIN estimates and the
  schedule simulator.  The ``calibration`` factor converts
  engine-local cost units into seconds, implementing the paper's
  simple cross-DBMS cost alignment (§IV footnote 6).

These constants are the one price list (``repro.engine.cost``);
``repro.calibrate`` scores them against measured timings and changes
none of them.  They are loosely modeled after the paper's
observations: MariaDB is not an OLAP engine (slow joins/aggregations),
Hive has high startup latency and is built for clusters but runs on
one node here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError


@dataclass(frozen=True)
class EngineProfile:
    """Behavioural description of one DBMS vendor."""

    name: str
    dialect: str
    # --- wrapper (SQL/MED) capabilities -------------------------------
    #: wrapper pushes WHERE clauses on foreign tables to the remote side
    pushdown_filters: bool
    #: wrapper pushes column projections to the remote side
    pushdown_projections: bool
    # --- cost model (engine-local units) -------------------------------
    seq_scan_cost_per_row: float
    cpu_tuple_cost: float
    hash_build_cost_per_row: float
    sort_cost_factor: float
    foreign_fetch_cost_per_row: float
    startup_cost: float
    #: engine cost units per simulated second (the calibration factor)
    calibration: float
    #: fixed per-statement startup latency in simulated seconds
    startup_latency: float

    def cost_to_seconds(self, cost_units: float) -> float:
        """Calibrate engine-local cost units into simulated seconds."""
        return cost_units / self.calibration


_PROFILES = {
    "postgres": EngineProfile(
        name="postgres",
        dialect="postgres",
        pushdown_filters=True,
        pushdown_projections=True,
        seq_scan_cost_per_row=1.0,
        cpu_tuple_cost=0.01,
        hash_build_cost_per_row=0.02,
        sort_cost_factor=0.01,
        foreign_fetch_cost_per_row=20.0,
        startup_cost=10.0,
        calibration=2_000_000.0,
        startup_latency=0.02,
    ),
    # MariaDB: row store tuned for OLTP; federated wrapper pushes nothing,
    # joins/aggregations considerably slower than PostgreSQL for OLAP.
    "mariadb": EngineProfile(
        name="mariadb",
        dialect="mariadb",
        pushdown_filters=False,
        pushdown_projections=True,
        seq_scan_cost_per_row=1.2,
        cpu_tuple_cost=0.02,
        hash_build_cost_per_row=0.05,
        sort_cost_factor=0.02,
        foreign_fetch_cost_per_row=30.0,
        startup_cost=5.0,
        calibration=800_000.0,
        startup_latency=0.01,
    ),
    # Hive: designed for distributed filesystems; huge startup latency on
    # a single node, moderate scan throughput, JDBC storage handler that
    # pushes only projections.
    "hive": EngineProfile(
        name="hive",
        dialect="hive",
        pushdown_filters=False,
        pushdown_projections=True,
        seq_scan_cost_per_row=0.9,
        cpu_tuple_cost=0.015,
        hash_build_cost_per_row=0.03,
        sort_cost_factor=0.015,
        foreign_fetch_cost_per_row=25.0,
        startup_cost=500.0,
        calibration=1_200_000.0,
        startup_latency=2.0,
    ),
}


def profile_for(name: str) -> EngineProfile:
    """Look up a vendor profile by name (postgres / mariadb / hive)."""
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        raise CatalogError(
            f"unknown engine profile {name!r}; "
            f"expected one of {sorted(_PROFILES)}"
        )


def available_profiles() -> list:
    """Names of all registered vendor profiles."""
    return sorted(_PROFILES)
