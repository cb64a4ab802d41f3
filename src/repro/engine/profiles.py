"""Per-vendor engine profiles.

A profile captures everything that differs between the simulated
PostgreSQL, MariaDB, and Hive instances of the paper's testbed:

* the SQL dialect used at their declarative interface;
* wrapper (SQL/MED) pushdown capabilities — the source of the
  "undesirable executions" of §V that XDB's virtual relations avoid;
* cost-model constants and processing throughput, which drive both
  EXPLAIN estimates and the schedule simulator.  The ``calibration``
  factor converts engine-local cost units into seconds, implementing
  the paper's simple cross-DBMS cost alignment (§IV footnote 6).

Throughputs are loosely modeled after the paper's observations: MariaDB
is not an OLAP engine (slow joins/aggregations), Hive has high startup
latency and is built for clusters but runs on one node here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Mapping

from repro.errors import CatalogError

#: The per-row cost constants the calibration harness
#: (``repro.calibrate``) regresses against measured executor timings.
#: ``calibration`` stays fixed: it *defines* the units-to-seconds
#: currency the fit solves in.
CALIBRATABLE_CONSTANTS = (
    "seq_scan_cost_per_row",
    "cpu_tuple_cost",
    "hash_build_cost_per_row",
    "sort_cost_factor",
    "foreign_fetch_cost_per_row",
)

#: The per-statement startup constants, fitted separately as per-query
#: intercepts (whatever measured time the per-row constants cannot
#: explain): ``startup_cost`` is the intercept in engine cost units,
#: ``startup_latency`` the same intercept in seconds.
STARTUP_CONSTANTS = ("startup_cost", "startup_latency")


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
    # --- runtime throughput (rows per simulated second) ----------------
    process_rows_per_sec: float
    #: fixed per-statement startup latency in simulated seconds
    startup_latency: float

    def cost_to_seconds(self, cost_units: float) -> float:
        """Calibrate engine-local cost units into simulated seconds."""
        return cost_units / self.calibration

    def constants(self) -> Dict[str, float]:
        """The calibratable cost constants as a plain mapping."""
        return {
            name: getattr(self, name)
            for name in CALIBRATABLE_CONSTANTS + STARTUP_CONSTANTS
        }

    def with_constants(self, **constants: float) -> "EngineProfile":
        """A copy of this profile with some cost constants replaced."""
        allowed = CALIBRATABLE_CONSTANTS + STARTUP_CONSTANTS
        unknown = set(constants) - set(allowed)
        if unknown:
            raise CatalogError(
                f"cannot calibrate constants {sorted(unknown)}; "
                f"expected a subset of {list(allowed)}"
            )
        return replace(self, **constants)


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
        process_rows_per_sec=2_000_000.0,
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
        process_rows_per_sec=800_000.0,
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
        process_rows_per_sec=1_200_000.0,
        startup_latency=2.0,
    ),
}


#: Calibrated overlay: when populated (see :func:`set_calibrated` /
#: :func:`load_calibrated`), :func:`profile_for` serves these instead of
#: the seed constants — every consumer downstream of a profile lookup
#: (``CostModel``, EXPLAIN, the Rule-4 annotator's connector costing)
#: picks them up with no further wiring.
_CALIBRATED: Dict[str, EngineProfile] = {}


def profile_for(name: str) -> EngineProfile:
    """Look up a vendor profile by name (postgres / mariadb / hive).

    A calibrated profile registered under the same name shadows the
    seed constants.
    """
    key = name.lower()
    if key in _CALIBRATED:
        return _CALIBRATED[key]
    try:
        return _PROFILES[key]
    except KeyError:
        raise CatalogError(
            f"unknown engine profile {name!r}; "
            f"expected one of {sorted(_PROFILES)}"
        )


def available_profiles() -> list:
    """Names of all registered vendor profiles."""
    return sorted(_PROFILES)


# -- calibrated profile sets (produced by ``python -m repro.calibrate``) ----


def set_calibrated(profiles: Iterable[EngineProfile]) -> None:
    """Register calibrated profiles so :func:`profile_for` serves them."""
    for profile in profiles:
        key = profile.name.lower()
        if key not in _PROFILES:
            raise CatalogError(
                f"cannot calibrate unknown profile {profile.name!r}"
            )
        _CALIBRATED[key] = profile


def clear_calibrated() -> None:
    """Drop every calibrated override (back to the seed constants)."""
    _CALIBRATED.clear()


def dump_calibrated(profiles: Iterable[EngineProfile]) -> Dict[str, object]:
    """Serialize a calibrated profile set to a JSON-friendly mapping."""
    return {
        "profiles": {
            profile.name: profile.constants() for profile in profiles
        }
    }


def load_calibrated(path: str, register: bool = True) -> list:
    """Load a calibrated profile set emitted by ``repro.calibrate``.

    Returns the :class:`EngineProfile` list; with ``register`` (the
    default) it also installs them as the active overlay.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    mapping: Mapping[str, Mapping[str, float]] = payload.get("profiles", {})
    profiles = [
        profile_base(name).with_constants(
            **{key: float(value) for key, value in constants.items()}
        )
        for name, constants in mapping.items()
    ]
    if register:
        set_calibrated(profiles)
    return profiles


def unit_profile(constant: str) -> EngineProfile:
    """A profile whose only non-zero cost constant is ``constant``, at 1.

    A cost formula is linear in the constants, so evaluating it at this
    profile reads off ``constant``'s coefficient (see
    ``repro.engine.cost.operator_features``).
    """
    constants = dict.fromkeys(CALIBRATABLE_CONSTANTS + STARTUP_CONSTANTS, 0.0)
    constants[constant] = 1.0
    return EngineProfile(
        name=f"unit:{constant}",
        dialect="postgres",
        pushdown_filters=False,
        pushdown_projections=False,
        calibration=1.0,
        process_rows_per_sec=1.0,
        **constants,
    )


def profile_base(name: str) -> EngineProfile:
    """The seed (un-calibrated) profile, ignoring any overlay."""
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        raise CatalogError(
            f"unknown engine profile {name!r}; "
            f"expected one of {sorted(_PROFILES)}"
        )
