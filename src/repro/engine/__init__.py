"""A from-scratch single-node relational DBMS.

Each :class:`~repro.engine.database.Database` instance plays the role of
one autonomous DBMS in the paper's testbed (PostgreSQL / MariaDB / Hive
flavoured via :mod:`repro.engine.profiles`).  It exposes exactly what the
paper assumes of a black-box DBMS:

* a declarative SQL interface (``execute``),
* EXPLAIN-style cost estimates (``explain``),
* SQL/MED foreign tables whose wrappers fetch from other databases
  through registered servers (:mod:`repro.engine.fdw`).
"""

from repro.engine.database import Database
from repro.engine.profiles import EngineProfile, profile_for
from repro.engine.result import Result
from repro.engine.vector import BATCH_SIZE

__all__ = [
    "BATCH_SIZE",
    "Database",
    "EngineProfile",
    "Result",
    "profile_for",
]
