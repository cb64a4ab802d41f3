"""The four benchmark workloads: federation set-up, rounds, oracle.

Everything here goes through the program's public surface —
``generate``, ``Deployment``, ``XDB.submit`` / ``XDB.prepare``,
``PreparedQuery.execute``, ``Database.execute`` — and times with
``repro.obs.clock.wall_now``.  A :class:`Bench` is one set-up
federation plus the single-node oracle database that judges it.
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.client import XDB
from repro.core.partition import cross_shard_bytes
from repro.engine.database import Database
from repro.errors import ReproError
from repro.federation.deployment import Deployment
from repro.net.metrics import site_breakdown
from repro.obs.clock import wall_now
from repro.workloads.tpch import TABLE_NAMES, generate, query
from repro.workloads.tpch.distributions import databases_for, distribution

QUERIES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")

#: tables replicated to every DBMS on the ``partitioned`` workload, so
#: each shard's join fragment stays in-situ
DIMENSIONS = ("customer", "part", "supplier", "partsupp", "nation", "region")

#: new ``orders`` rows per write batch on ``prepared_fresh``
BATCH_ORDERS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    td: str
    scale_factor: float
    #: "submit" plans every query; "prepared" re-executes six deployed
    #: handles after a write batch
    mode: str
    partitions: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "exec_heavy", "TD1", 0.01, "submit", 0,
            "TD1, sf 0.01, XDB.submit: member-engine execution is most "
            "of submit wall, so kernel and hash-join work shows here "
            "and planning work does not",
        ),
        Workload(
            "plan_heavy", "TD3", 0.002, "submit", 0,
            "TD3 (7 DBs), sf 0.002, XDB.submit: tiny data, most tasks "
            "and DDL, so local planning, consultation and delegation "
            "are most of submit wall",
        ),
        Workload(
            "prepared_fresh", "TD1", 0.01, "prepared", 0,
            "TD1, sf 0.01, six PreparedQuery handles re-executed after "
            "a 20-order INSERT batch: bypasses planning, puts writes "
            "beside reads, invalidates table stats every round",
        ),
        Workload(
            "partitioned", "TD1", 0.01, "submit", 4,
            "TD1 data, dimensions replicated, orders/lineitem "
            "hash-partitioned x4, 2 pool workers: shard expansion, "
            "WorkerPool and the gather run here and nowhere else",
        ),
    )
}


#: The yardstick's wall on the machine state times are normalised to:
#: every reported ms is "ms on a machine that runs :func:`yardstick` in
#: ``YARD_REF`` seconds" (about this sandbox when its neighbours are
#: quiet).
YARD_REF = 0.005

_YARD_INTS = {i: i * 7 for i in range(1024)}
_YARD_FLOATS = [float(i) for i in range(1024)]


def yardstick() -> float:
    """Wall seconds of a fixed pure-Python loop (dict probes, integer
    and float arithmetic; allocates no containers, so it never
    triggers the collector).

    The sandbox's CPU speed swings by up to 2x within seconds, whatever
    runs; the loop swings with it.  Timing it right before and after a
    piece of work gives the factor that takes the machine out of the
    measurement without touching the program.
    """
    ints, floats = _YARD_INTS, _YARD_FLOATS
    x, y = 0, 0.0
    start = wall_now()
    for i in range(60000):
        k = i & 1023
        x += ints[k] ^ i
        y += floats[k] * 0.5
    return wall_now() - start


@dataclass
class Timed:
    """A timed call and the machine speed around it."""

    #: wall seconds as measured
    wall: float
    #: mean yardstick seconds just before and just after the call
    speed: float = YARD_REF

    @property
    def norm(self) -> float:
        """Seconds at the reference machine speed."""
        return self.wall * YARD_REF / self.speed


@dataclass
class QuerySample(Timed):
    name: str = ""
    #: normalised rows, or None when the query raised
    rows: Optional[list] = None
    sim_seconds: float = 0.0
    bytes_moved: int = 0
    consultations: int = 0
    tasks: int = 0
    cross_shard_bytes: int = 0
    obs_spans: float = 0.0
    obs_events: float = 0.0


@dataclass
class Round:
    queries: List[QuerySample] = field(default_factory=list)
    #: the INSERT batch (``prepared_fresh`` only)
    write: Optional[Timed] = None

    def _steps(self) -> List[Timed]:
        return self.queries + ([self.write] if self.write else [])

    @property
    def wall(self) -> float:
        return sum(step.wall for step in self._steps())

    @property
    def norm(self) -> float:
        return sum(step.norm for step in self._steps())

    @property
    def speed(self) -> float:
        steps = self._steps()
        return sum(step.speed for step in steps) / len(steps)

    def total(self, attribute: str) -> float:
        return sum(getattr(q, attribute) for q in self.queries)


def normalise(rows) -> list:
    """Floats to 2 places, rows sorted — the order-free comparable form."""
    out = [
        tuple(round(v, 2) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    out.sort(key=repr)
    return out


def same_rows(got: list, want: list) -> bool:
    """Equal normalised rows; a float that two summation orders round
    to adjacent cents (0.01 apart) still counts as equal."""
    if got == want:
        return True
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=0.011):
                    return False
            elif x != y:
                return False
    return True


def _literal(value) -> str:
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _insert_sql(table: str, rows: List[tuple]) -> str:
    values = ", ".join(
        "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows
    )
    return f"INSERT INTO {table} VALUES {values}"


class Bench:
    """One workload, set up: federation, client, oracle, round driver.

    Building the instance *is* the benchmark's set-up (the caller times
    it): data generation, deployment load, ``XDB(...)``, the six
    prepared handles where used, one warm-up round — where first-touch
    statistics and the first ``GlobalCatalog.refresh`` land — and the
    oracle answers the warm-up is then checked against.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        expected_rows: Optional[Dict[str, int]] = None,
    ):
        """``expected_rows`` (query -> row count, committed for the
        default seed) is a second judge of the warm-up round: a bug the
        federation and the oracle share still trips it."""
        self.workload = workload
        #: drives the per-round query order and the write batches
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        data = generate(workload.scale_factor, seed)
        self.row_counts = data.row_counts()
        self._next_orderkey = self.row_counts["orders"] + 1
        self.deployment = self._deploy(data)
        self.oracle_db = Database("oracle")
        for table in TABLE_NAMES:
            schema, rows = data.tables[table]
            self.oracle_db.create_table(table, schema, list(rows))
        self.xdb = XDB(self.deployment)
        self.handles = {}
        if workload.mode == "prepared":
            self.handles = {q: self.xdb.prepare(query(q)) for q in QUERIES}
        self.oracle: Optional[Dict[str, list]] = None
        self.warmup = self.run_round()
        self.verify([self.warmup], expected_rows)

    # -- set-up ------------------------------------------------------------

    def _deploy(self, data) -> Deployment:
        workload = self.workload
        placement = distribution(workload.td)
        names = databases_for(workload.td)
        deployment = Deployment({name: "postgres" for name in names})
        deployment.load_distribution(placement, data.tables)
        if workload.partitions:
            for table in DIMENSIONS:
                for name in names:
                    if name != placement[table]:
                        deployment.replicate_table(
                            table, name, from_db=placement[table]
                        )
            by_db = [names[i % len(names)] for i in range(workload.partitions)]
            deployment.partition_table("orders", "o_orderkey", by_db)
            deployment.partition_table("lineitem", "l_orderkey", by_db)
            deployment.parallel_workers = 2
            for database in deployment.databases.values():
                database.parallel_workers = 2
        return deployment

    def oracle_answers(self) -> Dict[str, list]:
        """The same SQL on one database holding all eight tables."""
        return {
            q: normalise(self.oracle_db.execute(query(q)).rows)
            for q in QUERIES
        }

    # -- rounds ------------------------------------------------------------

    def _write_batch(self) -> Tuple[str, str]:
        """Seeded INSERT statements: new orders and their lineitems,
        drawn from the generator's value ranges."""
        rng = self.rng
        counts = self.row_counts
        orders, lineitems = [], []
        for _ in range(BATCH_ORDERS):
            key = self._next_orderkey
            self._next_orderkey += 1
            date = datetime.date(1992, 1, 1) + datetime.timedelta(
                days=rng.randrange(2400)
            )
            total = 0.0
            for line in range(1, rng.randrange(1, 8) + 1):
                part = rng.randrange(1, counts["part"] + 1)
                quantity = float(rng.randrange(1, 51))
                price = round(quantity * (900 + part % 1000), 2)
                discount = rng.randrange(0, 11) / 100.0
                tax = rng.randrange(0, 9) / 100.0
                shipped = date + datetime.timedelta(days=rng.randrange(1, 122))
                lineitems.append(
                    (
                        key, part, rng.randrange(1, counts["supplier"] + 1),
                        line, quantity, price, discount, tax,
                        rng.choice("RAN"), rng.choice("OF"), shipped,
                        date + datetime.timedelta(days=rng.randrange(30, 91)),
                        shipped + datetime.timedelta(days=rng.randrange(1, 31)),
                        "NONE", rng.choice(("AIR", "MAIL", "SHIP", "TRUCK")),
                        "fresh lineitem",
                    )
                )
                total += price * (1 + tax) * (1 - discount)
            orders.append(
                (
                    key, rng.randrange(1, counts["customer"] + 1),
                    rng.choice("OF"), round(total, 2), date, "1-URGENT",
                    f"Clerk#{rng.randrange(1, 1001):09d}", 0, "fresh order",
                )
            )
        return _insert_sql("orders", orders), _insert_sql("lineitem", lineitems)

    def run_round(self) -> Round:
        """One pass over the six queries in a seeded order; on
        ``prepared_fresh`` a write batch lands on the holder DBMSes
        first (and, untimed, on the oracle).  A :func:`yardstick` runs
        between the timed calls."""
        out = Round()
        marks = [yardstick()]
        if self.workload.mode == "prepared":
            placement = distribution(self.workload.td)
            orders_sql, lineitem_sql = self._write_batch()
            orders_db = self.deployment.database(placement["orders"])
            lineitem_db = self.deployment.database(placement["lineitem"])
            start = wall_now()
            orders_db.execute(orders_sql)
            lineitem_db.execute(lineitem_sql)
            out.write = Timed(wall_now() - start)
            marks.append(yardstick())
            self.oracle_db.execute(orders_sql)
            self.oracle_db.execute(lineitem_sql)
        order = list(QUERIES)
        self.rng.shuffle(order)
        network = self.deployment.network
        for name in order:
            self.attempted += 1
            handle = self.handles.get(name)
            start = wall_now()
            try:
                if handle is not None:
                    report = handle.execute()
                else:
                    report = self.xdb.submit(query(name))
            except ReproError:
                out.queries.append(QuerySample(wall_now() - start, name=name))
                self.failed += 1
            else:
                wall = wall_now() - start
                summary = report.context.trace_summary()
                out.queries.append(
                    QuerySample(
                        wall,
                        name=name,
                        rows=normalise(report.result.rows),
                        sim_seconds=report.schedule.total_seconds,
                        bytes_moved=site_breakdown(
                            report.context.transfers, network
                        )[0],
                        consultations=report.consultations,
                        tasks=report.plan.task_count(),
                        cross_shard_bytes=cross_shard_bytes(report.plan),
                        obs_spans=summary["spans"],
                        obs_events=summary["events"],
                    )
                )
            marks.append(yardstick())
        steps = ([out.write] if out.write else []) + out.queries
        for step, before, after in zip(steps, marks, marks[1:]):
            step.speed = (before + after) / 2.0
        return out

    # -- correctness -------------------------------------------------------

    def verify(
        self,
        rounds: List[Round],
        expected_rows: Optional[Dict[str, int]] = None,
    ) -> int:
        """Compare rounds with the oracle; returns (and adds to
        ``failed``) the number of queries whose rows differ.

        On ``prepared_fresh`` every round reads different data, so only
        the last round given is judged, against answers recomputed
        after its write batch (the oracle received every batch).
        """
        fresh = self.workload.mode == "prepared"
        if fresh:
            rounds = rounds[-1:]
        if fresh or self.oracle is None:
            self.oracle = self.oracle_answers()
        wrong = sum(
            1
            for round_ in rounds
            for sample in round_.queries
            if sample.rows is not None
            and not (
                same_rows(sample.rows, self.oracle[sample.name])
                and (
                    expected_rows is None
                    or len(sample.rows) == expected_rows[sample.name]
                )
            )
        )
        self.failed += wrong
        return wrong
