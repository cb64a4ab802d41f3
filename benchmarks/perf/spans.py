"""Outside-in span tracer for the perf benchmark.

The benchmark may not edit the program, so per-layer time is measured
from here: :class:`Tracer` replaces each public boundary in
:data:`BOUNDARIES` (a class attribute, or a name imported into a
module) with a timing wrapper for the duration of a traced round and
puts the original back afterwards.  Spans stay in memory as
``[name, start, end, parent, count]`` records; :func:`summarise` turns
one round's records into the ``<layer>.calls / busy_ms / self_ms``
metrics.
"""

from __future__ import annotations

import functools
import importlib
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.clock import wall_now

#: (layer metric name, module, class or None, attribute).  A ``None``
#: class means a function imported *into* that module by name — the
#: importing module's attribute is what its callers resolve, so that is
#: what gets replaced (``reorder_joins`` has two import sites).
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("core.client.submit", "repro.core.client", "XDB", "submit"),
    ("core.client.prepared_execute", "repro.core.client", "PreparedQuery", "execute"),
    ("sql.parse", "repro.core.pipeline", "PlanPipeline", "parse"),
    ("core.catalog.refresh", "repro.core.catalog", "GlobalCatalog", "refresh"),
    ("core.logical.optimize", "repro.core.logical", "LogicalOptimizer", "optimize"),
    ("core.partition.expand_partitions", "repro.core.logical", None, "expand_partitions"),
    ("relational.optimizer.reorder_joins", "repro.core.logical", None, "reorder_joins"),
    ("relational.optimizer.reorder_joins", "repro.engine.planner", None, "reorder_joins"),
    ("core.annotate.annotate", "repro.core.annotate", "PlanAnnotator", "annotate"),
    ("connect.estimate_join_cost", "repro.connect.connector", "DBMSConnector", "estimate_join_cost"),
    ("connect.explain", "repro.connect.connector", "DBMSConnector", "explain"),
    ("core.finalize.finalize", "repro.core.finalize", "PlanFinalizer", "finalize"),
    ("core.delegate.delegate", "repro.core.delegate", "DelegationEngine", "delegate"),
    ("core.delegate.cleanup", "repro.core.delegate", "DeployedQuery", "cleanup"),
    ("connect.execute_ddl", "repro.connect.connector", "DBMSConnector", "execute_ddl"),
    ("connect.run_query", "repro.connect.connector", "DBMSConnector", "run_query"),
    ("engine.database.execute_select", "repro.engine.database", "Database", "execute_select"),
    ("engine.database.explain_select", "repro.engine.database", "Database", "explain_select"),
    ("engine.planner.optimize", "repro.engine.planner", "LocalPlanner", "optimize"),
    ("engine.planner.to_physical", "repro.engine.planner", "LocalPlanner", "to_physical"),
    ("engine.fdw.fetch", "repro.engine.fdw", "RemoteServer", "fetch"),
    ("engine.fdw.remote_row_estimate", "repro.engine.fdw", "RemoteServer", "remote_row_estimate"),
    ("engine.parallel.map", "repro.engine.parallel", "WorkerPool", "map"),
    ("core.timing.simulate_schedule", "repro.core.pipeline", None, "simulate_schedule"),
    ("core.timing.simulate_schedule", "repro.core.client", None, "simulate_schedule"),
    ("feedback.harvest_execution", "repro.core.pipeline", None, "harvest_execution"),
    ("feedback.harvest_execution", "repro.core.client", None, "harvest_execution"),
)

#: layer names in report order, each once
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))

ROOTS = ("core.client.submit", "core.client.prepared_execute")

#: boundaries whose first positional argument (after ``self``) is the
#: statement AST — kept by reference so the distinct-plan ratio can be
#: rendered after the round, outside every span
_STATEMENT_LAYERS = (
    "engine.database.execute_select",
    "engine.database.explain_select",
)

# span record fields
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Installs the wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: (database name, statement AST) per planned or executed statement
        self.statements: List[Tuple[str, object]] = []
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        for name, module_name, class_name, attribute in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            static = isinstance(original, staticmethod)
            wrapped = self._wrap(
                name, original.__func__ if static else original
            )
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, staticmethod(wrapped) if static else wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def take(self) -> Tuple[List[list], List[Tuple[str, object]]]:
        """Hand over (and forget) everything recorded so far."""
        spans, statements = self.spans, self.statements
        self.spans, self.statements = [], []
        return spans, statements

    # -- the wrapper ---------------------------------------------------

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        keep_statement = name in _STATEMENT_LAYERS
        counts_rows = name == "engine.fdw.fetch"
        adopts_threads = name == "engine.parallel.map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[NAME] == name:
                # plain recursion (``to_physical`` descending a plan):
                # one span per entry into the layer, not per node
                return fn(*args, **kwargs)
            if keep_statement:
                tracer.statements.append((args[0].name, args[1]))
            record = [name, 0.0, 0.0, parent, 0]
            if adopts_threads:
                args = (args[0], _adopting(tracer, record, args[1])) + args[2:]
            stack.append(record)
            record[START] = wall_now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = wall_now()
                stack.pop()
                tracer.spans.append(record)
            if counts_rows:
                record[COUNT] = len(result)
            return result

        return wrapper


def _adopting(tracer: Tracer, record: list, thunks) -> List[Callable]:
    """Thunks that run, on their pool thread, as children of ``record``."""

    def adopt(thunk: Callable) -> Callable:
        def run():
            stack = tracer._stack()
            stack.append(record)
            try:
                return thunk()
            finally:
                stack.pop()

        return run

    return [adopt(thunk) for thunk in thunks]


# -- aggregation ---------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``
    (pool branches overlap, so child durations cannot simply be added)."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def _has_ancestor(record: list, name: str) -> bool:
    parent = record[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False


def summarise(spans: List[list]) -> Dict[str, float]:
    """One round's spans → per-layer calls, busy ms, self ms and the
    two counts only the wrappers can see.

    ``busy_ms`` is inclusive time, counted once where a layer nests
    inside itself (``execute_select`` → ``fdw.fetch`` → the remote
    ``execute_select``); ``self_ms`` is each span's duration minus the
    part of it its child spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append(
                (record[START], record[END])
            )
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_ms"] = 0.0
        out[f"{layer}.self_ms"] = 0.0
    ddl_statements = 0
    rows_fetched = 0
    for record in spans:
        name, start, end = record[NAME], record[START], record[END]
        duration = end - start
        inside = _covered(children.get(id(record), []), start, end)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += (duration - inside) * 1000.0
        if not _has_ancestor(record, name):
            out[f"{name}.busy_ms"] += duration * 1000.0
        if name == "connect.execute_ddl" and _has_ancestor(
            record, "core.delegate.delegate"
        ):
            ddl_statements += 1
        rows_fetched += record[COUNT]
    out["core.delegate.ddl_statements"] = ddl_statements
    out["engine.fdw.rows_fetched"] = rows_fetched
    return out


def export(spans: List[list], origin: float) -> List[list]:
    """Spans as ``[id, name, start_ms, end_ms, parent_id, count]`` rows,
    times relative to ``origin``, in start order."""
    ordered = sorted(spans, key=lambda record: record[START])
    ids = {id(record): index for index, record in enumerate(ordered)}
    return [
        [
            ids[id(record)],
            record[NAME],
            round((record[START] - origin) * 1000.0, 4),
            round((record[END] - origin) * 1000.0, 4),
            ids.get(id(record[PARENT])) if record[PARENT] is not None else None,
            record[COUNT],
        ]
        for record in ordered
    ]
