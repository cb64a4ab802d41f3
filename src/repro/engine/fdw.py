"""SQL/MED foreign-data wrappers: remote servers and foreign scans.

A :class:`RemoteServer` is what ``CREATE SERVER`` would register in a
real engine: a handle to another database plus the wire protocol used to
fetch rows from it.  Fetches execute remotely *through the remote
engine's own declarative interface* and account their bytes on the
simulated network — this is the building block the paper's delegation
approach composes into inter-DBMS pipelines (§V).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.engine.physical import PhysicalPlan, chunked
from repro.engine.stats import TableStats
from repro.errors import ConnectorError
from repro.net.network import PROTOCOL_FACTORS, Network
from repro.relational.schema import Schema
from repro.sql import ast
from repro.sql.render import render

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.catalog import VersionStamp
    from repro.engine.database import Database


class RemoteServer:
    """A named remote database reachable through a foreign wrapper."""

    def __init__(
        self,
        name: str,
        remote: "Database",
        network: Network,
        local_node: str,
        remote_node: str,
        protocol: str = "binary",
    ):
        if protocol not in PROTOCOL_FACTORS:
            raise ConnectorError(f"unknown wire protocol {protocol!r}")
        self.name = name
        self.remote = remote
        self.network = network
        self.local_node = local_node
        self.remote_node = remote_node
        self.protocol = protocol

    # -- data path ---------------------------------------------------------

    def fetch(self, query: ast.Select, tag: str = "fdw"):
        """Execute ``query`` remotely and pull the result over the wire."""
        result = self.remote.execute_select(query)
        self.network.ship(
            self.remote_node,
            self.local_node,
            result.byte_size(),
            len(result),
            tag,
            self.protocol,
        )
        return result

    # -- metadata path (planner support) -------------------------------------
    #
    # A planner that memoizes what it derives from these answers passes
    # ``reads``; the catalog versions the remote side read to produce
    # the answer (its own and, through its own foreign tables, those of
    # the engines below it) are merged into it.

    def remote_row_estimate(
        self, object_name: str, reads: Optional["VersionStamp"] = None
    ) -> float:
        """Remote EXPLAIN-based row estimate for ``object_name``."""
        query = ast.Select(
            items=(ast.SelectItem(ast.Star()),),
            from_items=(ast.TableRef((object_name,)),),
        )
        info = self.remote.explain_select(query, reads)
        return info.estimated_rows

    def remote_table_stats(
        self, object_name: str, reads: Optional["VersionStamp"] = None
    ) -> Optional[TableStats]:
        """Column statistics if the remote object is a stored table."""
        if reads is not None:
            reads.note(self.remote.catalog)
        return self.remote.table_stats(object_name)


class ForeignScan(PhysicalPlan):
    """Physical operator that pulls rows from a remote server.

    The remote query may carry pushed-down projections and filters,
    depending on the local engine's wrapper capabilities.
    """

    def __init__(
        self,
        server: RemoteServer,
        remote_query: ast.Select,
        schema: Schema,
        tag: str = "fdw",
    ):
        super().__init__()
        self.server = server
        self.remote_query = remote_query
        self.schema = schema
        self.tag = tag
        self._label: Optional[str] = None

    def _produce_batches(self, hint):
        """Stream the fetched result in chunks.

        The remote execution and wire transfer happen exactly once;
        only the local hand-off into the consuming operators is
        chunked.
        """
        result = self.server.fetch(self.remote_query, tag=self.tag)
        return chunked(result.rows, hint)

    def label(self) -> str:
        """Rendered once, on the first call: every run's operator span
        carries it."""
        if self._label is None:
            self._label = (
                f"ForeignScan[{self.server.name}: "
                f"{render(self.remote_query)}]"
            )
        return self._label


def build_remote_query(
    remote_object: str,
    columns: Optional[List[str]] = None,
    where: Optional[ast.Expression] = None,
) -> ast.Select:
    """Assemble the SELECT a wrapper sends to the remote side.

    ``columns`` of None means ``SELECT *``; ``where`` must reference the
    remote object's columns *unqualified* (the caller strips qualifiers).
    """
    if columns is None:
        items = (ast.SelectItem(ast.Star()),)
    else:
        items = tuple(
            ast.SelectItem(ast.ColumnRef(name)) for name in columns
        )
    return ast.Select(
        items=items,
        from_items=(ast.TableRef((remote_object,)),),
        where=where,
    )


def strip_qualifiers(expr: ast.Expression) -> ast.Expression:
    """Remove table qualifiers so an expression can run remotely."""
    from repro.relational.builder import rebuild_expression

    def replace(node: ast.Expression):
        if isinstance(node, ast.ColumnRef) and node.table is not None:
            return ast.ColumnRef(node.name)
        return None

    return rebuild_expression(expr, replace)
