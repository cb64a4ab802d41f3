"""Fuzz-case generation: JSON-able specs plus spec → AST conversion.

A *case spec* is a plain dict (JSON-serializable so failures can be
saved, shrunk, and replayed from ``tests/corpus/``).  ``kind`` selects
the oracle:

* ``foreign_table`` / ``create_table`` / ``view`` / ``drop`` /
  ``insert`` — DDL/DML statements, checked by the three-dialect
  round-trip oracle;
* ``query`` — a SELECT over the fixed fuzz schema, round-tripped *and*
  executed differentially (the engine vs sqlite, per vendor);
* ``pushdown`` — a foreign-table query on a two-engine deployment,
  compared against direct execution on the remote engine;
* ``partition`` — a query spec plus a hash/range partitioning of the
  fuzz tables across a four-engine federation, checked by the
  partition-parity oracle (partitioned and unpartitioned deployments
  must return identical rows through XDB);
* ``memo`` — a script of plan / query / DDL / INSERT / drift steps on a
  three-engine foreign-table chain, checked after every step by the
  plan-memo oracle (no engine may still serve a plan or estimate that
  differs from one made from scratch).

Identifier and string pools concentrate on capability edges: quote
characters of all three dialects, ``/`` (the MariaDB CONNECTION
separator), spaces, reserved keywords, leading digits, and unicode.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.sql import ast
from repro.sql.types import type_from_name

#: Identifier edge cases.  Every dialect must quote its way out.
IDENT_POOL = [
    "plain",
    "with space",
    "quote'name",
    'double"quote',
    "back`tick",
    "slash/name",
    "a/b/c",
    "order",
    "select",
    "table",
    "from",
    "1starts_digit",
    "MixedCase",
    "dotted.name",
    "semi;colon",
    "dash-name",
    "per%cent",
    "ünïcode",
    "значение",
    "tab\tname",
]

#: String-literal edge cases (INSERT values, remote object names).
STRING_POOL = [
    "",
    "plain",
    "it's",
    "''",
    "a''b",
    "trailing'",
    "'leading",
    "sla/sh",
    "back\\slash",
    "per%cent",
    "two  spaces",
    "ünïcode-значение",
]

#: Column types as ``[name, *args]`` (JSON-able, via ``type_from_name``).
TYPE_POOL = [
    ["INTEGER"],
    ["BIGINT"],
    ["DOUBLE"],
    ["VARCHAR", 8],
    ["VARCHAR", 25],
    ["CHAR", 4],
    ["DATE"],
    ["BOOLEAN"],
]

_IDENT_ALPHABET = "ab'\"`/ _%;.-3ü"


def gen_identifier(rng: random.Random) -> str:
    """A nasty-but-nonempty identifier."""
    if rng.random() < 0.6:
        return rng.choice(IDENT_POOL)
    length = rng.randint(1, 8)
    return "".join(rng.choice(_IDENT_ALPHABET) for _ in range(length))


def gen_string(rng: random.Random) -> str:
    if rng.random() < 0.6:
        return rng.choice(STRING_POOL)
    length = rng.randint(0, 8)
    return "".join(rng.choice(_IDENT_ALPHABET) for _ in range(length))


def _gen_columns(rng: random.Random) -> List[list]:
    count = rng.randint(1, 4)
    columns = []
    used = set()
    for _ in range(count):
        name = gen_identifier(rng)
        # Case-insensitive catalogs: avoid duplicate column names.
        while name.lower() in used:
            name = name + "_"
        used.add(name.lower())
        columns.append([name, rng.choice(TYPE_POOL)])
    return columns


def _gen_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.40:
        return gen_string(rng)
    if roll < 0.60:
        return rng.randint(0, 10_000)
    if roll < 0.75:
        return round(rng.uniform(0.0, 100.0), 3)
    if roll < 0.88:
        return None
    return rng.random() < 0.5


def generate_case(rng: random.Random) -> Dict[str, object]:
    """One random case spec."""
    roll = rng.random()
    if roll < 0.24:
        return {
            "kind": "foreign_table",
            "name": gen_identifier(rng),
            "columns": _gen_columns(rng),
            "server": gen_identifier(rng),
            "remote_object": gen_identifier(rng),
        }
    if roll < 0.34:
        return {
            "kind": "create_table",
            "name": gen_identifier(rng),
            "columns": _gen_columns(rng),
            "temporary": rng.random() < 0.3,
        }
    if roll < 0.40:
        return {
            "kind": "view",
            "name": gen_identifier(rng),
            "source": gen_identifier(rng),
            "columns": [gen_identifier(rng) for _ in range(rng.randint(1, 3))],
        }
    if roll < 0.46:
        return {
            "kind": "drop",
            "name": gen_identifier(rng),
            "objkind": rng.choice(["TABLE", "VIEW", "FOREIGN TABLE"]),
            "if_exists": rng.random() < 0.5,
        }
    if roll < 0.58:
        columns = _gen_columns(rng)
        names = [name for name, _ in columns]
        return {
            "kind": "insert",
            "table": gen_identifier(rng),
            "columns": names if rng.random() < 0.5 else [],
            "values": [
                [_gen_value(rng) for _ in names]
                for _ in range(rng.randint(1, 3))
            ],
        }
    if roll < 0.80:
        return _gen_query(rng)
    if roll < 0.90:
        return {
            "kind": "pushdown",
            "remote_profile": rng.choice(["postgres", "mariadb", "hive"]),
            "where_value": (
                rng.randint(0, 60) if rng.random() < 0.7 else None
            ),
            "project_all": rng.random() < 0.4,
        }
    if roll < 0.93:
        return gen_memo_case(rng)
    return gen_partition_case(rng)


def gen_memo_case(rng: random.Random) -> Dict[str, object]:
    """A script over the plan-memo oracle's chain (``A.v_a`` reads
    ``B.v_b`` reads ``C.t``; ``lt`` is local to A): plans and queries
    that fill the memos, interleaved with every kind of change that
    must empty them — and INSERT batches on both sides of the
    re-ANALYZE bound (12 rows for the 120 of ``t``, 5 for the 50 of
    ``lt``), which must empty them only past it."""
    literal = rng.choice(["1", "1.0", "7", "30"])
    threshold = rng.randint(0, 35)
    rows = ", ".join(
        f"({rng.randint(0, 60)}, {rng.randint(0, 40) / 2.0})"
        for _ in range(rng.randint(1, 30))
    )
    local_rows = ", ".join(
        f"({rng.randint(0, 30)}, 'new')" for _ in range(rng.randint(1, 10))
    )
    reads = [
        ["explain", "A", "SELECT * FROM v_a"],
        ["query", "A", "SELECT v_a.c, lt.b FROM v_a, lt WHERE v_a.a = lt.a"],
        ["explain", "A", f"SELECT c FROM v_a WHERE a = {literal}"],
        ["explain", "B", "SELECT * FROM v_b"],
        ["query", "B", f"SELECT a FROM v_b WHERE a > {threshold}"],
    ]
    writes = [
        ["sql", "C", f"INSERT INTO t VALUES {rows}"],
        ["sql", "A", f"INSERT INTO lt VALUES {local_rows}"],
        [
            "sql",
            "B",
            "CREATE OR REPLACE VIEW v_b AS "
            f"SELECT a, c FROM ft_c WHERE a > {threshold}",
        ],
        ["sql", "B", "CREATE OR REPLACE TABLE snap AS SELECT a FROM ft_c"],
        ["sql", "A", "CREATE TABLE aux (x INTEGER)"],
        ["sql", "A", "DROP TABLE IF EXISTS aux"],
        ["drift", "C", {"table": "t", "kind": "add_column", "column": "z"}],
        [
            "drift",
            "C",
            {
                "table": "t",
                "kind": "retype_column",
                "column": "c",
                "new_type": ["INTEGER"],
            },
        ],
    ]
    steps = []
    for _ in range(rng.randint(2, 5)):
        steps.append(rng.choice(reads))
        if rng.random() < 0.5:
            steps.append(rng.choice(reads))
        steps.append(rng.choice(writes))
    steps.append(rng.choice(reads))
    return {
        "kind": "memo",
        "remote_profile": rng.choice(["postgres", "mariadb", "hive"]),
        "steps": steps,
    }


def gen_partition_case(rng: random.Random) -> Dict[str, object]:
    """A partitioned-deployment spec wrapping a random query.

    The key column ``a`` takes values in ``[0, 70)``, so range bounds
    split that domain evenly; ``co_partition`` also partitions ``t2``
    with the same spec (compatible keys — joins can zip shard-wise).
    """
    partitions = rng.randint(2, 4)
    scheme = rng.choice(["hash", "range"])
    bounds = (
        []
        if scheme == "hash"
        else [70 * i // partitions for i in range(1, partitions)]
    )
    return {
        "kind": "partition",
        "scheme": scheme,
        "partitions": partitions,
        "bounds": bounds,
        "co_partition": rng.random() < 0.5,
        "query": _gen_query(rng),
    }


def _gen_query(rng: random.Random) -> Dict[str, object]:
    join = rng.random() < 0.4
    select = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    where = None
    roll = rng.random()
    if roll < 0.4:
        where = ["a", rng.choice([">", "<", "=", "<>"]), rng.randint(0, 60)]
    elif roll < 0.7:
        where = ["b", rng.choice(["=", "<>"]), gen_string(rng)]
    return {
        "kind": "query",
        "join": join,
        "select": select,
        "where": where,
        "distinct": rng.random() < 0.25,
        "order": rng.random() < 0.4,
        "limit": rng.randint(0, 40) if rng.random() < 0.3 else None,
    }


# -- spec → AST ------------------------------------------------------------


def spec_to_statement(spec: Dict[str, object]) -> ast.Statement:
    """Build the statement AST for a statement-shaped spec."""
    kind = spec["kind"]
    if kind == "foreign_table":
        return ast.CreateForeignTable(
            name=spec["name"],
            columns=_columns(spec["columns"]),
            server=spec["server"],
            remote_object=spec["remote_object"],
        )
    if kind == "create_table":
        return ast.CreateTable(
            name=spec["name"],
            columns=_columns(spec["columns"]),
            temporary=bool(spec.get("temporary", False)),
        )
    if kind == "view":
        query = ast.Select(
            items=tuple(
                ast.SelectItem(ast.ColumnRef(name))
                for name in spec["columns"]
            ),
            from_items=(ast.TableRef((spec["source"],)),),
        )
        return ast.CreateView(name=spec["name"], query=query)
    if kind == "drop":
        return ast.DropObject(
            kind=spec["objkind"],
            name=spec["name"],
            if_exists=bool(spec.get("if_exists", False)),
        )
    if kind == "insert":
        return ast.Insert(
            table=spec["table"],
            columns=tuple(spec.get("columns") or ()),
            rows=tuple(
                tuple(ast.Literal(value) for value in row)
                for row in spec["values"]
            ),
        )
    if kind == "query":
        return query_statement(spec)
    raise ValueError(f"spec kind {kind!r} is not statement-shaped")


def query_statement(spec: Dict[str, object]) -> ast.Select:
    """The SELECT AST for a ``query`` spec over the fuzz schema."""
    items = tuple(
        ast.SelectItem(ast.ColumnRef(name, "t1"))
        for name in spec["select"]
    )
    from_items: tuple = (ast.TableRef(("t1",)),)
    where = None
    if spec.get("join"):
        from_items = (ast.TableRef(("t1",)), ast.TableRef(("t2",)))
        where = ast.BinaryOp(
            "=", ast.ColumnRef("a", "t1"), ast.ColumnRef("a", "t2")
        )
    if spec.get("where"):
        column, op, value = spec["where"]
        predicate = ast.BinaryOp(
            op, ast.ColumnRef(column, "t1"), ast.Literal(value)
        )
        where = (
            predicate
            if where is None
            else ast.BinaryOp("AND", where, predicate)
        )
    order_by = ()
    if spec.get("order"):
        order_by = (ast.OrderItem(ast.ColumnRef(spec["select"][0], "t1")),)
    return ast.Select(
        items=items,
        from_items=from_items,
        where=where,
        order_by=order_by,
        limit=spec.get("limit"),
        distinct=bool(spec.get("distinct", False)),
    )


def _columns(columns) -> tuple:
    return tuple(
        ast.ColumnDef(name, type_from_name(spec[0], *spec[1:]))
        for name, spec in columns
    )
