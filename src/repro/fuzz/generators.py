"""Fuzz-case generation: JSON-able specs plus spec → AST conversion.

A *case spec* is a plain dict (JSON-serializable so failures can be
saved, shrunk, and replayed from ``tests/corpus/``).  ``kind`` selects
the oracle:

* ``foreign_table`` / ``create_table`` / ``view`` / ``drop`` /
  ``insert`` — DDL/DML statements, checked by the three-dialect
  round-trip oracle (INSERT items are strings, numbers, NULL,
  booleans and ``DATE '…'`` literals, held as ``{"date": iso}``);
* ``query`` — a SELECT over the fixed fuzz schema (some over an INNER
  or LEFT join with an OR-of-ANDs WHERE across both inputs or an
  equality chain over a third relation, some with a computed CASE,
  COALESCE or IN-list item),
  round-tripped *and* executed differentially (the engine vs sqlite,
  per vendor);
* ``pushdown`` — a foreign-table query on a two-engine deployment,
  compared against sqlite over the remote table;
* ``partition`` — a query spec plus a hash/range partitioning of the
  fuzz tables across a four-engine federation, whose rows through XDB
  must be sqlite's over the unsharded tables;
* ``partial`` — a ``partition`` spec without LIMIT whose ``dead_shard``
  of ``t1`` dies: the answer is a subset of sqlite's rows with the
  completeness its missing shards imply, or a refusal when less than
  the ``completeness_floor``, or nothing of a table, survives;
* ``memo`` — a script of plan / query / DDL / INSERT / drift steps on a
  three-engine foreign-table chain, checked after every step by the
  plan-memo oracle (no engine may still serve a plan or estimate that
  differs from one made from scratch).

Identifier and string pools concentrate on capability edges: quote
characters of all three dialects, ``/`` (the MariaDB CONNECTION
separator), spaces, reserved keywords, leading digits, and unicode.
"""

from __future__ import annotations

import datetime
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
    pick = rng.random()
    if pick < 0.5:
        return pick < 0.25
    # a two-token literal, DATE '…', from the same draw; a spec holds
    # it as ``{"date": iso}`` so that it stays JSON
    day = datetime.date(1992, 1, 1) + datetime.timedelta(
        days=int((pick - 0.5) * 5000)
    )
    return {"date": day.isoformat()}


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
    ``lt``), which must empty them only past it, and refreshes of B's
    ``snap`` on both sides of the kept-table rule: with the rows it
    already holds (nothing to empty), and with other rows.  One write
    choice is a pair, an INSERT into ``t`` and then the refresh of
    ``snap``, so that a seeded run meets a refresh with other rows."""
    literal = rng.choice(["1", "1.0", "7", "30"])
    threshold = rng.randint(0, 35)
    rows = ", ".join(
        f"({rng.randint(0, 60)}, {rng.randint(0, 40) / 2.0})"
        for _ in range(rng.randint(1, 30))
    )
    local_rows = ", ".join(
        f"({rng.randint(0, 30)}, 'new')" for _ in range(rng.randint(1, 10))
    )
    refresh = "CREATE OR REPLACE TABLE snap AS SELECT a FROM ft_c"
    reads = [
        ["explain", "A", "SELECT * FROM v_a"],
        ["query", "A", "SELECT v_a.c, lt.b FROM v_a, lt WHERE v_a.a = lt.a"],
        ["explain", "A", f"SELECT c FROM v_a WHERE a = {literal}"],
        ["explain", "B", "SELECT * FROM v_b"],
        ["query", "B", f"SELECT a FROM v_b WHERE a > {threshold}"],
        ["query", "B", f"SELECT a FROM snap WHERE a > {threshold}"],
        ["explain", "B", "SELECT snap.a, v_b.c FROM snap, v_b WHERE snap.a = v_b.a"],
    ]
    insert = ["sql", "C", f"INSERT INTO t VALUES {rows}"]
    writes = [
        insert,
        ["sql", "A", f"INSERT INTO lt VALUES {local_rows}"],
        [
            "sql",
            "B",
            "CREATE OR REPLACE VIEW v_b AS "
            f"SELECT a, c FROM ft_c WHERE a > {threshold}",
        ],
        ["sql", "B", refresh],
        ["sql", "B", f"{refresh} WHERE a > {threshold}"],
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
    choices = [[write] for write in writes]
    choices.append([insert, ["sql", "B", refresh]])
    steps = []
    for _ in range(rng.randint(2, 5)):
        steps.append(rng.choice(reads))
        if rng.random() < 0.5:
            steps.append(rng.choice(reads))
        steps.extend(rng.choice(choices))
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
    Half of the specs are ``partial``: the query loses its LIMIT, one
    ``dead_shard`` of ``t1`` dies, and the policy's
    ``completeness_floor`` is 0 (any surviving fraction is an answer)
    or 0.5 (losing a large shard is a refusal).
    """
    partitions = rng.randint(2, 4)
    scheme = rng.choice(["hash", "range"])
    bounds = (
        []
        if scheme == "hash"
        else [70 * i // partitions for i in range(1, partitions)]
    )
    spec = {
        "kind": "partition",
        "scheme": scheme,
        "partitions": partitions,
        "bounds": bounds,
        "co_partition": rng.random() < 0.5,
        "query": _gen_query(rng),
    }
    if rng.random() < 0.5:
        spec["kind"] = "partial"
        spec["query"]["limit"] = None
        spec["dead_shard"] = rng.randrange(partitions)
        spec["completeness_floor"] = rng.choice([0.0, 0.5])
    return spec


def _gen_query(rng: random.Random) -> Dict[str, object]:
    join = rng.random() < 0.4
    select = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    where = None
    roll = rng.random()
    if roll < 0.4:
        where = ["a", rng.choice([">", "<", "=", "<>"]), rng.randint(0, 60)]
    elif roll < 0.7:
        where = ["b", rng.choice(["=", "<>"]), gen_string(rng)]
    spec = {
        "kind": "query",
        "join": join,
        "select": select,
        "where": where,
        "distinct": rng.random() < 0.25,
        "order": rng.random() < 0.4,
        "limit": rng.randint(0, 40) if rng.random() < 0.3 else None,
    }
    if join and rng.random() < 0.6:
        spec["join"] = "LEFT" if rng.random() < 0.5 else True
        spec["or_where"] = _gen_or_where(rng)
    if join and rng.random() < 0.4:
        spec["chain"] = rng.sample(_CHAIN_LINKS, rng.randint(1, 2))
    if rng.random() < 0.5:
        tables = ["t1", "t2"] if spec["join"] else ["t1"]
        spec["computed"] = [
            _gen_computed(rng, tables) for _ in range(rng.randint(1, 2))
        ]
    return spec


#: Equalities a ``chain`` adds to the join's ``t1.a = t2.a``, over a
#: third relation ``t2 AS t3`` where named: with the join key they put
#: three units' columns in one equivalence class (the join order may
#: then join t1 and t3 directly), or two columns of t1 in one class.
_CHAIN_LINKS = (
    [["t2", "a"], ["t3", "a"]],
    [["t3", "a"], ["t1", "a"]],
    [["t2", "a"], ["t1", "c"]],
    [["t3", "a"], ["t1", "c"]],
)


#: Columns an ``or_where`` atom may compare, with a literal maker each.
_OR_COLUMNS = {
    "t1": {
        "a": lambda rng: rng.randint(0, 70),
        "b": gen_string,
        "c": lambda rng: round(rng.uniform(0.0, 50.0), 1),
    },
    "t2": {
        "a": lambda rng: rng.randint(0, 70),
        "d": lambda rng: f"d{rng.randint(0, 19)}",
    },
}


def _gen_or_where(rng: random.Random) -> List[List[list]]:
    """An OR of ANDs across both join inputs: ``[[atom, ...], ...]``,
    each atom ``[table, column, op, value]``.  Most arms test both
    tables, so each implies a restriction on each; a third of the
    ``t2`` atoms test for NULL, which NULL padding of a LEFT join makes
    true."""
    arms = []
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 0.8:
            tables = ["t1", "t2"] + rng.sample(["t1", "t2"], rng.randint(0, 1))
        else:
            tables = [rng.choice(["t1", "t2"])]
        rng.shuffle(tables)
        arms.append([_gen_atom(rng, table) for table in tables])
    return arms


def _gen_atom(rng: random.Random, table: str) -> list:
    column = rng.choice(sorted(_OR_COLUMNS[table]))
    if table == "t2" and rng.random() < 0.33:
        return [table, column, rng.choice(["IS NULL", "IS NOT NULL"]), None]
    ops = ["=", "<>"] if column in ("b", "d") else ["=", "<", ">", "<>"]
    value = _OR_COLUMNS[table][column](rng)
    return [table, column, rng.choice(ops), value]


#: The fuzz columns by type family: ``(table, column)`` pairs.
_FAMILIES = {
    "number": [("t1", "a"), ("t1", "c"), ("t2", "a")],
    "text": [("t1", "b"), ("t2", "d")],
}


def _gen_computed(rng: random.Random, tables: List[str]) -> list:
    """A computed select item over the columns of ``tables``, one of

    * ``["case", atom, then, else]`` — ``CASE WHEN atom THEN … ELSE …
      END`` (``else`` may be None: no ELSE);
    * ``["coalesce", operand, …]`` — ``COALESCE(…)``;
    * ``["in", operand, [item, …]]`` — an IN list with a column item.

    An operand is ``[table, column]`` or a literal, and the operands of
    one item share a type family.  ``t2``'s columns are NULL on the
    padded rows of a LEFT join."""
    family = rng.choice(sorted(_FAMILIES))
    columns = [list(c) for c in _FAMILIES[family] if c[0] in tables]

    def literal():
        if family == "number":
            return rng.choice([rng.randint(0, 70), round(rng.uniform(0.0, 50.0), 1)])
        return rng.choice([gen_string(rng), f"d{rng.randint(0, 19)}"])

    def operand():
        return rng.choice(columns) if rng.random() < 0.6 else literal()

    kind = rng.choice(["case", "coalesce", "in"])
    if kind == "case":
        atom = _gen_atom(rng, rng.choice(tables))
        if atom[3] is not None and rng.random() < 0.3:
            atom[3] = None  # ``x = NULL``: a WHEN condition that is NULL
        otherwise = operand() if rng.random() < 0.7 else None
        return ["case", atom, operand(), otherwise]
    if kind == "coalesce":
        return ["coalesce", rng.choice(columns)] + [
            operand() for _ in range(rng.randint(1, 2))
        ]
    tested = operand()
    others = [column for column in columns if column != tested]
    items = [rng.choice(others or columns)]
    items += [literal() for _ in range(rng.randint(0, 2))]
    rng.shuffle(items)
    return ["in", tested, items]


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
                tuple(ast.Literal(_insert_value(value)) for value in row)
                for row in spec["values"]
            ),
        )
    if kind == "query":
        return query_statement(spec)
    raise ValueError(f"spec kind {kind!r} is not statement-shaped")


def _insert_value(value):
    if isinstance(value, dict):
        return datetime.date.fromisoformat(value["date"])
    return value


def query_statement(spec: Dict[str, object]) -> ast.Select:
    """The SELECT AST for a ``query`` spec over the fuzz schema."""
    items = tuple(
        ast.SelectItem(ast.ColumnRef(name, "t1"))
        for name in spec["select"]
    ) + tuple(
        ast.SelectItem(_computed(item), f"e{index}")
        for index, item in enumerate(spec.get("computed") or ())
    )
    from_items: tuple = (ast.TableRef(("t1",)),)
    where = None
    join = spec.get("join")
    keys = ast.BinaryOp(
        "=", ast.ColumnRef("a", "t1"), ast.ColumnRef("a", "t2")
    )
    if join == "LEFT":
        left, right = ast.TableRef(("t1",)), ast.TableRef(("t2",))
        from_items = (ast.Join(left, right, "LEFT", keys),)
    elif join:
        from_items = (ast.TableRef(("t1",)), ast.TableRef(("t2",)))
        where = keys
    chain = spec.get("chain") or ()
    if join and any("t3" in (one[0], other[0]) for one, other in chain):
        from_items += (ast.TableRef(("t2",), "t3"),)
    for one, other in chain if join else ():
        link = ast.BinaryOp("=", _operand(one), _operand(other))
        where = link if where is None else ast.BinaryOp("AND", where, link)
    if join and spec.get("or_where"):
        predicate = None
        for atoms in spec["or_where"]:
            arm = ast.conjoin([_atom(atom) for atom in atoms])
            predicate = (
                arm if predicate is None else ast.BinaryOp("OR", predicate, arm)
            )
        where = (
            predicate
            if where is None
            else ast.BinaryOp("AND", where, predicate)
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


def _atom(atom: list) -> ast.Expression:
    table, column, op, value = atom
    ref = ast.ColumnRef(column, table)
    if op in ("IS NULL", "IS NOT NULL"):
        return ast.IsNull(ref, negated=op == "IS NOT NULL")
    return ast.BinaryOp(op, ref, ast.Literal(value))


def _operand(value) -> ast.Expression:
    if isinstance(value, list):
        table, column = value
        return ast.ColumnRef(column, table)
    return ast.Literal(value)


def _computed(item: list) -> ast.Expression:
    kind, *operands = item
    if kind == "case":
        atom, then, otherwise = operands
        return ast.CaseWhen(
            ((_atom(atom), _operand(then)),),
            None if otherwise is None else _operand(otherwise),
        )
    if kind == "coalesce":
        return ast.FunctionCall("COALESCE", tuple(map(_operand, operands)))
    operand, items = operands
    return ast.InList(_operand(operand), tuple(map(_operand, items)))


def _columns(columns) -> tuple:
    return tuple(
        ast.ColumnDef(name, type_from_name(spec[0], *spec[1:]))
        for name, spec in columns
    )
