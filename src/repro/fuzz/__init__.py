"""Dialect-aware differential SQL fuzzer.

The delegation engine's correctness rests on the three vendor dialects
agreeing: every statement the middleware renders must parse back to the
same AST on the far side, and every query must produce the same rows
whichever executor or placement runs it.  This package attacks those
invariants with generated *capability-edge* cases:

* identifiers and string values with quotes, backticks, slashes,
  spaces, keywords, and unicode — the characters that break naive
  dialect surfaces (quoting, the MariaDB ``CONNECTION='srv/obj'``
  packing, Hive's ``STORED BY`` literal);
* the full DDL surface (foreign tables, tables, views, DROP, INSERT);
* queries executed differentially — the engine against sqlite
  (:mod:`repro.fuzz.reference`), and delegated foreign-table plans
  against direct remote execution (wrapper pushdown limits).

Each statement case is **round-tripped** render → parse → render
through all three dialects: the parse must reproduce the AST and the
second render must reproduce the text.  Failures are shrunk to minimal
specs and saved; the regression corpus lives in ``tests/corpus/``.

Run it with ``python -m repro.fuzz``.
"""

from repro.fuzz.generators import generate_case, spec_to_statement
from repro.fuzz.oracle import run_case
from repro.fuzz.runner import run_fuzz
from repro.fuzz.shrink import shrink_case

__all__ = [
    "generate_case",
    "run_case",
    "run_fuzz",
    "shrink_case",
    "spec_to_statement",
]
