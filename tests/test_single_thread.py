"""One thread per process: nothing under ``src/`` imports a thread,
lock or queue module.

Admission waits on the simulated clock and every query runs on its
caller's thread, so the program has no use for ``threading``,
``_thread``, ``queue`` or ``concurrent.futures``.  This walks the AST
of every module, so an import inside a function counts too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BANNED = {"threading", "_thread", "queue", "concurrent"}


def imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, (node.module or "").split(".")[0]


def test_no_module_under_src_imports_threads_locks_or_queues():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{lineno} imports {root}"
        for path in modules
        for lineno, root in imported_roots(ast.parse(path.read_text()))
        if root in BANNED
    ]
    assert found == []
