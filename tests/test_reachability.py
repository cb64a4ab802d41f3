"""Nothing under ``src/`` is dead weight, and nothing needs a download.

(a) Every ``repro`` module is imported, directly or through other
modules, from a program entry point: a benchmark, an example, a script
or one of the package's command-line modules.  A module that only its
own tests import is code nothing runs.

(b) ``src/`` imports only the standard library and ``repro`` itself,
which is what ``dependencies = []`` in ``pyproject.toml`` promises.

Both halves walk the AST, so an import inside a function counts too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("benchmarks", "examples", "scripts")
#: the modules of ``src/`` that run as programs (``python -m ...``)
ENTRY_MODULES = (
    "repro.__main__",
    "repro.fuzz.__main__",
    "repro.calibrate.__main__",
    "repro.bench.run",
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _imported(path: Path, package: str):
    """Every dotted name an import in ``path`` names, relative imports
    resolved against ``package``; ``from a import b`` names both ``a``
    and ``a.b`` (``b`` may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            yield target
            for alias in node.names:
                yield f"{target}.{alias.name}"


def _repro_modules(path: Path, package: str):
    """The ``repro`` modules importing ``path`` runs (parents included)."""
    for name in _imported(path, package):
        parts = name.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in MODULES:
                yield prefix


def test_every_src_module_is_reached_from_an_entry_point():
    pending = list(ENTRY_MODULES)
    for directory in ENTRY_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            pending.extend(_repro_modules(path, ""))
    reached = set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        path = MODULES[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        pending.extend(_repro_modules(path, package))
    assert sorted(set(MODULES) - reached) == []


def _absolute_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, (node.module or "").split(".")[0]


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)
def test_src_imports_only_the_stdlib_and_repro():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    found = [
        f"{path.relative_to(SRC)}:{lineno} imports {root}"
        for path in MODULES.values()
        for lineno, root in _absolute_roots(path)
        if root not in allowed
    ]
    assert found == []
