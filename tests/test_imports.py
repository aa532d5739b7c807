"""No module of the package imports a name it does not use.

No linter is among the test dependencies, so this is the one check of
flake8's F401 that the suite makes, with the standard library's ``ast``:
a module-level import must be used in its module or be listed in the
module's ``__all__`` (a re-export).  A statement marked ``# noqa: F401``
may bind only the unused names that the benchmark's traced run wraps in
that module (``perfbench/spans.py`` TARGETS, loaded by path in
``test_bench_targets``), so these bindings are the whole list of what the
package keeps for the benchmark alone.
"""

import ast
from pathlib import Path

import pytest

from test_bench_targets import TARGETS

SRC = Path(__file__).resolve().parents[1] / "src" / "urnsir"
# module -> the module-level names that the traced run wraps there
WRAPPED: dict[str, set[str]] = {}
for _owner, _attr, _, _ in TARGETS:
    if ":" not in _owner:
        WRAPPED.setdefault(_owner, set()).add(_attr)


def unused_imports(source: str, wrapped) -> list[str]:
    """Names bound by module-level imports of ``source`` that nothing uses,
    except those on a ``# noqa: F401`` statement that are in ``wrapped``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        noqa = "# noqa: F401" in lines[node.lineno - 1]
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if not (name in used or name in exported
                    or noqa and name in wrapped):
                unused.append(name)
    return unused


def test_checker_finds_unused_and_allows_the_exceptions():
    source = (
        "from __future__ import annotations\n"
        "import csv\n"
        "import math\n"
        "import os.path\n"
        "from .a import (  # noqa: F401\n"
        "    kept,\n"
        "    hidden_too,\n"
        ")\n"
        "from .b import shown, hidden as alias\n"
        "from .c import wrapped_elsewhere\n"
        "__all__ = ['shown']\n"
        "x = math.pi + os.path.sep\n"
    )
    assert unused_imports(source, {"kept", "wrapped_elsewhere"}) == [
        "csv", "hidden_too", "alias", "wrapped_elsewhere"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    wrapped = WRAPPED.get(f"urnsir.{path.stem}", set())
    assert unused_imports(path.read_text(), wrapped) == []


def test_derive_rng_is_called_only_by_reports():
    # every other draw reads its words through streams.replica_words; the
    # report sampling's Generator.integers draws are not rebuilt from words
    def calls(path):
        return any(isinstance(node, ast.Call)
                   and getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                   == "derive_rng"
                   for node in ast.walk(ast.parse(path.read_text())))

    assert [p.name for p in sorted(SRC.glob("*.py")) if calls(p)] == [
        "reports.py"]
