"""No module of the package imports a name it does not use.

No linter is among the test dependencies, so this is the one check of
flake8's F401 that the suite makes, with the standard library's ``ast``:
a module-level import must be used in its module, be listed in the
module's ``__all__`` (a re-export), or sit on a statement marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "urnsir"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of ``source`` that nothing uses."""
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
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name not in exported:
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
        ")\n"
        "from .b import shown, hidden as alias\n"
        "__all__ = ['shown']\n"
        "x = math.pi + os.path.sep\n"
    )
    assert unused_imports(source) == ["csv", "alias"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
