"""Every name the demos and scripts import from the package still exists.

Nothing in the suite runs ``demos/`` or ``scripts/``, so a removed or
renamed package name would break them silently.  Each file is parsed,
not run, so the check stays fast.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("scripts/*.py")])


def package_imports(path):
    """(module, name) for each package import in the file; name None for a
    plain ``import urnsir.x``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "urnsir":
                yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names
                        if a.name.split(".")[0] == "urnsir")


def test_demos_are_found():
    assert any(p.parent.name == "demos" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_package_imports_resolve(path):
    found = list(package_imports(path))
    assert found, f"{path.name} imports nothing from urnsir"
    for module, name in found:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), \
            f"{path.name}: {module}.{name} is gone"
