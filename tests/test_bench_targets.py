"""Every function the benchmark's traced run wraps still exists.

``perfbench/spans.py`` patches the package at the names in its TARGETS
list and refuses to run when one is missing; this catches such a rename
in the test suite instead.  The file imports only the standard library,
so it is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, _, _ in TARGETS],
    ids=[f"{owner}.{attr}" for owner, attr, _, _ in TARGETS],
)
def test_traced_name_is_defined_where_it_is_wrapped(owner, attr):
    # the same lookup as spans.patched: vars() of the module or class
    mod_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(mod_name)
    if cls_name:
        obj = getattr(obj, cls_name)
    assert vars(obj).get(attr) is not None, f"{owner}.{attr} is gone"
