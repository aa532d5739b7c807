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


def test_traced_notes_read_what_the_package_returns():
    # spans.note reads len(simulate(...).events), Simulation.initial.states
    # and the last row of snapshot_states; the count the states give must
    # be the length of the event log
    from urnsir import Kernel, ModelSpec, ScalarField, Simulation
    from urnsir.ensemble import snapshot_states
    from urnsir.reports import simulate

    spec = ModelSpec(
        lam=Kernel.table([[0.5, 1.0], [1.2, 2.6]]),
        psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.4),
        N=40,
        T=1.0,
    )
    initial = Simulation(spec, 5).initial.states
    count = len(simulate(spec, 5).events)
    assert count > 0
    times = (0.5, spec.T)
    rows = snapshot_states(spec, 5, times)
    assert rows.shape == (len(times), spec.N)
    last = rows[-1]
    assert ((initial == 0) & (last != 0)).sum() + (last == -1).sum() == count
