"""Peak traced memory of each layer under the ensemble reports.

    python3 scripts/memory_probe.py --src src --out memory.json

``--src`` points at the ``src`` directory of the tree to measure, so two
trees (say, a commit and its parent) can be measured in one session with
the same script.  Each probe is one call, measured by ``tracemalloc`` as
the peak of the memory traced during the call above what was traced before
it; numpy reports its array buffers to ``tracemalloc``, so the figure
counts the arrays a call builds, temporaries included, and not the
interpreter or the loaded libraries.  Every call runs twice and the second
figure is kept, so memo caches (kernel factors) are full.

The layers are the ladder solve of ``lln_report``, the half-step panels of
``clt_report``'s theory (and of a 16 x 16 table kernel at M = 128), the
initial states of a batch, ``_Engine.__init__``, ``states_of`` and
``run_ensemble``; the sizes are those of the benchmark's
``large-n-ensembles`` operations, which are also probed whole by calling
their reports with the same arguments (``lln-hetero``, ``dynkin-hetero``,
``clt-constant``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tracemalloc
import warnings

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SEED = 777
TABLE = ((0.5, 1.0, 1.5), (1.2, 2.0, 2.4), (1.4, 2.6, 3.0))
LLN_NS, LLN_R = (50, 200, 800), 40
DYN_N, DYN_R = 1000, 40
CLT_N, CLT_R = 2000, 200


def hetero(n: int):
    from urnsir.fields import Kernel, ScalarField
    from urnsir.model import ModelSpec

    return ModelSpec(lam=Kernel.table(TABLE),
                     psi=ScalarField.affine(0.5, 1.0),
                     phi=ScalarField.affine(0.1, 0.4), N=n, T=1.0)


def constant(n: int):
    from urnsir.fields import Kernel, ScalarField
    from urnsir.model import ModelSpec

    return ModelSpec(lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
                     phi=ScalarField.constant(0.2), N=n, T=1.0)


def peak_mb(call) -> float:
    """Peak traced MB of ``call()`` above what was traced before it."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    peak = tracemalloc.get_traced_memory()[1] - before
    del result
    return peak / 1e6


def ladder():
    """The density ladder as ``lln_report`` solves it at t = 1."""
    from urnsir import hydro

    return hydro._solve_grids(hetero(LLN_NS[-1]), LLN_NS, 1e-3, 1.0,
                              store_every=1000)  # times 0 and t only


def engine(spec, replicas: int, steps: int = 0):
    import numpy as np

    from urnsir.gillespie import _Engine
    from urnsir.model import initial_states

    rows = np.arange(replicas)
    eng = _Engine(spec, SEED, rows, initial_states(spec, SEED, rows))
    for _ in range(steps):
        eng.apply(*eng.propose()[:3])
    return eng


def probes() -> dict:
    import numpy as np

    from urnsir import fluctuation, model, reports
    from urnsir.ensemble import EnsembleSpec, run_ensemble
    from urnsir.fields import Kernel, ScalarField
    from urnsir.model import ModelSpec

    table16 = ModelSpec(
        lam=Kernel.table(np.random.default_rng(0).random((16, 16)).tolist()),
        psi=ScalarField.affine(0.5, 1.0), phi=ScalarField.affine(0.1, 0.4),
        N=128, T=1.0)
    clt_rows = np.arange(CLT_R)
    stepped = engine(constant(CLT_N), CLT_R, steps=CLT_N // 2)
    return {
        "layers": {
            "ladder_solve lln ns=(50,200,800) dt=1e-3": ladder,
            "PanelSeries clt M=16 dt=1e-3": lambda: fluctuation.PanelSeries(
                constant(CLT_N), 16, 1e-3, 1.0),
            "PanelSeries table16 M=128 dt=1e-3": lambda: (
                fluctuation.PanelSeries(table16, 128, 1e-3, 1.0)),
            "initial_states R=200 N=2000": lambda: model.initial_states(
                constant(CLT_N), SEED, clt_rows),
            "Engine.__init__ uniform R=200 N=2000": lambda: engine(
                constant(CLT_N), CLT_R),
            "Engine.__init__ general R=40 N=1000": lambda: engine(
                hetero(DYN_N), DYN_R),
            "states_of uniform R=200 N=2000": lambda: stepped.states_of(
                clt_rows),
            "run_ensemble uniform R=200 N=2000": lambda: run_ensemble(
                EnsembleSpec(constant(CLT_N), CLT_R, SEED, (1.0,))),
            "run_ensemble general R=40 N=800": lambda: run_ensemble(
                EnsembleSpec(hetero(LLN_NS[-1]), LLN_R, SEED, (1.0,))),
        },
        "large-n-ensembles ops": {
            "lln-hetero": lambda: reports.lln_report(
                hetero(LLN_NS[-1]), SEED, ns=LLN_NS, t=1.0, replicas=LLN_R),
            "dynkin-hetero": lambda: reports.dynkin_report(
                hetero(DYN_N), SEED, t=1.0, replicas=DYN_R),
            "clt-constant": lambda: reports.clt_report(
                constant(CLT_N), SEED, t=1.0, replicas=CLT_R, m_grid=16,
                dt=1e-3),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    # absorbed rows divide by a total rate of 0
    warnings.simplefilter("ignore", RuntimeWarning)
    tracemalloc.start()
    result = {"unit": "MB", "what": "tracemalloc peak above the start, "
              "second of two calls"}
    for group, calls in probes().items():
        result[group] = {}
        for name, call in calls.items():
            peak_mb(call)
            result[group][name] = round(peak_mb(call), 3)
            print(json.dumps({name: result[group][name]}), flush=True)
    tracemalloc.stop()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
