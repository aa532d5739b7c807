"""Heterogeneous SIR dynamics on N urns: simulation and limit theory.

The package simulates the continuous-time Markov model where urn i
recovers at rate psi(i/N) and infects susceptible j at rate
lambda(j/N, i/N)/N, and verifies its three scaling descriptions against
each other: the exact small-N distribution (uniformization), the
hydrodynamic density ODE, and the Gaussian fluctuation covariance.

``import urnsir`` loads no submodule, and so not numpy either.  Each
public name below is imported from its submodule the first time it is
used: ``urnsir.load_config`` loads ``config``, ``fields``, ``model`` and
``streams``; ``urnsir.solve_density`` adds ``hydro``, ``csvout`` and
``rk4``.  ``from urnsir import *`` loads every module.
"""

import importlib

# submodule -> the public names it exports here
_EXPORTS = {
    "config": ("ConfigError", "RunConfig", "load_config", "spec_hash"),
    "ensemble": ("EnsembleResult", "EnsembleSpec", "run_clock_ensemble",
                 "run_ensemble"),
    "fields": ("Kernel", "ScalarField", "TestFunction", "sites"),
    "fluctuation": ("CovarianceTrajectory", "PanelSeries", "evolve_covariance",
                    "initial_covariance", "pair_covariance", "propagate"),
    "gillespie": ("INFECTION", "RECOVERY", "Simulation", "Trajectory",
                  "lockstep_states", "replay", "simulate", "snapshot_states",
                  "write_events_ndjson", "write_snapshots_csv"),
    "graphical": ("ClockTable", "CoupledQuadruple", "clock_states",
                  "coupled_quadruple", "state_from_clocks"),
    "homogeneous": ("HomogeneousState", "classic_clt_covariance",
                    "classic_sir_solve"),
    "hydro": ("DensityBoundsError", "DensityField", "GridSpec",
              "density_residual", "solve_density", "write_density_csv"),
    "model": ("INFECTED", "REMOVED", "SUSCEPTIBLE", "Configuration",
              "ModelSpec", "initial_states", "sample_initial"),
    "oracle": ("CapacityError", "GeneratorMatrix", "MomentRecord",
               "build_generator", "enumerate_states", "index_state",
               "initial_distribution", "moment_report", "occupation_marginals",
               "state_index", "transient_distribution"),
    "reports": ("Report", "ReportRecord", "clt_report", "construction_report",
                "covariance_anchor_report", "covariance_decay_report",
                "dynkin_report", "lln_report", "oracle_report",
                "write_report_csv"),
    "streams": ("derive_rng",),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "csvout", "rk4"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
