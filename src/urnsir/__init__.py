"""Heterogeneous SIR dynamics on N urns: simulation and limit theory.

The package simulates the continuous-time Markov model where urn i
recovers at rate psi(i/N) and infects susceptible j at rate
lambda(j/N, i/N)/N, and verifies its three scaling descriptions against
each other: the exact small-N distribution (uniformization), the
hydrodynamic density ODE, and the Gaussian fluctuation covariance.
"""

from .config import ConfigError, RunConfig, load_config, spec_hash
from .ensemble import EnsembleResult, EnsembleSpec, run_clock_ensemble, run_ensemble
from .fields import Kernel, ScalarField, TestFunction, sites
from .fluctuation import (
    CovarianceTrajectory,
    OperatorPanel,
    PanelSeries,
    build_operator_panel,
    evolve_covariance,
    initial_covariance,
    noise_matrix,
    pair_covariance,
    propagate,
    weight_drift,
)
from .gillespie import (
    INFECTION,
    RECOVERY,
    Simulation,
    Trajectory,
    replay,
    simulate,
    snapshot_states,
    write_events_ndjson,
    write_snapshots_csv,
)
from .graphical import (
    ClockTable,
    CoupledQuadruple,
    InfluenceSet,
    coupled_quadruple,
    influence_set,
    state_from_clocks,
)
from .homogeneous import HomogeneousState, classic_clt_covariance, classic_sir_solve
from .hydro import (
    DensityBoundsError,
    DensityField,
    GridSpec,
    density_residual,
    solve_density,
    write_density_csv,
)
from .model import (
    INFECTED,
    REMOVED,
    SUSCEPTIBLE,
    Configuration,
    ModelSpec,
    empirical_fields,
    fluctuation_fields,
    sample_initial,
)
from .oracle import (
    CapacityError,
    GeneratorMatrix,
    MomentRecord,
    build_generator,
    enumerate_states,
    index_state,
    initial_distribution,
    moment_report,
    occupation_marginals,
    state_index,
    transient_distribution,
)
from .reports import (
    Report,
    ReportRecord,
    clt_report,
    construction_report,
    covariance_anchor_report,
    covariance_decay_report,
    dynkin_report,
    lln_report,
    oracle_report,
    write_report_csv,
)
from .streams import derive_rng, replica_seed

__version__ = "0.1.0"
