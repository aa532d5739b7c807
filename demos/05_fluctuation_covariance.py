"""
Gaussian fluctuations around the density
========================================

The sqrt(N)-scaled deviations of the infected and susceptible fields
converge to a Gaussian pair (eta_t, beta_t).  Its covariance operator
solves a Lyapunov equation driven by the density solution; here we
evolve it and check the predicted variance of eta_t(f) against a
moderately large simulation.
"""

import numpy as np

from urnsir import (
    EnsembleSpec,
    Kernel,
    ModelSpec,
    PanelSeries,
    ScalarField,
    evolve_covariance,
    pair_covariance,
    propagate,
    run_ensemble,
)

spec = ModelSpec(
    lam=Kernel.separable(ScalarField.affine(0.8, 0.6),
                         ScalarField.affine(1.2, -0.5)),
    psi=ScalarField.affine(0.7, 0.4),
    phi=ScalarField.affine(0.2, 0.3),
    N=1000,
    T=1.0,
)
m = 32
series = PanelSeries(spec, m, 1e-3, 1.0)
traj = evolve_covariance(series, store_every=100)

f = ScalarField.affine(0.5, 1.0)
print("predicted covariance of (eta_t(f), beta_t(f)):\n")
print("  time  Var(eta)  Cov(eta,beta)  Var(beta)")
for t in (0.0, 0.5, 1.0):
    block = pair_covariance(traj.at(t), f, f, m)
    print(f"  {t:4.1f}  {block[0, 0]:8.5f}    {block[0, 1]:8.5f}"
          f"   {block[1, 1]:8.5f}")

# Monte Carlo check at N=1000: sample the centered fields directly.  The
# 400 replicas of master seed 31 are stepped together, one event each per
# step, with one vectorised block of random words per step.
res = run_ensemble(
    EnsembleSpec(spec, replicas=400, master_seed=31, snapshot_times=(1.0,)),
)
eta = res.eta(f, 0)
beta = res.beta(f, 0)
pred = pair_covariance(traj.at(1.0), f, f, m)
print(f"\nempirical at N={spec.N}, 400 replicas, t=1:")
print(f"  Var(eta)  {np.var(eta, ddof=1):8.5f}   theory {pred[0, 0]:.5f}")
print(f"  Cov       {np.cov(eta, beta, ddof=1)[0, 1]:8.5f}   theory {pred[0, 1]:.5f}")
print(f"  Var(beta) {np.var(beta, ddof=1):8.5f}   theory {pred[1, 1]:.5f}")

# The two-parameter propagator composes along time splits.
leg_a = propagate(series, 0.0, 0.3)
leg_b = propagate(series, 0.3, 1.0)
whole = propagate(series, 0.0, 1.0)
print(f"\npropagator cocycle defect: {np.max(np.abs(leg_b @ leg_a - whole)):.2e}")
