"""
The classic special case
========================

Constant inputs collapse the whole site-indexed system to the textbook
two-compartment model: i' = lam0*s*i - i, s' = -lam0*s*i.  The general
density solver run on any grid reproduces that curve exactly, and the
2x2 fluctuation covariance comes from the same reduction.
"""

import numpy as np

from urnsir import (
    GridSpec,
    Kernel,
    ModelSpec,
    ScalarField,
    classic_clt_covariance,
    solve_density,
)

lam0, phi0 = 2.5, 0.1
state = classic_clt_covariance(lam0=lam0, phi0=phi0, T=6.0, dt=1e-3)

print(f"lam0 = {lam0}, initial infected fraction {phi0}\n")
print("  time  infected  susceptible  removed")
for t in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0):
    k = int(round(t / 1e-3))
    i, s = state.infected[k], state.susceptible[k]
    print(f"  {t:4.1f}   {i:.5f}    {s:.5f}     {1 - i - s:.5f}")

peak = np.argmax(state.infected)
print(f"\npeak infection {state.infected[peak]:.5f} at t = {state.times[peak]:.3f}")

# The general solver with constant inputs is the same computation in
# disguise; on a power-of-two grid the two agree to the last bit.
spec = ModelSpec(lam=Kernel.constant(lam0), psi=ScalarField.constant(1.0),
                 phi=ScalarField.constant(phi0), N=50, T=6.0)
dens = solve_density(spec, GridSpec(M=32, dt=1e-3, T=6.0))
gap = max(abs(dens.total_infected(t) - state.infected[int(round(t / 1e-3))])
          for t in (1.0, 3.0, 6.0))
print(f"general solver vs reduction, worst gap: {gap:.1e}")

# Fluctuations around the curve: the 2x2 covariance of the scaled
# infected/susceptible deviations, from the matched Lyapunov equation
# solved alongside them.
print("\n  time  Var(eta)  Cov(eta,beta)  Var(beta)")
for t in (0.5, 1.0, 2.0, 4.0):
    c = state.covariance[int(round(t / 1e-3))]
    print(f"  {t:4.1f}  {c[0, 0]:8.5f}    {c[0, 1]:8.5f}   {c[1, 1]:8.5f}")
print("\n(eta = scaled infected deviation, beta = susceptible)")
