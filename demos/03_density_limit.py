"""
From urns to a density
======================

As N grows, the fraction of infected urns near site u follows the
deterministic density rho1(t, u).  We solve the density system once and
watch the finite-N empirical field close in on it at rate 1/sqrt(N).
"""

import numpy as np

from urnsir import (
    EnsembleSpec,
    GridSpec,
    Kernel,
    ModelSpec,
    ScalarField,
    run_ensemble,
    solve_density,
)

lam = Kernel.separable(ScalarField.affine(0.8, 0.6), ScalarField.affine(1.2, -0.5))
psi = ScalarField.affine(0.7, 0.4)
phi = ScalarField.affine(0.2, 0.3)
t = 1.5

density = solve_density(
    ModelSpec(lam=lam, psi=psi, phi=phi, N=64, T=t),
    GridSpec(M=64, dt=1e-3, T=t),
)
print("deterministic limit at a few sites:")
for u in (0.25, 0.5, 0.75, 1.0):
    k = density.index_of(t)
    m = int(round(u * 64)) - 1
    print(f"  rho1({t}, {u:4.2f}) = {density.rho1[k, m]:.5f}"
          f"   rho0 = {density.rho0[k, m]:.5f}")

# The infected fraction of the whole system tends to the node mean of rho1.
target = density.total_infected(t)
print(f"\nlimit total infected fraction: {target:.5f}\n")

# Each rung runs replicas 0..99 of master seed 5, stepped in lockstep.
print("   N    mean |mu_N - limit|    x sqrt(N)")
for n in (64, 256, 1024):
    spec = ModelSpec(lam=lam, psi=psi, phi=phi, N=n, T=t)
    res = run_ensemble(
        EnsembleSpec(spec, replicas=100, master_seed=5, snapshot_times=(t,)),
    )
    one = ScalarField.constant(1.0)
    err = np.mean(np.abs(res.mu(one, 0) - target))
    print(f"  {n:4d}        {err:.5f}          {err * np.sqrt(n):.3f}")

print("\nthe scaled column is flat: the error shrinks like 1/sqrt(N)")
