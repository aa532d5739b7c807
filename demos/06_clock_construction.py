"""
Building the epidemic from clocks
=================================

Instead of stepping the generator, the whole trajectory can be read off
a static table of exponential clocks: recovery budgets K_i and
transmission delays U_(i,j).  Urn i is infected at time t when some
initially infected root reaches it through links that fire before their
source recovers, within total delay t.

The payoff is locality: whether the construction agrees with a naive
four-urn product build is decided by clocks in a finite neighborhood,
and the probability that the check fails at any fixed horizon dies out
as N grows.
"""

import numpy as np

from urnsir import Kernel, ModelSpec, ScalarField, run_clock_ensemble
from urnsir.graphical import ClockTable, coupled_quadruple, state_from_clocks

spec = ModelSpec(
    lam=Kernel.constant(1.5), psi=ScalarField.constant(1.0),
    phi=ScalarField.constant(0.3), N=12, T=2.0,
)
table = ClockTable(spec, seed=3, replica=0)
budgets = table.recovery_clocks()
initial = table.initial_states()

print("recovery budgets of the first four urns:")
print("  " + "  ".join(f"K_{i} = {budgets[i - 1]:.3f}" for i in range(1, 5)))
print(f"initially infected urns: "
      f"{[i for i in range(1, 13) if initial[i - 1] == 1]}\n")

print("state of urn 1 read off the clocks:")
for t in (0.25, 0.5, 1.0, 2.0):
    s = state_from_clocks(table, initial, 1, t)
    print(f"  t = {t:4.2f}: {({-1: 'removed', 0: 'susceptible', 1: 'infected'}[s])}")

# An ensemble evaluates the tables of all its replicas at once; row r is
# the table of (seed, r) read urn by urn.
rows = run_clock_ensemble(spec, 3, 200, 1.0)
lazy = [state_from_clocks(table, initial, m, 1.0) for m in range(1, 13)]
print(f"\nreplica 0 of a 200-table ensemble at t=1 matches: "
      f"{rows[0].tolist() == lazy}")

# The four-urn coupling: marginals built independently agree with the
# joint construction unless clock neighborhoods overlap by horizon T.
quad = coupled_quadruple(table, (1, 4, 7, 10), t=1.0)
print(f"\nquadruple (1, 4, 7, 10) at t=1: states {quad.states},"
      f" disjoint neighborhoods: {quad.omega_ok}")

print("\nfailure frequency of the disjointness event over 600 tables"
      " (replicas 0..599 of seed 3):")
print("   N    P(overlap)")
for n in (8, 16, 32, 64):
    big = ModelSpec(lam=spec.lam, psi=spec.psi, phi=spec.phi, N=n, T=0.4)
    urns = (1, n // 4 + 1, n // 2 + 1, 3 * n // 4 + 1)
    fails = 0
    for r in range(600):
        q = coupled_quadruple(ClockTable(big, seed=3, replica=r), urns, t=0.4)
        fails += not q.omega_ok
    print(f"  {n:3d}     {fails / 600:.3f}")
print("\nfixed horizon, growing N: the coupling failure becomes rare")
