"""
Three urns, solved exactly
==========================

With N=3 the chain has only 27 states, so the transient distribution can
be computed to near machine precision by uniformization.  We compare it
against Monte Carlo frequencies from the event simulator: every state
probability should land inside its sampling band.  The ensemble steps all
replicas in lockstep; replica r draws from the streams keyed by (master
seed, r), so it is also the single trajectory of that key.
"""

import numpy as np

from urnsir import Kernel, ModelSpec, ScalarField
from urnsir.oracle import (
    build_generator,
    enumerate_states,
    initial_distribution,
    transient_distribution,
)
from urnsir.ensemble import EnsembleSpec, run_ensemble, snapshot_states

spec = ModelSpec(
    lam=Kernel.table([[1.0, 2.0, 0.5], [0.3, 1.5, 2.5], [2.0, 0.7, 1.1]]),
    psi=ScalarField.affine(0.3, 0.9),
    phi=ScalarField.table([0.1, 0.5, 0.8]),
    N=3,
    T=1.0,
)
t = 1.0
replicas = 40_000

exact = transient_distribution(build_generator(spec),
                               initial_distribution(spec), t)

result = run_ensemble(
    EnsembleSpec(spec, replicas=replicas, master_seed=11,
                 snapshot_times=(t,)),
)
freq = result.state_counts(0) / replicas
same = all(
    np.array_equal(result.states[r], snapshot_states(spec, 11, (t,), replica=r))
    for r in (0, 1, replicas - 1)
)
print(f"replicas 0, 1 and {replicas - 1} equal their single runs: {same}\n")

labels = {0: "R", 1: "S", 2: "I"}  # digit encoding of the joint state
print(f"t = {t}, {replicas} replicas; ten most likely states\n")
print("  state      exact    observed    z")
order = np.argsort(exact)[::-1]
for idx in order[:10]:
    name = "".join(labels[s] for s in enumerate_states(3)[idx])
    se = np.sqrt(exact[idx] * (1 - exact[idx]) / replicas)
    z = (freq[idx] - exact[idx]) / se
    print(f"  {name}      {exact[idx]:.5f}   {freq[idx]:.5f}   {z:+5.2f}")

worst = np.max(np.abs(freq - exact)
               / np.sqrt(exact * (1 - exact) / replicas + 1e-300))
print(f"\nworst |z| over all 27 states: {worst:.2f}")
print(f"total variation distance:      {0.5 * np.sum(np.abs(freq - exact)):.5f}")
