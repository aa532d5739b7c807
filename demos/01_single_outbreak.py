"""
One outbreak, event by event
============================

A small heterogeneous system: recovery is slowest near site 1 and the
infection kernel couples low sites to high ones.  We run a single
trajectory and read the event log directly.
"""

import numpy as np

from urnsir import INFECTION, Kernel, ModelSpec, ScalarField, simulate

spec = ModelSpec(
    lam=Kernel.separable(ScalarField.affine(0.5, 1.5),
                         ScalarField.affine(2.0, -1.0)),
    psi=ScalarField.affine(0.4, 1.2),
    phi=ScalarField.constant(0.3),
    N=30,
    T=4.0,
)

traj = simulate(spec, seed=7, snapshot_times=(0.0, 1.0, 2.0, 4.0))

print(f"{spec.N} urns, horizon T={spec.T}, {len(traj.events)} events\n")

# The event log is one structured array: time, kind, urn, source
# (urns 1-based, source 0 for recoveries).
print("first ten events:")
for t, kind, urn, source in traj.events[:10].tolist():
    if kind == INFECTION:
        print(f"  t={t:6.3f}  urn {urn:2d} infected by urn {source}")
    else:
        print(f"  t={t:6.3f}  urn {urn:2d} recovers")

# Snapshots are one (times, N) state matrix; count each compartment.
print("\ncompartment counts over time:")
print("  time   S   I   R")
for t, states in zip(traj.snapshot_times, traj.snapshots):
    print(f"  {t:4.1f}  {np.sum(states == 0):3d} {np.sum(states == 1):3d}"
          f" {np.sum(states == -1):3d}")

# The same seed always reproduces the same trajectory.
again = simulate(spec, seed=7, snapshot_times=(0.0, 1.0, 2.0, 4.0))
assert np.array_equal(again.events, traj.events)
print("\nre-running with the same seed reproduces every event")
