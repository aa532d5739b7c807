"""Event-log replay, the reference that snapshot rows are checked against."""

import numpy as np

from urnsir.gillespie import RECOVERY
from urnsir.model import INFECTED, REMOVED


def replay(trajectory, times) -> np.ndarray:
    """States (len(times), N) at the sorted times, replaying event by event."""
    times = sorted(float(t) for t in times)
    states = trajectory.initial.states.copy()
    out = np.empty((len(times), states.size), dtype=np.int8)
    events = iter(trajectory.events.tolist())
    ev = next(events, None)
    for k, t in enumerate(times):
        while ev is not None and ev[0] <= t:
            _, kind, urn, _ = ev
            states[urn - 1] = REMOVED if kind == RECOVERY else INFECTED
            ev = next(events, None)
        out[k] = states
    return out
