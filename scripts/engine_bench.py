"""Time the general event engine: lockstep steps and single trajectories.

    taskset -c 0 python3 scripts/engine_bench.py --src src --out table.json
    taskset -c 0 python3 scripts/engine_bench.py --src src --sweep \
        --out sweep.json
    taskset -c 0 python3 scripts/engine_bench.py --src src --streams \
        --out streams.json

``--src`` points at the ``src`` directory of the tree to time, so two trees
(say, a commit and its parent) can be timed in one session with the same
script.  Table mode times propose + apply of ``_Engine`` on R rows whose
urns are 30 % infected and 70 % susceptible, min(STEPS, N / 2) steps per
repeat so that no row is absorbed (the median of REPEATS repeats), at
each N and R; a single trajectory (``simulate``) at N = 4, 400, 1000
and 4000, and one of the constant-rate model (flat lambda and psi, the
O(1) engine) at N = 500, each seed run REPEATS times after one untimed
run; and the single-replica draws: ``sample_initial`` at N = 4, and
``coupled_quadruple`` on fresh clock tables of the coupling's baseline
model (flat lambda = psi = 1, phi = 0.5, T = t = 0.4, urns 1-4) at
N = 64 and 1024.  Sweep mode times the same steps with one block
and with blocks of each given size, to place the crossover of the block
rule; it needs a tree that has ``gillespie.block_size``.  Streams mode
times ``replica_words`` through each of its two evaluators, numpy's Philox
and the vectorised block function, over a grid of (streams, blocks per
stream), to place the crossover of its path rule; it needs a tree that
has ``streams._native_words``.  Process time of this process only; pin it
to one CPU for steady numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import warnings

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

STEPS = 600
REPEATS = 5
TABLE = ((0.5, 1.0, 1.5), (1.2, 2.0, 2.4), (1.4, 2.6, 3.0))


def model(n: int, t: float = 1.0):
    from urnsir.fields import Kernel, ScalarField
    from urnsir.model import ModelSpec

    return ModelSpec(lam=Kernel.table(TABLE),
                     psi=ScalarField.affine(0.5, 1.0),
                     phi=ScalarField.affine(0.1, 0.4), N=n, T=t)


def flat(n: int, t: float = 1.0):
    from urnsir.fields import Kernel, ScalarField
    from urnsir.model import ModelSpec

    return ModelSpec(lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
                     phi=ScalarField.constant(0.1), N=n, T=t)


def coupling(n: int):
    from urnsir.fields import Kernel, ScalarField
    from urnsir.model import ModelSpec

    return ModelSpec(lam=Kernel.constant(1.0), psi=ScalarField.constant(1.0),
                     phi=ScalarField.constant(0.5), N=n, T=0.4)


def rows(n: int, r: int, seed: int = 0):
    import numpy as np

    from urnsir.model import INFECTED, SUSCEPTIBLE

    rng = np.random.default_rng(seed)
    states = np.full((r, n), SUSCEPTIBLE, dtype=np.int8)
    states[rng.random((r, n)) < 0.3] = INFECTED
    return states


def us_per_step(n: int, r: int) -> dict:
    """Median process time of propose + apply, per step and replica-event."""
    import numpy as np

    from urnsir.gillespie import _Engine

    spec, states = model(n), rows(n, r)
    steps = min(STEPS, n // 2)
    times = []
    urns = None
    # one untimed repeat first: the first passes over a shape run slower
    for rep in range(-1, REPEATS):
        # R = 1 is the batch of one of simulate, on scalar views
        engine = _Engine(spec, 1, 0 if r == 1 else np.arange(r), states)
        seen = []
        t0 = time.process_time()
        for _ in range(steps):
            when, urn, recovery, _u = engine.propose()
            engine.apply(when, urn, recovery)
            if rep == 0:
                seen.append(np.array(urn))
        if rep >= 0:
            times.append(time.process_time() - t0)
        if rep == 0:
            urns = np.array(seen)
    step = statistics.median(times) / steps * 1e6
    return {"N": n, "R": r, "steps": steps, "us_per_step": step,
            "us_per_replica_event": step / r,
            "urn_checksum": int((urns * np.arange(1, urns.size + 1)
                                 .reshape(urns.shape)).sum() % 1_000_003)}


def single_trajectory(n: int, seeds=(1, 2, 3), make=model) -> dict:
    """Median over seeds of process time per event of ``simulate`` to T = 2,
    on the model that ``make`` builds (the table model by default); each
    seed's time is the median of REPEATS runs after one untimed run.

    Seeds whose trajectory has no event (none infected at N = 4) are run
    but left out of the median.
    """
    from urnsir.gillespie import simulate

    spec = make(n, t=2.0)
    per_event, events = [], []
    for seed in seeds:
        took = []
        for rep in range(-1, REPEATS):
            t0 = time.process_time()
            traj = simulate(spec, seed)
            if rep >= 0:
                took.append(time.process_time() - t0)
        if traj.events.size:
            per_event.append(statistics.median(took) / traj.events.size
                             * 1e6)
        events.append(int(traj.events.size))
    return {"model": make.__name__, "N": n, "seeds": list(seeds),
            "events": events, "us_per_event": statistics.median(per_event)}


def per_call(name: str, n: int, call, count: int) -> dict:
    """Median over REPEATS repeats, after one untimed repeat, of process
    time per call of ``call(i)`` for i = 0 .. count - 1."""
    times = []
    for rep in range(-1, REPEATS):
        t0 = time.process_time()
        for i in range(count):
            call(i)
        if rep >= 0:
            times.append(time.process_time() - t0)
    return {"call": name, "N": n, "calls": count,
            "us_per_call": statistics.median(times) / count * 1e6}


def single_draws() -> list[dict]:
    """us per call of the single-replica draws: ``sample_initial`` on the
    table model, and ``coupled_quadruple`` on a fresh clock table per call
    (seed i), so that every touched row is drawn."""
    from urnsir.graphical import ClockTable, coupled_quadruple
    from urnsir.model import sample_initial

    spec = model(4)
    out = [per_call("sample_initial", 4,
                    lambda i: sample_initial(spec, 1, i), 2000)]
    for n in (64, 1024):
        spec = coupling(n)
        out.append(per_call(
            "coupled_quadruple", n,
            lambda i, spec=spec: coupled_quadruple(ClockTable(spec, i),
                                                   (1, 2, 3, 4), 0.4),
            200))
    return out


def stream_paths(counts, lengths) -> list[dict]:
    """us per block of each replica_words evaluator, per (streams, blocks).

    Words of the simulation stream from block 1; the median of REPEATS
    calls after one untimed call, for grid points of at most 2^19 blocks.
    """
    import numpy as np

    from urnsir import streams

    ctr = np.array([0, streams.DOMAIN_SIMULATION, 0, 0], dtype=np.uint64)
    out = []
    for r in counts:
        for blocks in lengths:
            if r * blocks > 1 << 19:
                continue
            replicas = np.arange(r, dtype=np.uint64)
            row = {"streams": r, "blocks": blocks}
            for name, path in (("native", streams._native_words),
                               ("vector", streams._vector_words)):
                times = []
                for rep in range(-1, REPEATS):
                    t0 = time.process_time()
                    path(7, replicas, 4 * blocks, ctr, 1)
                    if rep >= 0:
                        times.append(time.process_time() - t0)
                row[f"{name}_us_per_block"] = (statistics.median(times)
                                               / (r * blocks) * 1e6)
            row["faster"] = min(("native", "vector"),
                                key=lambda k: row[f"{k}_us_per_block"])
            out.append(row)
            print(json.dumps(row), flush=True)
    return out


def sweep(ns, rs, sizes) -> list[dict]:
    """us per step with one block and with each block size, per (N, R)."""
    from urnsir import gillespie

    rule = gillespie.block_size
    out = []
    try:
        for n in ns:
            for r in rs:
                row = {"N": n, "R": r, "rule_block_size": rule(n)}
                gillespie.block_size = lambda m: m
                row["one_block_us"] = us_per_step(n, r)["us_per_step"]
                for size in sizes:
                    gillespie.block_size = lambda m, s=size: s
                    row[f"size_{size}_us"] = us_per_step(n, r)["us_per_step"]
                out.append(row)
                print(json.dumps(row), flush=True)
    finally:
        gillespie.block_size = rule
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--streams", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    # a row absorbed in a repeat divides by a total rate of 0
    warnings.simplefilter("ignore", RuntimeWarning)
    us_per_step(200, 40)  # the first timings of a process run slower
    if args.streams:
        result = {"streams": stream_paths(
            (1, 4, 16, 32, 64, 128, 200, 400, 1000, 10000),
            (1, 2, 4, 8, 12, 16, 24, 32, 64, 500))}
    elif args.sweep:
        result = {"sweep": sweep((100, 200, 300, 400, 500, 600, 800, 1000),
                                 (1, 40, 200), (8, 16, 24, 32))}
    else:
        table = []
        for n in (200, 400, 800, 1000, 1600, 4000):
            for r in (40, 200):
                table.append(us_per_step(n, r))
                print(json.dumps(table[-1]), flush=True)
        result = {"table": table, "single": []}
        result["single"].append(single_trajectory(4, seeds=range(1, 201)))
        print(json.dumps(result["single"][-1]), flush=True)
        for n, make in ((400, model), (1000, model), (4000, model),
                        (500, flat)):
            result["single"].append(single_trajectory(n, make=make))
            print(json.dumps(result["single"][-1]), flush=True)
        result["calls"] = single_draws()
        for row in result["calls"]:
            print(json.dumps(row), flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
