"""Span recorder for the traced run, kept outside the package under test.

``patched(tracer)`` replaces the package's public functions with wrappers
at the names their callers resolve (``snapshot_states`` is wrapped as
``urnsir.ensemble.snapshot_states``, ``derive_rng`` once in every module
that imports it) and restores the originals on exit.  Spans stay in memory
as flat arrays; ``per_layer`` reduces them to the metrics named in
BENCHMARK.json and ``write_json`` dumps them once the round is over.

A span's self time is its duration minus the durations of its direct
children.  The program runs on one thread, so spans nest strictly.

The per-event engine step is not wrapped.  Event counts are read from the
states instead: infections are the urns susceptible at time 0 and not
susceptible at the last snapshot, recoveries the urns removed at the last
snapshot, which is exact when the last snapshot is at T (the benchmark's
configs make it so; other calls are left out of the per-event figures).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager

# (owner, attribute, span name, note): owner is a module or "module:Class".
TARGETS = [
    ("urnsir.model", "derive_rng", "streams.derive_rng", None),
    ("urnsir.gillespie", "derive_rng", "streams.derive_rng", None),
    ("urnsir.graphical", "derive_rng", "streams.derive_rng", None),
    ("urnsir.reports", "derive_rng", "streams.derive_rng", None),
    ("urnsir.gillespie", "sample_initial", "model.sample_initial", None),
    ("urnsir.gillespie:Simulation", "__init__", "gillespie.Simulation.init",
     "initial"),
    ("urnsir.ensemble", "snapshot_states", "gillespie.snapshot_states",
     "states"),
    ("urnsir.reports", "simulate", "gillespie.simulate", "trajectory"),
    ("urnsir.fields:Kernel", "site_matrix", "fields.site_matrix", None),
    ("urnsir.fields:Kernel", "node_average", "fields.node_average", None),
    ("urnsir.graphical:ClockTable", "__init__", "graphical.ClockTable", None),
    ("urnsir.graphical:ClockTable", "recovery_clocks", "graphical.ClockTable",
     None),
    ("urnsir.graphical:ClockTable", "initial_states", "graphical.ClockTable",
     None),
    ("urnsir.graphical:ClockTable", "_row", "graphical.ClockTable", None),
    ("urnsir.ensemble", "state_from_clocks", "graphical.state_from_clocks",
     None),
    ("urnsir.reports", "build_generator", "oracle.build_generator", None),
    ("urnsir.reports", "transient_distribution",
     "oracle.transient_distribution", None),
    ("urnsir.reports", "initial_distribution", "oracle.initial_distribution",
     None),
    ("urnsir.reports", "moment_report", "oracle.moment_report", None),
    ("urnsir.reports", "run_ensemble", "ensemble.run_ensemble", "replicas"),
    ("urnsir.reports", "run_clock_ensemble", "ensemble.run_clock_ensemble",
     None),
    *[("urnsir.ensemble:EnsembleResult", name, "ensemble.field_reductions",
       None)
      for name in ("indicator", "mean_indicator", "mu", "theta", "eta",
                   "beta", "state_codes", "state_counts")],
    ("urnsir.reports", "solve_density", "hydro.solve_density", "rk4"),
    ("urnsir.fluctuation", "solve_density", "hydro.solve_density", "rk4"),
    ("urnsir.cli", "solve_density", "hydro.solve_density", "rk4"),
    ("urnsir.cli", "write_density_csv", "hydro.write_density_csv", None),
    ("urnsir.fluctuation:PanelSeries", "__init__",
     "fluctuation.PanelSeries.init", None),
    ("urnsir.reports", "evolve_covariance", "fluctuation.evolve_covariance",
     "lyapunov"),
    ("urnsir.cli", "evolve_covariance", "fluctuation.evolve_covariance",
     "lyapunov"),
    ("urnsir.reports", "pair_covariance", "fluctuation.pair_covariance", None),
    ("urnsir.cli", "write_covariance_csv", "fluctuation.write_covariance_csv",
     None),
    ("urnsir.cli", "write_pair_csv", "fluctuation.write_pair_csv", None),
    ("urnsir.cli", "classic_clt_covariance",
     "homogeneous.classic_clt_covariance", None),
    ("urnsir.cli", "oracle_report", "reports.oracle", None),
    ("urnsir.cli", "lln_report", "reports.lln", None),
    ("urnsir.cli", "covariance_decay_report", "reports.cov", None),
    ("urnsir.cli", "covariance_anchor_report", "reports.cov", None),
    ("urnsir.cli", "clt_report", "reports.clt", None),
    ("urnsir.cli", "dynkin_report", "reports.dynkin", None),
    ("urnsir.reports", "construction_report", "reports.construction", None),
    ("urnsir.cli", "write_report_csv", "reports.write_report_csv", None),
    ("urnsir.cli", "load_config", "config.load_config", None),
    ("urnsir.cli", "main", "cli.main", None),
]

# metric -> (span name, quantity); quantity is calls, self_s or s (total)
SPAN_METRICS = {
    "streams.derive_rng.calls": ("streams.derive_rng", "calls"),
    "streams.derive_rng.self_s": ("streams.derive_rng", "self_s"),
    "model.sample_initial.self_s": ("model.sample_initial", "self_s"),
    "gillespie.Simulation.init.self_s": ("gillespie.Simulation.init", "self_s"),
    "gillespie.snapshot_states.self_s": ("gillespie.snapshot_states", "self_s"),
    "gillespie.simulate.self_s": ("gillespie.simulate", "self_s"),
    "fields.site_matrix.self_s": ("fields.site_matrix", "self_s"),
    "fields.node_average.self_s": ("fields.node_average", "self_s"),
    "graphical.ClockTable.self_s": ("graphical.ClockTable", "self_s"),
    "graphical.state_from_clocks.calls": ("graphical.state_from_clocks",
                                          "calls"),
    "graphical.state_from_clocks.self_s": ("graphical.state_from_clocks",
                                           "self_s"),
    "oracle.build_generator.s": ("oracle.build_generator", "s"),
    "oracle.transient_distribution.s": ("oracle.transient_distribution", "s"),
    "ensemble.run_ensemble.self_s": ("ensemble.run_ensemble", "self_s"),
    "ensemble.run_clock_ensemble.self_s": ("ensemble.run_clock_ensemble",
                                           "self_s"),
    "ensemble.field_reductions.self_s": ("ensemble.field_reductions",
                                         "self_s"),
    "hydro.solve_density.s": ("hydro.solve_density", "s"),
    "hydro.write_density_csv.s": ("hydro.write_density_csv", "s"),
    "fluctuation.PanelSeries.init.s": ("fluctuation.PanelSeries.init", "s"),
    "fluctuation.evolve_covariance.s": ("fluctuation.evolve_covariance", "s"),
    "fluctuation.write_covariance_csv.s": ("fluctuation.write_covariance_csv",
                                           "s"),
    "fluctuation.write_pair_csv.s": ("fluctuation.write_pair_csv", "s"),
    "homogeneous.classic_clt_covariance.s": (
        "homogeneous.classic_clt_covariance", "s"),
    "reports.oracle.self_s": ("reports.oracle", "self_s"),
    "reports.construction.self_s": ("reports.construction", "self_s"),
    "reports.cov.self_s": ("reports.cov", "self_s"),
    "reports.lln.self_s": ("reports.lln", "self_s"),
    "reports.dynkin.self_s": ("reports.dynkin", "self_s"),
    "reports.clt.self_s": ("reports.clt", "self_s"),
    "reports.write_report_csv.s": ("reports.write_report_csv", "s"),
    "config.load_config.s": ("config.load_config", "s"),
}

def _engine(spec) -> str:
    # the simulator's rule: constant kernel and recovery rate -> O(1) engine
    uniform = (spec.lam.constant_value() is not None
               and spec.psi.constant_value() is not None)
    return "uniform" if uniform else "general"


class Tracer:
    """In-memory spans: name index, parent span, start and end times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.notes: dict[int, tuple] = {}
        self.last_initial = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    # -- notes taken after a span closes (their cost lands in the parent) --

    def note(self, kind: str, sid: int, args, kwargs, out) -> None:
        if kind == "initial":
            self.last_initial = args[0].initial.states
        elif kind == "states":
            spec = args[0]
            times = args[2] if len(args) > 2 else kwargs["times"]
            times = sorted(float(t) for t in times)
            if (times and abs(times[-1] - spec.T) <= 1e-12
                    and self.last_initial is not None):
                first, last = self.last_initial, out[-1]
                events = int(((first == 0) & (last != 0)).sum()
                             + (last == -1).sum())
                self.notes[sid] = ("event", _engine(spec), events)
        elif kind == "trajectory":
            self.notes[sid] = ("event", _engine(args[0]), len(out.events))
        elif kind == "replicas":
            self.notes[sid] = ("replica", args[0].replicas)
        elif kind == "rk4":
            self.notes[sid] = ("rk4", out.times.size - 1)
        elif kind == "lyapunov":
            self.notes[sid] = ("lyapunov", args[0].n_steps)

    # -- reductions --------------------------------------------------------

    def _durations(self):
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def per_layer(self) -> dict:
        """Per-layer metric values for the spans recorded so far."""
        dur, self_t = self._durations()
        totals: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            acc = totals.setdefault(self.names[nid], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += self_t[i]
        out = {}
        for metric, (span, qty) in SPAN_METRICS.items():
            calls, total, own = totals.get(span, (0, 0.0, 0.0))
            out[metric] = {"calls": calls, "s": total, "self_s": own}[qty]

        work = {"general": [0.0, 0], "uniform": [0.0, 0], "replica": [0.0, 0],
                "rk4": [0.0, 0], "lyapunov": [0.0, 0]}
        for sid, note in self.notes.items():
            if note[0] == "event":
                work[note[1]][0] += self_t[sid]
                work[note[1]][1] += note[2]
            else:
                work[note[0]][0] += dur[sid]
                work[note[0]][1] += note[1]

        def rate(key: str, scale: float) -> float:
            seconds, count = work[key]
            return scale * seconds / count if count else 0.0

        out["gillespie.us_per_event.general"] = rate("general", 1e6)
        out["gillespie.us_per_event.uniform"] = rate("uniform", 1e6)
        out["ensemble.us_per_replica"] = rate("replica", 1e6)
        out["hydro.us_per_rk4_step"] = rate("rk4", 1e6)
        out["fluctuation.ms_per_lyapunov_step"] = rate("lyapunov", 1e3)
        return out

    def write_json(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [[i, self.parent[i], self.names[self.name[i]],
                  round(self.start[i] - t0, 9), round(self.end[i] - t0, 9)]
                 for i in range(len(self.name))]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": spans}, fh)


def _wrap(tracer: Tracer, fn, span: str, note: str | None):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if note is not None:
            tracer.note(note, sid, args, kwargs, out)
        return out

    return traced


class MissingTarget(Exception):
    """The package no longer has a function the traced run wraps."""


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    A target the package no longer has raises MissingTarget before any
    wrapper is installed: its metrics would otherwise read 0, which looks
    like a gain.  A change that renames a traced function updates TARGETS.
    """
    found = []
    missing = []
    for owner, attr, span, note in TARGETS:
        mod_name, _, cls_name = owner.partition(":")
        obj = importlib.import_module(mod_name)
        if cls_name:
            obj = getattr(obj, cls_name, None)
        original = None if obj is None else vars(obj).get(attr)
        if original is None:
            missing.append(f"{owner}.{attr}")
        else:
            found.append((obj, attr, original, span, note))
    if missing:
        raise MissingTarget("not in the package: " + ", ".join(missing))
    try:
        for obj, attr, original, span, note in found:
            setattr(obj, attr, _wrap(tracer, original, span, note))
        yield
    finally:
        for obj, attr, original, _, _ in reversed(found):
            setattr(obj, attr, original)
