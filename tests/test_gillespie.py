import csv
import io
import json

import numpy as np
import pytest
from scipy import stats

from urnsir.fields import Kernel, ScalarField
from urnsir.gillespie import (
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
from urnsir.model import (
    Configuration,
    INFECTED,
    ModelSpec,
    REMOVED,
    SUSCEPTIBLE,
)
from urnsir.oracle import (
    build_generator,
    initial_distribution,
    transient_distribution,
)


def uniform_spec(n=30, lam=1.5, psi=1.0, phi=0.4, T=2.0):
    return ModelSpec(
        lam=Kernel.constant(lam),
        psi=ScalarField.constant(psi),
        phi=ScalarField.constant(phi),
        N=n,
        T=T,
    )


def general_spec(n=30, T=2.0):
    return ModelSpec(
        lam=Kernel.separable(
            ScalarField.affine(0.8, 0.9), ScalarField.affine(1.4, -0.6)
        ),
        psi=ScalarField.affine(0.6, 0.7),
        phi=ScalarField.affine(0.2, 0.4),
        N=n,
        T=T,
    )


def walk_and_check(traj):
    """Replay events while asserting every structural event invariant."""
    states = traj.initial.states.copy()
    last_t = traj.initial.time
    for t, kind, urn, source in traj.events.tolist():
        assert t > last_t
        last_t = t
        if kind == RECOVERY:
            assert source == 0
            assert states[urn - 1] == INFECTED
            states[urn - 1] = REMOVED
        else:
            assert kind == INFECTION
            assert source != 0 and source != urn
            assert states[urn - 1] == SUSCEPTIBLE
            assert states[source - 1] == INFECTED
            states[urn - 1] = INFECTED
    assert last_t <= traj.spec.T
    return states


def trajectory(events, n=2, snapshot_times=(), snapshots=None):
    """Hand-built trajectory; events are (time, kind, urn, source) rows."""
    init = Configuration(states=np.resize([1, 0], n), time=0.0)
    if snapshots is None:
        snapshots = np.zeros((len(snapshot_times), n), dtype=np.int8)
    return Trajectory(spec=uniform_spec(n=n), seed=0, initial=init,
                      events=events, snapshot_times=snapshot_times,
                      snapshots=snapshots)


class TestEventObjects:
    def test_kind_and_source_validation(self):
        trajectory([(1.0, RECOVERY, 1, 0), (1.5, INFECTION, 2, 1)])
        with pytest.raises(ValueError, match="kind"):
            trajectory([(1.0, 2, 1, 0)])
        with pytest.raises(ValueError, match="kind"):
            trajectory([(1.0, -1, 1, 0)])
        with pytest.raises(ValueError, match="source"):
            trajectory([(1.0, RECOVERY, 1, 2)])
        with pytest.raises(ValueError, match="source"):
            trajectory([(1.0, INFECTION, 1, 0)])

    def test_trajectory_orders_events(self):
        with pytest.raises(ValueError, match="increasing"):
            trajectory([(0.5, RECOVERY, 1, 0), (0.3, INFECTION, 2, 1)])
        with pytest.raises(ValueError, match="increasing"):
            trajectory([(0.5, RECOVERY, 1, 0), (0.5, INFECTION, 2, 1)])
        with pytest.raises(ValueError, match="initial time"):
            trajectory([(0.0, RECOVERY, 1, 0)])

    def test_snapshot_rows_match_times(self):
        trajectory([], snapshot_times=(0.5, 1.0))
        with pytest.raises(ValueError, match="snapshot"):
            trajectory([], snapshot_times=(0.5,),
                       snapshots=np.zeros((2, 2), dtype=np.int8))


class TestEngines:
    def test_engine_choice_follows_spec(self):
        assert Simulation(uniform_spec(), 0)._uniform
        assert not Simulation(general_spec(), 0)._uniform
        # one non-constant input is enough to force the general engine
        mixed = ModelSpec(
            lam=Kernel.constant(1.0),
            psi=ScalarField.affine(0.5, 0.5),
            phi=ScalarField.constant(0.4),
            N=5,
            T=1.0,
        )
        assert not Simulation(mixed, 0)._uniform

    @pytest.mark.parametrize("spec", [uniform_spec(), general_spec()])
    def test_deterministic_in_seed(self, spec):
        a = simulate(spec, 11, snapshot_times=(0.7, 2.0))
        b = simulate(spec, 11, snapshot_times=(0.7, 2.0))
        np.testing.assert_array_equal(a.events, b.events)
        np.testing.assert_array_equal(a.snapshots, b.snapshots)
        assert not np.array_equal(simulate(spec, 12).events, a.events)

    @pytest.mark.parametrize("spec", [uniform_spec(), general_spec()])
    def test_event_invariants(self, spec):
        for seed in range(8):
            walk_and_check(simulate(spec, seed))

    def test_no_kernel_evaluation_after_setup(self, monkeypatch):
        # stepping reads only the site factors taken at set-up, at any N
        sim = Simulation(general_spec(n=3000), 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("kernel evaluated while stepping")

        for name in ("__call__", "site_matrix", "node_average"):
            monkeypatch.setattr(Kernel, name, forbidden)
        for _ in range(200):
            assert sim.step() is not None

    def test_zero_kernel_rows_never_infected(self):
        # h1 vanishes on [0, 3/5], so the urns there feel no pressure
        spec = ModelSpec(
            lam=Kernel.separable(
                ScalarField.table([0.0, 0.0, 0.0, 1.0, 2.0]),
                ScalarField.constant(3.0),
            ),
            psi=ScalarField.affine(0.5, 0.5),
            phi=ScalarField.constant(0.5),
            N=20,
            T=1e6,
        )
        immune = spec.lam.h1.at_sites(spec.N) == 0.0
        assert immune.any() and not immune.all()
        infections = 0
        for seed in range(50):
            traj = simulate(spec, seed)
            infected = traj.events["urn"][traj.events["kind"] == INFECTION]
            infections += infected.size
            assert not immune[infected - 1].any()
        assert infections > 0

    def test_absorption_stops_iteration(self):
        spec = uniform_spec(n=4, T=1e6)
        sim = Simulation(spec, 5)
        while sim.step() is not None:
            pass
        assert sim.absorbed
        assert sim.step() is None
        assert not np.any(sim.states == INFECTED)


class TestLaws:
    def test_single_urn_recovery_time_uniform_engine(self):
        psi0 = 1.3
        spec = uniform_spec(n=1, psi=psi0, phi=1.0, T=50.0)
        times = []
        for seed in range(4000):
            traj = simulate(spec, seed)
            assert len(traj.events) == 1
            times.append(traj.events["time"][0])
        res = stats.kstest(times, "expon", args=(0.0, 1.0 / psi0))
        assert res.pvalue > 1e-3

    def test_single_urn_recovery_time_general_engine(self):
        # affine psi with psi(1) = 1.0 forces the cumsum engine
        spec = ModelSpec(
            lam=Kernel.constant(1.0),
            psi=ScalarField.affine(0.7, 0.3),
            phi=ScalarField.constant(1.0),
            N=1,
            T=50.0,
        )
        times = [simulate(spec, seed).events["time"][0] for seed in range(4000)]
        res = stats.kstest(times, "expon", args=(0.0, 1.0))
        assert res.pvalue > 1e-3

    def test_general_engine_matches_oracle_chi_square(self):
        # full-state distribution at t = 1 against the exact chain, with
        # small expected cells pooled
        spec = ModelSpec(
            lam=Kernel.table(
                [[1.0, 2.5, 0.5], [2.0, 1.0, 3.0], [0.7, 1.2, 2.2]]
            ),
            psi=ScalarField.affine(0.5, 0.8),
            phi=ScalarField.table([0.2, 0.5, 0.7]),
            N=3,
            T=1.0,
        )
        reps = 4000
        gen = build_generator(spec)
        dist = transient_distribution(gen, initial_distribution(spec), 1.0)
        powers = 3 ** np.arange(3)
        counts = np.zeros(27)
        for seed in range(reps):
            row = snapshot_states(spec, seed, (1.0,))[0]
            counts[int((row + 1) @ powers)] += 1
        expected = reps * dist
        big = expected >= 5.0
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        chi2 = float(((obs - exp) ** 2 / np.maximum(exp, 1e-12)).sum())
        p = stats.chi2.sf(chi2, df=obs.size - 1)
        assert p > 1e-3


class TestSnapshots:
    @pytest.mark.parametrize("spec", [uniform_spec(), general_spec()])
    def test_snapshots_match_replay(self, spec):
        times = (0.0, 0.5, 1.1, 2.0)
        traj = simulate(spec, 21, snapshot_times=times)
        assert traj.snapshot_times.tolist() == list(times)
        assert traj.snapshots.shape == (len(times), spec.N)
        np.testing.assert_array_equal(traj.snapshots, replay(traj, times))

    @pytest.mark.parametrize("spec", [uniform_spec(), general_spec()])
    def test_snapshot_exactly_at_event_includes_it(self, spec):
        first = simulate(spec, 33)
        assert len(first.events) >= 2
        t_ev = first.events["time"][1]
        traj = simulate(spec, 33, snapshot_times=(t_ev,))
        ref = replay(first, (t_ev,))
        np.testing.assert_array_equal(traj.snapshots, ref)
        assert not np.array_equal(ref, replay(first, (np.nextafter(t_ev, 0),)))

    @pytest.mark.parametrize("spec", [uniform_spec(), general_spec()])
    def test_snapshot_states_agrees_with_trajectory(self, spec):
        times = (0.25, 0.9, 1.7)
        traj = simulate(spec, 44, snapshot_times=times)
        rows = snapshot_states(spec, 44, times)
        assert rows.shape == (len(times), spec.N)
        np.testing.assert_array_equal(rows, traj.snapshots)

    @pytest.mark.parametrize("spec", [uniform_spec(), general_spec()])
    def test_snapshot_states_stops_after_last_row(self, spec, monkeypatch):
        t = 0.4
        traj = simulate(spec, 44)
        before = int((traj.events["time"] <= t).sum())
        assert len(traj.events) > before + 1
        calls = []
        step = Simulation.step

        def counted(sim):
            calls.append(None)
            return step(sim)

        monkeypatch.setattr(Simulation, "step", counted)
        rows = snapshot_states(spec, 44, (t,))
        assert len(calls) <= 1 + before
        np.testing.assert_array_equal(rows, replay(traj, (t,)))
        calls.clear()
        assert snapshot_states(spec, 44, ()).shape == (0, spec.N)
        assert not calls

    def test_snapshot_time_validation(self):
        spec = uniform_spec(T=1.0)
        with pytest.raises(ValueError):
            simulate(spec, 0, snapshot_times=(-0.1,))
        with pytest.raises(ValueError):
            simulate(spec, 0, snapshot_times=(1.5,))

    def test_snapshot_after_absorption_is_final_state(self):
        spec = uniform_spec(n=3, T=100.0)
        traj = simulate(spec, 7, snapshot_times=(100.0,))
        final = walk_and_check(traj)
        np.testing.assert_array_equal(traj.snapshots[0], final)


class TestFileFormats:
    def test_events_ndjson_schema(self, tmp_path):
        traj = simulate(uniform_spec(), 5)
        path = tmp_path / "events.ndjson"
        write_events_ndjson(traj, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(traj.events)
        for line, ev in zip(lines, traj.events):
            obj = json.loads(line)
            assert set(obj) == {"t", "kind", "urn", "source"}
            assert obj["t"] == ev["time"]
            assert obj["kind"] in ("recovery", "infection")
            assert (obj["source"] is None) == (obj["kind"] == "recovery")

    def test_events_ndjson_bytes(self, tmp_path):
        """Bytes of json.dumps of the documented schema, LF-terminated."""
        events = [
            (5e-324, INFECTION, 2, 1), (0.1 * 3, RECOVERY, 1, 0),
            (1 / 3, INFECTION, 3, 2), (1e16, RECOVERY, 2, 0),
        ]
        path = tmp_path / "events.ndjson"
        write_events_ndjson(trajectory(events, n=3), path)
        expected = "".join(
            json.dumps({"t": t, "kind": kind, "urn": urn, "source": source})
            + "\n"
            for t, kind, urn, source in (
                (5e-324, "infection", 2, 1), (0.1 * 3, "recovery", 1, None),
                (1 / 3, "infection", 3, 2), (1e16, "recovery", 2, None),
            )
        )
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("n, times", [
        (1, [-0.0, 5e-324, 0.1 * 3, 1 / 3, 1e16]), (5, [0.1 * 3, 1 / 3]),
        (1, [0.1 * 3]), (5, [1 / 3]),
    ])
    def test_snapshots_csv_bytes(self, tmp_path, n, times):
        """Bytes of csv.writer rows: time %.10g, urn and state as ints."""
        spec = uniform_spec(n=n)
        snaps = np.array([np.roll(np.resize([1, 0, -1], n), k)
                          for k in range(len(times))], dtype=np.int8)
        init = Configuration(states=snaps[0], time=times[0])
        traj = Trajectory(spec=spec, seed=0, initial=init, events=[],
                          snapshot_times=times, snapshots=snaps)
        path = tmp_path / "snapshots.csv"
        write_snapshots_csv(traj, path)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["time", "urn", "state"])
        for t, snap in zip(times, snaps):
            for urn, state in enumerate(snap, start=1):
                writer.writerow([f"{t:.10g}", urn, int(state)])
        assert path.read_bytes() == buf.getvalue().encode()

    def test_snapshots_csv_schema(self, tmp_path):
        traj = simulate(uniform_spec(n=4), 5, snapshot_times=(0.5, 2.0))
        path = tmp_path / "snapshots.csv"
        write_snapshots_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "urn", "state"]
        assert len(rows) == 1 + 2 * 4
        urns = [int(r[1]) for r in rows[1:5]]
        assert urns == [1, 2, 3, 4]
        assert all(int(r[2]) in (-1, 0, 1) for r in rows[1:])
