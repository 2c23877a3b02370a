"""Plant model: integration, fault injection, parameter noise, traces."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tankfdi import harness, plant
from tankfdi.plant import FaultEvent, FaultScenario, PlantParams, SimulationDiverged

from conftest import OPERATING_INPUTS
from oracle import (PlantState, column, coupling_flows, measure, perturb_params,
                    plant_params_dict, simulate, step, valve_flow)


class TestParams:
    def test_defaults_valid(self):
        PlantParams()

    @pytest.mark.parametrize("field", ["C1", "C2", "C3", "R1", "R2", "R3", "R12", "R23",
                                       "valve"])
    def test_rejects_nonpositive(self, field):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"PlantParams.{field} must be finite and "
                                                 f"positive, got {value!r}"):
                PlantParams(**{field: value})

    def test_fields(self):
        # the valve law has one constant
        assert tuple(PlantParams.__dataclass_fields__) == (
            "C1", "C2", "C3", "R1", "R2", "R3", "R12", "R23", "valve")

    def test_dict_round_trip(self, params):
        assert plant.from_json(PlantParams, plant_params_dict(params), "plant config") == params


class TestStep:
    def test_zero_equilibrium(self, params):
        state = PlantState(0, 0, 0, 0)
        nxt = step(state, (0.0, 0.0), params, dt=0.5)
        assert (nxt.De1, nxt.De2, nxt.De3) == (0.0, 0.0, 0.0)

    def test_nonlinear_zero_coupling_at_equal_pressures(self, params):
        df1, df2 = coupling_flows(2.0, 0.5, 0.5, params, mode="nonlinear")
        assert df2 == 0.0
        assert df1 > 0.0

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_nonlinear_coupling_is_odd(self, a, b):
        p = PlantParams()
        q_ab, _ = coupling_flows(a, b, 0.0, p, mode="nonlinear")
        q_ba, _ = coupling_flows(b, a, 0.0, p, mode="nonlinear")
        assert q_ab == -q_ba

    @pytest.mark.parametrize("params", [PlantParams(),
                                        PlantParams(valve=1e-300)])
    def test_valve_law_equal_on_floats_arrays_and_math(self, params):
        # signed zeros, subnormals, overflow, infinities and NaN, bit for bit;
        # the tiny valve constant of the second plant underflows the flow
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.3, -1.0, 1e308, -1e308,
                  math.inf, -math.inf, math.nan]
        pairs = list(itertools.product(values, values))
        hi, hj = np.array(pairs).T
        with np.errstate(over="ignore", invalid="ignore"):
            on_arrays, _ = plant._flows(hi, hj, hj, 1.0, 1.0, params, "nonlinear")
            for (a, b), flow in zip(pairs, on_arrays):
                on_floats, _ = plant._flows(a, b, b, 1.0, 1.0, params, "nonlinear")
                expected = np.float64(valve_flow(a, b, params)).tobytes()
                assert np.float64(on_floats).tobytes() == flow.tobytes() == expected, (a, b)

    def test_divergence_reports_variable_and_time(self, params):
        state = PlantState(1e308, 0, 0, 41.5)
        with pytest.raises(SimulationDiverged) as err:
            step(state, (0.0, 0.0), params, dt=1e6)
        assert "De" in str(err.value)
        assert err.value.t > 41.5

    def test_unknown_mode_rejected(self, params):
        with pytest.raises(ValueError):
            step(PlantState(), (0, 0), params, 0.1, mode="quadratic")


class TestMeasure:
    def test_no_events_passthrough(self, params):
        state = PlantState(1.0, 0.5, 0.8, 3.0)
        frame = measure(state, (1.0, 0.8), params)
        assert frame.De1 == 1.0 and frame.De2 == 0.5 and frame.De3 == 0.8
        assert frame.Msf1 == 1.0 and frame.Msf2 == 0.8
        assert frame.Df1 == pytest.approx((1.0 - 0.5) / params.R12)
        assert frame.Df2 == pytest.approx((0.8 - 0.5) / params.R23)

    def test_step_event_boundary(self, params):
        state = PlantState(1.0, 0.5, 0.8, 0.0)
        ev = FaultEvent("De1", start=30.0, magnitude=0.5)
        before = measure(state, (1, 1), params, [ev], t=29.9)
        at = measure(state, (1, 1), params, [ev], t=30.0)
        assert before.De1 == 1.0
        assert at.De1 == 1.5

    def test_opposite_steps_cancel(self, params):
        state = PlantState(1.0, 0.5, 0.8, 0.0)
        events = [FaultEvent("De1", 0.0, 0.5), FaultEvent("De1", 0.0, -0.5)]
        frame = measure(state, (1, 1), params, events, t=5.0)
        assert frame.De1 == 1.0

    def test_ramp_profile_grows_linearly(self, params):
        state = PlantState(0, 0, 0, 0)
        ev = FaultEvent("Msf2", start=2.0, magnitude=0.25, profile="ramp")
        assert measure(state, (0, 0), params, [ev], t=1.9).Msf2 == 0.0
        assert measure(state, (0, 0), params, [ev], t=6.0).Msf2 == pytest.approx(1.0)

    def test_fault_touches_only_target_channel(self, params):
        # sensor/actuator reading faults never feed back into the state
        ev = FaultEvent("Df1", 2.0, 1.5)
        clean = FaultScenario(seed=9, duration=10.0, dt=0.1)
        faulty = FaultScenario(seed=9, duration=10.0, dt=0.1, events=(ev,))
        t_clean = plant.run(clean, params, OPERATING_INPUTS)
        t_faulty = plant.run(faulty, params, OPERATING_INPUTS)
        diff = t_faulty.signals - t_clean.signals
        idx = plant.VARIABLE_INDEX["Df1"]
        others = np.delete(diff, idx, axis=1)
        assert np.all(others == 0.0)
        assert np.all(diff[21:, idx] == pytest.approx(1.5))

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("De9", 0.0, 1.0)


class TestPerturbParams:
    def test_zero_noise_is_identity(self, params, rng):
        assert perturb_params(params, 0.0, 0.0, rng) == params

    def test_fixed_seed_regression(self, params):
        rng = np.random.default_rng(77)
        got = perturb_params(params, 0.05, 0.05, rng)
        # pinned from a recorded run; guards the draw order and formula
        expected = np.random.default_rng(77).standard_normal(8)
        assert got.R1 == pytest.approx(params.R1 * (1 + 0.05 * expected[0]))
        assert got.R23 == pytest.approx(params.R23 * (1 + 0.05 * expected[4]))
        assert got.C3 == pytest.approx(params.C3 * (1 + 0.05 * expected[7]))

    def test_sample_mean_near_nominal(self, params):
        rng = np.random.default_rng(5)
        draws = [perturb_params(params, 0.05, 0.0, rng).R1
                 for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(params.R1, rel=0.005)

    def test_floor_keeps_values_positive(self, params):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = perturb_params(params, 5.0, 5.0, rng)
            assert p.R1 >= 0.01 * params.R1
            assert p.C1 >= 0.01 * params.C1

    @pytest.mark.parametrize("noise", [(0.05, 0.05), (0.05, 0.0), (0.0, 0.05),
                                       (0.0, 0.0), (5.0, 5.0)])
    def test_noise_table_rows_equal_per_step_draws(self, noise):
        params = PlantParams(R1=3.0, R23=0.5, C2=2.0)
        sc = FaultScenario(seed=31, duration=3.0, dt=0.1,
                           noise_std_R=noise[0], noise_std_C=noise[1])
        table = plant.noise_table(sc, params, 31)
        assert table.shape == (31, len(plant.NOISY_PARAMS))
        rng = np.random.default_rng(sc.seed)
        for row in table:
            step = (perturb_params(params, *noise, rng)
                    if noise != (0.0, 0.0) else params)
            expected = [getattr(step, name) for name in plant.NOISY_PARAMS]
            assert row.tobytes() == np.array(expected).tobytes()


class TestRun:
    def test_frame_count(self, params):
        sc = FaultScenario(seed=0, duration=10.0, dt=0.1)
        trace = plant.run(sc, params, OPERATING_INPUTS)
        assert len(trace) == 101

    def test_identical_seeds_identical_traces(self, params):
        sc = FaultScenario(seed=4, duration=5.0, dt=0.1,
                           noise_std_R=0.05, noise_std_C=0.05)
        a = plant.run(sc, params, OPERATING_INPUTS)
        b = plant.run(sc, params, OPERATING_INPUTS)
        assert np.array_equal(a.signals, b.signals)

    def test_different_seeds_differ_under_noise(self, params):
        base = dict(duration=5.0, dt=0.1, noise_std_R=0.05, noise_std_C=0.05)
        a = plant.run(FaultScenario(seed=1, **base), params, OPERATING_INPUTS)
        b = plant.run(FaultScenario(seed=2, **base), params, OPERATING_INPUTS)
        assert not np.array_equal(a.signals, b.signals)

    def test_starts_at_operating_point(self, params):
        sc = FaultScenario(seed=0, duration=2.0, dt=0.1)
        trace = plant.run(sc, params, OPERATING_INPUTS)
        ss = PlantState(*plant.steady_state(OPERATING_INPUTS, params))
        assert column(trace, "De1")[0] == pytest.approx(ss.De1)
        # equilibrium start: signals stay flat without faults or noise
        assert np.ptp(column(trace, "De2")) < 1e-12

    def test_bounded_approach_to_steady_state(self, params):
        sc = FaultScenario(seed=0, duration=60.0, dt=0.1)
        trace = simulate(sc, params, OPERATING_INPUTS, PlantState(0, 0, 0, 0))
        ss = PlantState(*plant.steady_state(OPERATING_INPUTS, params))
        for name in ("De1", "De2", "De3"):
            col = column(trace, name)
            assert col.max() <= max(0.0, getattr(ss, name)) + 1e-9
            assert col[-1] == pytest.approx(getattr(ss, name), rel=1e-6)

    def test_nonlinear_mode_runs_and_differs(self, params):
        sc = FaultScenario(seed=0, duration=5.0, dt=0.1)
        lin = plant.run(sc, params, OPERATING_INPUTS)
        nonlin = plant.run(sc, params, OPERATING_INPUTS, mode="nonlinear")
        assert not np.array_equal(lin.signals, nonlin.signals)
        assert np.isfinite(nonlin.signals).all()

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_equals_per_frame_loop(self, mode):
        # the loop run replaces, oracle.simulate from the steady state:
        # per-step perturbed params, a measured frame with the active
        # offsets, then one RK4 step from that frame's time
        params = PlantParams(R2=3.0, C3=0.7)
        sc = FaultScenario(seed=12, duration=4.0, dt=0.1,
                           noise_std_R=0.03, noise_std_C=0.04,
                           events=(FaultEvent("De2", 1.0, 0.5),
                                   FaultEvent("Df1", 2.0, -0.3, "ramp"),
                                   FaultEvent("De2", 3.0, -0.5)))
        trace = plant.run(sc, params, OPERATING_INPUTS, mode=mode)
        frames = simulate(sc, params, OPERATING_INPUTS,
                          PlantState(*plant.steady_state(OPERATING_INPUTS, params)), mode)
        for k in range(len(trace)):
            t = k * sc.dt
            assert trace.times[k] == t
            assert trace.signals[k].tobytes() == frames.signals[k].tobytes()

    @pytest.mark.parametrize("mode, digest", [
        ("linear", "955637e3df982dd5b36d47b446e72ba5b18ac953a1fa6cb21f95e7bfd45d81aa"),
        ("nonlinear", "95f290262401f69cfa8885d54e9ec3d23073271f6fbbf9d9e5c0e80bb0cace4a"),
    ])
    def test_signals_pinned(self, mode, digest):
        # the bytes of a generated suite's runs. Linear: recorded before the
        # float and array integrators shared one output path. Nonlinear:
        # re-pinned when the valve law took its one constant, valve, whose
        # arithmetic rounds differently (signals moved by at most 4.4e-16)
        sha = hashlib.sha256()
        for sc in harness.generate_suite(10, 7):
            sha.update(plant.run(sc, PlantParams(), OPERATING_INPUTS, mode).signals.tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_stiff_plant_diverges(self, mode):
        stiff = PlantParams(C1=1e-8, C2=1e-8, C3=1e-8)
        with pytest.raises(SimulationDiverged) as err:
            plant.run(FaultScenario(duration=50.0, dt=0.5), stiff, (1e6, 0.0), mode)
        assert (err.value.variable, err.value.t, err.value.scenario) == ("De1", 5.5, None)
        assert str(err.value) == "simulation diverged: De1 is non-finite at t=5.5s"

    def test_overflowing_fault_offsets_diverge(self, params):
        # finite events whose measured offsets overflow: a ramp of slope 1e308
        # from t = 1 s passes 1.8e308 at t = 2.8 s; two steps of 1e308 on De1
        # sum to inf at their start, where the pressure itself stays finite
        ramp = FaultScenario(events=(FaultEvent("Df2", 1.0, 1e308, "ramp"),))
        steps = FaultScenario(events=(FaultEvent("De1", 1.0, 1e308),) * 2)
        for sc, message in [(ramp, "Df2 is non-finite at t=2.8s"),
                            (steps, "De1 is non-finite at t=1s")]:
            for mode in ("linear", "nonlinear"):
                with pytest.raises(SimulationDiverged) as err:
                    plant.run(sc, params, OPERATING_INPUTS, mode)
                assert str(err.value) == f"simulation diverged: {message}"
                assert err.value.scenario is None
            with pytest.raises(SimulationDiverged) as err:
                plant.simulate_suite([FaultScenario(), sc], params, OPERATING_INPUTS)
            assert str(err.value) == f"simulation diverged: {message} in scenario 1"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            FaultScenario(duration=1.0, dt=0.0)
        with pytest.raises(ValueError):
            FaultScenario(duration=1.0, dt=0.1,
                          events=(FaultEvent("De1", 5.0, 1.0),))

    @pytest.mark.parametrize("duration, dt", [(20.0, 1e-9), (1.0, 1e-6 - 1e-12)])
    def test_step_count_capped(self, duration, dt):
        # construct only: a run of 2e10 steps would fill memory
        with pytest.raises(ValueError, match=r"duration / dt must be at most 1000000 steps"):
            FaultScenario(duration=duration, dt=dt)

    def test_step_count_at_the_cap_accepted(self):
        assert FaultScenario(duration=1.0, dt=1e-6).dt == 1e-6


class TestSteadyState:
    def test_default_plant(self):
        assert plant.steady_state(OPERATING_INPUTS, PlantParams()) == (
            0.8444444444444444, 0.26666666666666666, 0.7111111111111111)

    @pytest.mark.parametrize("params", [PlantParams(), PlantParams(R2=0.5, R3=2.0)],
                             ids=["default", "other"])
    def test_zero_inputs_give_positive_zeros(self, params):
        # LAPACK's pivoting may leave -0.0, which a trace would print
        pressures = plant.steady_state((0.0, 0.0), params)
        assert pressures == (0.0, 0.0, 0.0)
        assert [math.copysign(1.0, p) for p in pressures] == [1.0, 1.0, 1.0]

    def test_derivatives_vanish(self, rng):
        for _ in range(200):
            r = np.exp(rng.uniform(-3, 3, 8))
            params = PlantParams(**dict(zip(plant.NOISY_PARAMS, r.tolist())))
            inputs = tuple(rng.normal(size=2).tolist())
            de = plant.steady_state(inputs, params)
            derivatives = plant._derivatives(de, inputs, r.tolist(), params, "linear")
            # each tank's flows, to the scale of its largest term
            scale = max(map(abs, inputs)) + max(map(abs, de)) / r[:5].min()
            assert all(abs(d) * c <= 1e-12 * scale for d, c in zip(derivatives, r[5:]))


class TestSimulateSuite:
    def test_rows_equal_scalar_runs(self, params):
        suite = [
            FaultScenario(seed=1, duration=6.0, dt=0.1),
            FaultScenario(seed=2, duration=6.0, dt=0.1, noise_std_R=0.05),
            FaultScenario(seed=3, duration=6.0, dt=0.1, noise_std_C=0.05,
                          events=(FaultEvent("Df2", 2.0, 0.5),
                                  FaultEvent("Df2", 3.0, -0.2, "ramp"))),
        ]
        times, signals = plant.simulate_suite(suite, params, OPERATING_INPUTS)
        assert signals.shape == (3, 61, 7)
        for sc, rows in zip(suite, signals):
            trace = plant.run(sc, params, OPERATING_INPUTS)
            assert times.tobytes() == trace.times.tobytes()
            assert rows.tobytes() == trace.signals.tobytes()
        # a generated suite mixes steps, ramps, compensation pairs and R/C
        # noise on every scenario; one call stacks all 60 along the last axis
        suite = harness.generate_suite(60, 7)
        profiles = {ev.profile for sc in suite for ev in sc.events}
        assert profiles == {"step", "ramp"}
        assert all(sc.noise_std_R > 0 and sc.noise_std_C > 0 for sc in suite)
        times, signals = plant.simulate_suite(suite, params, OPERATING_INPUTS)
        assert signals.shape == (60, len(times), 7)
        for sc, rows in zip(suite, signals):
            trace = plant.run(sc, params, OPERATING_INPUTS)
            assert times.tobytes() == trace.times.tobytes()
            assert rows.tobytes() == trace.signals.tobytes()

    @pytest.mark.parametrize("noise", [0.0, 0.03], ids=["noise-free", "noisy"])
    def test_one_scenario_block_equals_run(self, params, noise):
        # 2.05 s at 0.1 s is not a whole number of steps; a noise-free
        # scenario's noise table is a read-only broadcast of the nominal row
        sc = FaultScenario(seed=5, duration=2.05, dt=0.1, noise_std_R=noise,
                           noise_std_C=noise, events=(FaultEvent("De3", 0.7, 0.4),))
        assert plant.noise_table(sc, params, 3).flags.writeable == (noise > 0)
        times, signals = plant.simulate_suite([sc], params, OPERATING_INPUTS)
        trace = plant.run(sc, params, OPERATING_INPUTS)
        assert signals.shape == (1, 22, 7)
        assert times.tobytes() == trace.times.tobytes()
        assert signals[0].tobytes() == trace.signals.tobytes()

    def test_rejects_mixed_steps(self, params):
        suite = [FaultScenario(duration=2.0, dt=0.1), FaultScenario(duration=2.0, dt=0.2)]
        with pytest.raises(ValueError):
            plant.simulate_suite(suite, params, OPERATING_INPUTS)

    def test_divergence_names_scenario_variable_and_time(self):
        stiff = PlantParams(C1=1e-8, C2=1e-8, C3=1e-8)
        suite = [FaultScenario(seed=s, duration=50.0, dt=0.5) for s in range(2)]
        with pytest.raises(SimulationDiverged) as scalar:
            plant.run(suite[0], stiff, (1e6, 0.0))
        with pytest.raises(SimulationDiverged) as batch:
            plant.simulate_suite(suite, stiff, (1e6, 0.0))
        assert batch.value.scenario == 0
        assert (batch.value.variable, batch.value.t) == (scalar.value.variable,
                                                         scalar.value.t)

    def test_divergence_of_a_later_scenario_on_another_variable(self, params):
        # R/C noise alone makes these diverge: floored capacities are stiff at
        # dt = 0.5. Scenario 1 diverges on De2 at t = 46; scenario 2 earlier,
        # on De3 at t = 34.5. A scenario-by-scenario loop raises scenario 1's.
        base = dict(duration=50.0, dt=0.5)
        suite = [FaultScenario(seed=0, **base),
                 FaultScenario(seed=13, noise_std_C=2.0, **base),
                 FaultScenario(seed=0, noise_std_C=5.0, **base)]
        plant.run(suite[0], params, OPERATING_INPUTS)
        with pytest.raises(SimulationDiverged) as scalar:
            plant.run(suite[1], params, OPERATING_INPUTS)
        assert (scalar.value.variable, scalar.value.t) == ("De2", 46.0)
        with pytest.raises(SimulationDiverged) as later:
            plant.run(suite[2], params, OPERATING_INPUTS)
        assert (later.value.variable, later.value.t) == ("De3", 34.5)
        with pytest.raises(SimulationDiverged) as batch:
            plant.simulate_suite(suite, params, OPERATING_INPUTS)
        assert ((batch.value.scenario, batch.value.variable, batch.value.t)
                == (1, scalar.value.variable, scalar.value.t))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("field", ["C1", "R23", "valve"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_plant_params(self, field, value):
        with pytest.raises(ValueError, match=field):
            PlantParams(**{field: value})

    @pytest.mark.parametrize("field", ["duration", "dt", "noise_std_R", "noise_std_C"])
    def test_scenario_fields(self, field):
        with pytest.raises(ValueError, match=field):
            FaultScenario(**{field: math.inf})

    @pytest.mark.parametrize("field", ["start", "magnitude"])
    def test_event_fields(self, field):
        kwargs = {"start": 1.0, "magnitude": 1.0, field: math.nan}
        with pytest.raises(ValueError, match=field):
            FaultEvent("De1", **kwargs)


class TestScenarioJson:
    def test_round_trip(self):
        sc = FaultScenario(seed=3, duration=12.0, dt=0.05, noise_std_R=0.02,
                           noise_std_C=0.01,
                           events=(FaultEvent("De2", 4.0, -1.2),
                                   FaultEvent("Df2", 4.0, 0.6, "ramp")))
        assert plant.from_json(FaultScenario, plant.to_json(sc), "scenario") == sc

    def test_missing_event_field_named(self):
        obj = {"schema": 1, "duration": 5, "dt": 0.1,
               "events": [{"target": "De1", "start": 1.0}]}
        with pytest.raises(plant.SchemaError) as err:
            plant.from_json(FaultScenario, obj, "scenario")
        assert "magnitude" in str(err.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(plant.SchemaError) as err:
            plant.from_json(FaultScenario, {"schema": 1, "durration": 5},
                            "scenario")
        assert "durration" in str(err.value)

    def test_bad_schema_version(self):
        with pytest.raises(plant.SchemaError):
            plant.from_json(FaultScenario, {"schema": 99}, "scenario")


class TestTraceCsv:
    def test_header_and_rows(self, params, tmp_path):
        sc = FaultScenario(seed=0, duration=1.0, dt=0.1)
        trace = plant.run(sc, params, OPERATING_INPUTS)
        path = tmp_path / "trace.csv"
        plant.write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,Msf1,Msf2,De1,De2,De3,Df1,Df2"
        assert len(lines) == len(trace) + 1
        # full float precision survives a round trip
        first = [float(v) for v in lines[1].split(",")]
        assert first[3] == column(trace, "De1")[0]


class TestFileHelpers:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "x.csv"
        plant.write_csv(("a", "b", "c", "d", "e"),
                        [[0.1, True, np.bool_(False), 3, "x"],
                         [np.float64(-0.0), math.nan, 1e-300, np.int64(7), 2.0]], str(path))
        assert path.read_bytes() == b"a,b,c,d,e\n0.1,1,0,3,x\n-0.0,nan,1e-300,7,2.0\n"

    def test_json_layout_and_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        plant.write_json({"b": [1, 2.5], "a": "z"}, str(path))
        assert path.read_bytes() == b'{\n  "a": "z",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert plant.read_json(str(path), "thing") == {"a": "z", "b": [1, 2.5]}

    def test_invalid_json_names_the_file_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{")
        with pytest.raises(plant.SchemaError, match="thing file is not valid JSON"):
            plant.read_json(str(path), "thing")

    @pytest.mark.parametrize("obj,message", [
        ([1], "thing must be a JSON object"),
        ({"schema": 2}, "unsupported thing schema 2"),
        ({"a": 1, "zz": 2}, r"unknown field\(s\) in thing: \['zz'\]"),
        ({"b": []}, "thing is missing required field 'a'"),
        ({"a": 1, "b": {}}, "thing field 'b' must be a list"),
    ])
    def test_field_check(self, obj, message):
        with pytest.raises(plant.SchemaError, match=message):
            plant.check_fields(obj, "thing", ("a", "b"), required=("a",), lists=("b",))
        plant.check_fields({"schema": 1, "a": 1, "b": []}, "thing", ("a", "b"),
                           required=("a",), lists=("b",))

    def test_shown_cuts_long_values_only(self):
        for value in (1, -1.5e-300, "De9", ["zz"], True, None, "x" * 78):
            assert plant.shown(value) == repr(value)
        for value in (-10**400, "x" * 100_000, list(range(1000)), {"k" * 90: 1}):
            text, full = plant.shown(value), repr(value)
            assert text == full[:40] + "..." + full[-37:]
            assert len(text) == 80
