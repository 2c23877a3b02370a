"""Residual evaluation, signature structure and self-consistency oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tankfdi import plant, residuals
from tankfdi.plant import FaultEvent, FaultScenario, MeasurementFrame
from tankfdi.residuals import (InsufficientHistory, ResidualEvaluator,
                               residual_batch, residual_trace, signature_matrix)

from conftest import OPERATING_INPUTS
from oracle import PlantState, fault_direction, signature_row, simulate


def frame_at(t, msf1, msf2, de1, de2, de3, df1, df2):
    return MeasurementFrame(t, msf1, msf2, de1, de2, de3, df1, df2)


def derivative_from_r1(xs, dt, params, tau=None):
    """Conditioned derivative of De1 at the last sample of ``xs``, read off
    r1 of a trace whose other r1 terms cancel: with unit C1 and R1,
    Msf1 = De1 and Df1 = 0 leave r1 = -dDe1."""
    signals = np.zeros((1, len(xs), 7))
    signals[0, :, 0] = signals[0, :, 2] = xs
    return -residual_batch(signals, dt, params, tau=tau)[0, -1, 0]


class TestDerivativeEstimate:
    def test_constant_signal(self, unit_params):
        assert derivative_from_r1([2.0, 2.0, 2.0], 0.1, unit_params) == 0.0

    def test_affine_signal_exact(self, unit_params):
        xs = [2 * t for t in (0.0, 0.1, 0.2, 0.3)]
        assert derivative_from_r1(xs, 0.1, unit_params) == pytest.approx(2.0)

    def test_quadratic_backward_difference_bias(self, unit_params):
        xs = [t * t for t in (0.8, 0.9, 1.0)]
        # (1.0^2 - 0.9^2) / 0.1 = 1.9, biased 0.1 below the true slope 2.0
        assert derivative_from_r1(xs, 0.1, unit_params) == pytest.approx(1.9)

    def test_insufficient_history(self, unit_params):
        # one frame gives no residual row in batch and raises when streamed
        assert residual_batch(np.ones((1, 1, 7)), 0.1, unit_params).shape == (1, 0, 5)
        with pytest.raises(InsufficientHistory):
            ResidualEvaluator(unit_params, dt=0.1).update(frame_at(0.0, *[1.0] * 7))

    def test_smoothing_converges_to_constant_slope(self, unit_params):
        xs = [3 * t for t in np.arange(0, 5, 0.1)]
        assert derivative_from_r1(xs, 0.1, unit_params, tau=0.3) == pytest.approx(
            3.0, rel=1e-6)

    def test_smoothing_lags_fresh_steps(self, unit_params):
        xs = [0.0] * 10 + [1.0]
        raw = derivative_from_r1(xs, 0.1, unit_params)
        smooth = derivative_from_r1(xs, 0.1, unit_params, tau=0.3)
        assert raw == pytest.approx(10.0)
        assert 0 < smooth < raw

    # -0.1 = -dt divides by zero, -0.05 gives a gain of 2 that overshoots,
    # and NaN or infinity leaves no finite filter
    @pytest.mark.parametrize("tau", [-0.1, -0.05, -1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_tau_rejected(self, unit_params, tau):
        with pytest.raises(ValueError, match="tau must be a finite non-negative number"):
            derivative_from_r1([0.0, 1.0, 2.0], 0.1, unit_params, tau=tau)
        with pytest.raises(ValueError, match="tau must be a finite non-negative number"):
            ResidualEvaluator(unit_params, dt=0.1, tau=tau)

    # a NaN or infinite dt makes the low-pass gain NaN and every residual
    # NaN, which the detector would read as a dropped-out residual
    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_or_non_finite_dt_rejected(self, unit_params, dt):
        with pytest.raises(ValueError, match="dt must be a finite positive number"):
            ResidualEvaluator(unit_params, dt=dt, tau=0.3, spike_window=3)


class TestEvaluateArrs:
    def test_all_zero_frames(self, params):
        z0 = frame_at(0.0, 0, 0, 0, 0, 0, 0, 0)
        z1 = frame_at(0.1, 0, 0, 0, 0, 0, 0, 0)
        stream = ResidualEvaluator(params, dt=0.1)
        with pytest.raises(InsufficientHistory):
            stream.update(z0)
        assert stream.update(z1).as_array().tolist() == [0, 0, 0, 0, 0]

    def test_fault_free_trace_self_consistency(self, params):
        sc = FaultScenario(seed=0, duration=30.0, dt=0.1)
        trace = plant.run(sc, params, OPERATING_INPUTS)
        _, resid = residual_trace(trace, params)
        assert np.abs(resid).max() < 1e-12

    def test_transient_trace_stays_small(self, params):
        # starting off-equilibrium exposes the backward-difference bias,
        # which is bounded by the derivative truncation error, not tiny
        sc = FaultScenario(seed=0, duration=30.0, dt=0.1)
        trace = simulate(sc, params, OPERATING_INPUTS, PlantState(0, 0, 0, 0))
        _, resid = residual_trace(trace, params)
        assert np.abs(resid).max() < 0.1
        assert np.abs(resid[-50:]).max() < 1e-6

    def test_step_fault_on_df1_signature_direction(self, params):
        # at equilibrium, +delta on Df1 shifts (r1, r2, r5) by (-d, +d, -d)
        delta = 0.7
        ev = FaultEvent("Df1", 5.0, delta)
        sc = FaultScenario(seed=0, duration=10.0, dt=0.1, events=(ev,))
        trace = plant.run(sc, params, OPERATING_INPUTS)
        _, resid = residual_trace(trace, params)
        final = resid[-1]
        assert final[0] == pytest.approx(-delta)
        assert final[1] == pytest.approx(+delta)
        assert final[2] == pytest.approx(0.0, abs=1e-12)
        assert final[3] == pytest.approx(0.0, abs=1e-12)
        assert final[4] == pytest.approx(-delta)

    def test_streaming_evaluator_matches_batch(self, params):
        ev = FaultEvent("De2", 2.0, 1.0)
        sc = FaultScenario(seed=8, duration=8.0, dt=0.1,
                           noise_std_R=0.03, noise_std_C=0.03, events=(ev,))
        trace = plant.run(sc, params, OPERATING_INPUTS)
        times, batch = residual_trace(trace, params, tau=0.3, spike_window=3)
        stream = ResidualEvaluator(params, dt=0.1, tau=0.3, spike_window=3)
        with pytest.raises(InsufficientHistory):
            stream.update(trace.frame(0))
        rows = [stream.update(trace.frame(i)).as_array()
                for i in range(1, len(trace))]
        np.testing.assert_allclose(np.array(rows), batch, rtol=0, atol=1e-14)

    def test_requires_previous_frame(self, params):
        # derivative conditioning does not stand in for the missing history
        z = frame_at(0.0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(InsufficientHistory):
            ResidualEvaluator(params, dt=0.1, tau=0.3, spike_window=3).update(z)

    def test_nonlinear_mode_breaks_linear_consistency(self, params):
        # the square-root coupling law is a deliberate model mismatch: the
        # linear residuals no longer vanish on its fault-free traces
        sc = FaultScenario(seed=0, duration=30.0, dt=0.1)
        trace = plant.run(sc, params, OPERATING_INPUTS, mode="nonlinear")
        _, resid = residual_trace(trace, params)
        assert np.abs(resid[-1]).max() > 1e-3


class TestRollingMedian:
    VALUES = (-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf, np.nan)

    @pytest.mark.parametrize("window", [2, 3, 4, 5])
    def test_matches_np_median_of_the_history(self, window):
        # every ordered triple of the values above, ties, infinities and
        # NaN included, as the last three rows of one trace each
        triples = np.array(list(itertools.product(self.VALUES, repeat=3)))
        lead = np.array([2.0, -3.0])
        raw = np.concatenate([np.broadcast_to(lead, (len(triples), 2)), triples],
                             axis=1)[:, :, None]
        raw = np.concatenate([raw, raw[:, ::-1]], axis=2)
        with np.errstate(invalid="ignore"):  # means of inf and -inf
            got = residuals._rolling_median(raw, window)
            want = np.empty_like(raw)
            for k in range(raw.shape[1]):
                want[:, k] = np.median(raw[:, max(0, k - window + 1):k + 1], axis=1)
        np.testing.assert_array_equal(got, want)

    def test_short_trace_uses_warm_up_rows_only(self):
        raw = np.array([[[1.0], [5.0]]])
        np.testing.assert_array_equal(residuals._rolling_median(raw, 3),
                                      [[[1.0], [3.0]]])


class TestResidualBatch:
    def test_each_row_equals_its_own_trace(self, params):
        scenarios = [FaultScenario(seed=s, duration=4.0, dt=0.1, noise_std_R=0.02,
                                   events=(FaultEvent("De2", 1.0 + s, 1.0),))
                     for s in range(3)]
        _, signals = plant.simulate_suite(scenarios, params, OPERATING_INPUTS)
        batch = residuals.residual_batch(signals, 0.1, params, tau=0.3, spike_window=3)
        for sc, rows in zip(scenarios, batch):
            trace = plant.run(sc, params, OPERATING_INPUTS)
            _, want = residuals.residual_trace(trace, params, tau=0.3, spike_window=3)
            assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spike_window", [1, 3])
    @pytest.mark.parametrize("tau", [None, 0.3])
    def test_one_frame_trace_gives_no_rows(self, params, tau, spike_window):
        trace = plant.Trace(np.array([0.0]), np.ones((1, 7)), 0.1)
        times, rows = residual_trace(trace, params, tau=tau, spike_window=spike_window)
        assert times.shape == (0,)
        assert rows.shape == (0, 5)

    @pytest.mark.parametrize("spike_window,tau",
                             [pytest.param(w, 0.3, id=str(w)) for w in (1, 2, 3, 4)]
                             + [pytest.param(w, None, id=f"{w}-raw") for w in (1, 2, 3, 4)])
    def test_streaming_evaluator_equals_batch_exactly(self, params, spike_window, tau):
        # the operator's online loop must reproduce the bank rows bit for bit
        sc = FaultScenario(seed=8, duration=8.0, dt=0.1, noise_std_R=0.03,
                           noise_std_C=0.03,
                           events=(FaultEvent("De2", 2.0, 1.0),
                                   FaultEvent("Msf1", 3.0, 0.2, "ramp")))
        trace = plant.run(sc, params, OPERATING_INPUTS)
        _, batch = residual_trace(trace, params, tau=tau, spike_window=spike_window)
        stream = ResidualEvaluator(params, dt=0.1, tau=tau, spike_window=spike_window)
        frames = list(trace.frames())
        with pytest.raises(InsufficientHistory):
            stream.update(frames[0])
        rows = np.array([stream.update(f).as_array() for f in frames[1:]])
        assert rows.tobytes() == batch.tobytes()


class TestLinearity:
    @given(seed=st.integers(0, 2**20),
           m1=st.floats(-2, 2), m2=st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_superposition_of_two_faults(self, seed, m1, m2):
        params = plant.PlantParams()
        rng = np.random.default_rng(seed)
        targets = rng.choice(plant.VARIABLES, size=2, replace=False)
        base = dict(duration=6.0, dt=0.1)

        def resid_with(events):
            sc = FaultScenario(seed=0, events=tuple(events), **base)
            tr = plant.run(sc, params, OPERATING_INPUTS)
            return residual_trace(tr, params)[1]

        clean = resid_with([])
        ra = resid_with([FaultEvent(targets[0], 2.0, m1)])
        rb = resid_with([FaultEvent(targets[1], 2.0, m2)])
        rab = resid_with([FaultEvent(targets[0], 2.0, m1),
                          FaultEvent(targets[1], 2.0, m2)])
        np.testing.assert_allclose(rab - clean, (ra - clean) + (rb - clean),
                                   atol=1e-9)

    @given(lam=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_residuals_scale_with_signals(self, lam):
        params = plant.PlantParams()
        sc = FaultScenario(seed=0, duration=5.0, dt=0.1,
                           events=(FaultEvent("Msf1", 1.0, 0.5),))
        base = simulate(sc, params, OPERATING_INPUTS, PlantState(0.1, 0.2, 0.3, 0.0))
        scaled_inputs = (OPERATING_INPUTS[0] * lam, OPERATING_INPUTS[1] * lam)
        sc2 = FaultScenario(seed=0, duration=5.0, dt=0.1,
                            events=(FaultEvent("Msf1", 1.0, 0.5 * lam),))
        scaled = simulate(sc2, params, scaled_inputs,
                          PlantState(0.1 * lam, 0.2 * lam, 0.3 * lam, 0.0))
        _, r1 = residual_trace(base, params)
        _, r2 = residual_trace(scaled, params)
        np.testing.assert_allclose(r2, lam * r1, rtol=1e-9, atol=1e-12)


class TestSignatureMatrix:
    def test_rows(self):
        sig = signature_matrix()
        assert signature_row(sig, "Msf1") == {1}
        assert signature_row(sig, "Msf2") == {3}
        assert signature_row(sig, "De1") == {1, 5}
        assert signature_row(sig, "De2") == {2, 4, 5}
        assert signature_row(sig, "De3") == {3, 4}
        assert signature_row(sig, "Df1") == {1, 2, 5}
        assert signature_row(sig, "Df2") == {2, 3, 4}

    @given(st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_same_for_any_positive_plant(self, values):
        # the pattern is read off the default plant; every plant has it
        params = plant.PlantParams(**dict(zip(
            ("C1", "C2", "C3", "R1", "R2", "R3", "R12", "R23"), values)))
        response = np.stack(residuals.arr_residuals(np.eye(7), np.zeros((3, 7)), params),
                            axis=1)
        directions = np.array([fault_direction(v, params) for v in plant.VARIABLES])
        matrix = signature_matrix()
        np.testing.assert_array_equal(response != 0, matrix)
        np.testing.assert_array_equal(directions != 0, matrix)

    def test_rows_pairwise_distinct(self):
        sig = signature_matrix()
        rows = [tuple(sig[i]) for i in range(7)]
        assert len(set(rows)) == 7

    def test_matrix_is_immutable(self):
        sig = signature_matrix()
        with pytest.raises(ValueError):
            sig[0, 0] = False

    def test_fault_directions_match_simulation(self, params):
        # independent route: inject each fault, measure settled residual shift
        for var in plant.VARIABLES:
            delta = 1.3
            sc = FaultScenario(seed=0, duration=10.0, dt=0.1,
                               events=(FaultEvent(var, 3.0, delta),))
            tr = plant.run(sc, params, OPERATING_INPUTS)
            _, resid = residual_trace(tr, params)
            np.testing.assert_allclose(resid[-1], delta * fault_direction(var, params),
                                       atol=1e-9)
            support = {i + 1 for i in np.flatnonzero(np.abs(resid[-1]) > 1e-9)}
            assert support == signature_row(signature_matrix(), var)


class TestResidualCsv:
    def test_row_alignment_with_leading_zero(self, params, tmp_path):
        sc = FaultScenario(seed=0, duration=1.0, dt=0.1)
        trace = plant.run(sc, params, OPERATING_INPUTS)
        times, resid = residual_trace(trace, params)
        path = tmp_path / "resid.csv"
        residuals.write_residual_csv(times, resid, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,r1,r2,r3,r4,r5"
        assert len(lines) == len(trace) + 1
        assert lines[1].startswith("0.0,")
