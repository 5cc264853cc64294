"""The numpy oracle on its own and against the library's float steps.

``ulm_predict`` absorbs each reconstructed value once, converges on a
constant history and spends the second order's first value priming it,
independently of the twins it checks.  The order-nu laws hold on
hand-worked windows of several orders, and at nu = 2 the general law
agrees with the library's second-order one.  Each float law that the Python
twin calls equals, compared with ``==``, its numpy counterpart in
``oracle`` on drawn inputs, so a change to one law's arithmetic fails
here by name, not only as a differing run in ``test_loop``.

The noise stream matches numpy's for seeds of every width:
``plants._pcg64_seeded``, which seeds both twins, gives ``PCG64``'s state
and increment, and ``plants._pcg64_blocks`` from them the doubles of
``Generator.random``, which the C twin steps one draw at a time."""

import math

import numpy as np
import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st
from loop_runs import SEEDS_OF_EVERY_WIDTH
from oracle import (
    UlmObserverState,
    control_rhs_general,
    forward_difference,
    reconstruct_f,
    sliding_variable,
    ulm_predict,
)

from mfclab import (
    SECOND_ORDER,
    AdaptiveInfluence,
    ControllerConfig,
    FixedInfluence,
    HolderGainParams,
    UlmConfig,
    control_rhs_second_order,
    f_of_differences,
    f_of_second_difference,
    first_order_step,
    float_gain,
    fts_observer_step,
    gain_args,
    influence_gain,
    plants,
    second_order_step,
    synthetic_ulm_plant_step,
)

PAPER_ULM = UlmConfig(margin=1.5, exponent=9.0 / 7.0)
PAPER_CTL = ControllerConfig(
    margin=1.0,
    exponent=11.0 / 9.0,
    mu=0.35,
    influence_policy=AdaptiveInfluence(base=1.5),
)
GAIN = float_gain(*gain_args(PAPER_CTL.gain))
MU = PAPER_CTL.mu


class TestUlmPredict:
    def test_empty_history_returns_zero(self):
        state = UlmObserverState.initial(1)
        pred, new_state = ulm_predict(state, [], PAPER_ULM)
        assert pred.tolist() == [0.0]
        assert new_state.consumed == 0

    def test_consumes_each_value_once(self):
        state = UlmObserverState.initial(1)
        history = [np.array([1.0])]
        pred1, state = ulm_predict(state, history, PAPER_ULM)
        assert state.consumed == 1
        pred2, state = ulm_predict(state, history, PAPER_ULM)
        assert state.consumed == 1
        np.testing.assert_array_equal(pred1, pred2)

    def test_constant_history_converges(self):
        state = UlmObserverState.initial(1)
        history = []
        pred = np.zeros(1)
        for _ in range(1500):
            history.append(np.array([0.7]))
            pred, state = ulm_predict(state, history, PAPER_ULM)
        assert pred[0] == pytest.approx(0.7, abs=1e-6)

    def test_second_order_primes_before_predicting(self):
        cfg = UlmConfig(margin=1.5, exponent=9.0 / 7.0, observer_order=SECOND_ORDER)
        state = UlmObserverState.initial(1, SECOND_ORDER)
        pred, state = ulm_predict(state, [np.array([0.5])], cfg)
        assert pred.tolist() == [0.0]
        assert state.consumed == 1
        assert state.f_prev.tolist() == [0.5]
        pred, state = ulm_predict(
            state, [np.array([0.5]), np.array([0.6])], cfg
        )
        assert state.consumed == 2
        assert pred[0] != 0.0


class TestForwardDifference:
    def test_first_order(self):
        assert forward_difference([1.0, 3.0, 6.0], 1).tolist() == [2.0, 3.0]

    def test_second_order(self):
        assert forward_difference([1.0, 3.0, 6.0], 2).tolist() == [1.0]

    def test_order_zero_identity(self):
        series = [1.0, 3.0, 6.0]
        assert forward_difference(series, 0).tolist() == series

    def test_vector_samples(self):
        series = np.array([[0.0, 1.0], [1.0, 4.0], [3.0, 9.0]])
        out = forward_difference(series, 1)
        assert out.tolist() == [[1.0, 3.0], [2.0, 5.0]]

    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=12
        ),
        order=st.integers(min_value=0, max_value=3),
    )
    def test_composition_matches_order(self, data, order):
        stepwise = np.asarray(data, dtype=float)
        for _ in range(order):
            stepwise = forward_difference(stepwise, 1)
        np.testing.assert_array_equal(forward_difference(data, order), stepwise)

    @pytest.mark.parametrize("order", ["1", 1.5, True, None])
    def test_order_that_is_no_integer_rejected(self, order):
        with pytest.raises(ValueError, match="^order must be an integer, got "):
            forward_difference([1.0, 2.0, 3.0], order)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
            forward_difference([1.0, 2.0, 3.0], -1)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            forward_difference([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            forward_difference([1.0], 1)


class TestSlidingVariable:
    def test_zero_history(self):
        assert sliding_variable([0.0, 0.0], (0.35,)) == 0.0

    def test_second_order_formula(self):
        # e and e_next both 1: first difference vanishes, mu * e remains
        assert sliding_variable([1.0, 1.0], (0.35,)) == pytest.approx(0.35)

    def test_third_order_hand_expansion(self):
        s = sliding_variable([1.0, 2.0, 4.0], (0.5, 0.25))
        assert s == pytest.approx(1.75)

    def test_wrong_history_length(self):
        with pytest.raises(ValueError, match="history"):
            sliding_variable([1.0, 2.0, 3.0], (0.35,))


class TestControlRhsGeneral:
    def test_pure_feedforward_when_errors_vanish(self):
        assert control_rhs_general([0.0, 0.0], 1.25, 0.0, (MU,), GAIN) == 1.25

    @pytest.mark.parametrize("history", [[0.0], [0.0, 1.0, 2.0]], ids=["1", "3"])
    def test_general_law_checks_history_length(self, history):
        message = f"^history of {len(history)} errors does not match order 2$"
        with pytest.raises(ValueError, match=message):
            control_rhs_general(history, 0.0, 0.0, (MU,), GAIN)

    def test_scalar_reaching_term(self):
        # s = 1 with unit margin: quadratic form 1, gain 0, reaching 2*1/(1+1)
        cfg = ControllerConfig(
            margin=1.0,
            exponent=11.0 / 9.0,
            mu=0.35,
            influence_policy=FixedInfluence(1.0),
        )
        # history (0, 1): s = 1 + 0.35*0 = 1, first difference 1
        gain = float_gain(*gain_args(cfg.gain))
        rhs = control_rhs_general([0.0, 1.0], 0.0, 0.0, (cfg.mu,), gain)
        assert rhs == pytest.approx(-1.0 - 0.35 * 1.0)

    def test_general_equals_second_order(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat = rng.normal(size=6).tolist()
            desired_diff = yd_kp2 - 2.0 * yd_kp1 + yd_k
            general = control_rhs_general([e_k, e_kp1], desired_diff, f_hat, (MU,), GAIN)
            s, special, feedback_total = control_rhs_second_order(
                e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat, MU, GAIN
            )
            assert special == pytest.approx(general, abs=1e-12 * max(1.0, abs(general)))
            assert s == sliding_variable([e_k, e_kp1], (MU,))
            assert feedback_total == -(1.0 - GAIN(s)) * s - MU * (e_kp1 - e_k) - f_hat


class TestReconstructF:
    def test_zero_window(self):
        assert reconstruct_f([0.0, 0.0, 0.0], 0.0, 2) == 0.0

    def test_second_difference_window(self):
        assert reconstruct_f([1.0, 2.0, 4.0], 0.0, 2) == 1.0

    def test_input_effect_subtracted(self):
        assert reconstruct_f([1.0, 2.0, 4.0], 0.25, 2) == 0.75

    def test_wrong_window_length_rejected(self):
        with pytest.raises(ValueError, match="window"):
            reconstruct_f([1.0, 2.0], 0.0, 2)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_round_trip_with_known_forcing(self, nu):
        # simulate y^(nu) = f + g*u forward, reconstruct f backward
        rng = np.random.default_rng(3)
        n = 40
        f = 0.7 * np.ones(n)
        u = rng.normal(size=n)
        g = 1.3
        y = list(rng.normal(size=nu))
        for k in range(n - nu):
            # invert the order-nu forward difference explicitly
            acc = f[k] + g * u[k]
            for j in range(nu):
                acc -= math.comb(nu, j) * (-1.0) ** (nu - j) * y[k + j]
            y.append(acc)
        for k in range(n - nu):
            rec = reconstruct_f(y[k : k + nu + 1], g * u[k], nu)
            assert rec == pytest.approx(f[k], abs=1e-9)

    def test_matches_synthetic_plant(self):
        rng = np.random.default_rng(11)
        y = [0.3, -0.2]
        fs, us = rng.normal(size=30).tolist(), rng.normal(size=30).tolist()
        for k in range(28):
            y.append(synthetic_ulm_plant_step(y[k], y[k + 1], fs[k], 1.5, us[k]))
        for k in range(28):
            rec = reconstruct_f(y[k : k + 3], 1.5 * us[k], 2)
            assert rec == pytest.approx(fs[k], abs=1e-12)


values = st.floats(min_value=-1e3, max_value=1e3)
positives = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.floats(min_value=1.01, max_value=1.99)


gain_params = st.builds(HolderGainParams, weight=positives, margin=positives, exponent=exponents)


def library_gain(params):
    return float_gain(*gain_args(params))


class TestLibraryStepsEqualOracle:
    @given(params=gain_params, e=values)
    def test_gain_scalar_weight(self, params, e):
        assert library_gain(params)(e) == oracle.holder_gain(e, params)

    @given(params=gain_params, estimate=values, previous=values, measurement=values)
    def test_output_observer_step(self, params, estimate, previous, measurement):
        state = oracle.OutputObserverState.initial(estimate, previous)
        expected = oracle.fts_observer_step(state, measurement, params)
        got = fts_observer_step(measurement, estimate - previous, library_gain(params))
        assert got == (expected.estimate[0], expected.last_error[0])

    @given(params=gain_params, f_hat=values, f_known=values)
    def test_first_order_step(self, params, f_hat, f_known):
        expected = oracle.first_order_step(f_hat, f_known, params)
        assert first_order_step(f_hat, f_known, library_gain(params)) == expected[0]

    @given(
        params=gain_params,
        f_hat=values, delta_hat=values, f_prev=values, f_known=values,
    )
    def test_second_order_step(self, params, f_hat, delta_hat, f_prev, f_known):
        state = UlmObserverState(
            f_hat=np.array([f_hat]), f_prev=np.array([f_prev]), delta_f_hat=np.array([delta_hat])
        )
        expected = oracle.second_order_step(state, f_known, params)
        got = second_order_step(f_hat, delta_hat, f_prev, f_known, library_gain(params))
        assert got == (expected.f_hat[0], expected.delta_f_hat[0])

    @given(
        margin=positives, exponent=exponents, mu=st.floats(min_value=0.01, max_value=0.99),
        e_k=values, e_kp1=values, yd_k=values, yd_kp1=values, yd_kp2=values, f_hat=values,
    )
    def test_second_order_law(self, margin, exponent, mu, e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat):
        # s and the feedback total as the reference loop forms them
        ctl = ControllerConfig(
            margin=margin, exponent=exponent, mu=mu,
            influence_policy=AdaptiveInfluence(1.5),
        )
        rhs = oracle.control_rhs_second_order(e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat, ctl)
        e_1 = e_kp1 - e_k
        s = e_1 + mu * e_k
        c = oracle.holder_gain(s, ctl.gain)
        got = control_rhs_second_order(
            e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat, mu, library_gain(ctl.gain)
        )
        assert got == (s, rhs[0], -(1.0 - c) * s - mu * e_1 - f_hat)

    @given(base=positives, feedback_total=values)
    def test_adaptive_influence(self, base, feedback_total):
        expected = oracle.influence_gain(AdaptiveInfluence(base), feedback_total)
        assert influence_gain(True, base, feedback_total) == expected

    @given(value=values.filter(bool), feedback_total=values)
    def test_fixed_influence(self, value, feedback_total):
        expected = oracle.influence_gain(FixedInfluence(value), feedback_total)
        assert influence_gain(False, value, feedback_total) == expected

    @given(y0=values, y1=values, y2=values, effect=values)
    def test_pendulum_f_reconstruction(self, y0, y1, y2, effect):
        assert f_of_differences(y0, y1, y2, effect) == reconstruct_f([y0, y1, y2], effect, 2)

    @given(y0=values, y1=values, y2=values, effect=values)
    def test_synthetic_f_reconstruction(self, y0, y1, y2, effect):
        # the reference loop of test_loop forms it from signal[j - 1..j + 1]
        signal, j = [y0, y1, y2], 1
        expected = (signal[j + 1] - 2.0 * signal[j] + signal[j - 1]) - effect
        assert f_of_second_difference(y0, y1, y2, effect) == expected

    @given(y_k=values, y_kp1=values, f_k=values, g_k=values.filter(bool), u_k=values)
    def test_synthetic_plant_step(self, y_k, y_kp1, f_k, g_k, u_k):
        expected = oracle.synthetic_ulm_plant_step(y_k, y_kp1, f_k, g_k, u_k)
        assert synthetic_ulm_plant_step(y_k, y_kp1, f_k, g_k, u_k) == expected[0]


@pytest.mark.parametrize("seed", [0, 1, 7, *SEEDS_OF_EVERY_WIDTH])
def test_noise_stream_spec_matches_numpy_stage_by_stage(seed):
    state = np.random.PCG64(seed).state["state"]
    assert plants._pcg64_seeded(seed) == (state["state"], state["inc"])
    expected = np.random.Generator(np.random.PCG64(seed)).random(1000).tolist()
    assert next(plants._pcg64_blocks(*plants._pcg64_seeded(seed)))[:1000] == expected
