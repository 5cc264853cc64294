"""The numpy oracle on its own and against the library's float steps.

``ulm_predict`` absorbs each reconstructed value once, converges on a
constant history and spends the second order's first value priming it,
independently of the twins it checks.  Each float law that the Python
twin calls equals, compared with ``==``, its numpy counterpart in
``oracle`` on drawn inputs, so a change to one law's arithmetic fails
here by name, not only as a differing run in ``test_loop``."""

import numpy as np
import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import UlmObserverState, ulm_predict

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
    reconstruct_f,
    second_order_step,
    synthetic_ulm_plant_step,
)

PAPER_ULM = UlmConfig(order_nu=2, margin=1.5, exponent=9.0 / 7.0)


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
        cfg = UlmConfig(order_nu=2, margin=1.5, exponent=9.0 / 7.0,
                        observer_order=SECOND_ORDER)
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


values = st.floats(min_value=-1e3, max_value=1e3)
positives = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.floats(min_value=1.01, max_value=1.99)


@st.composite
def gain_params(draw, matrix=st.booleans()):
    weight = draw(positives)
    return HolderGainParams(
        weight=np.array([[weight]]) if draw(matrix) else weight,
        margin=draw(positives),
        exponent=draw(exponents),
    )


def library_gain(params):
    return float_gain(*gain_args(params))


class TestLibraryStepsEqualOracle:
    @given(params=gain_params(matrix=st.just(False)), e=values)
    def test_gain_scalar_weight(self, params, e):
        assert library_gain(params)(e) == oracle.holder_gain(e, params)

    @given(params=gain_params(matrix=st.just(True)), e=values)
    def test_gain_matrix_weight(self, params, e):
        assert library_gain(params)(e) == oracle.holder_gain(e, params)

    @given(params=gain_params(), estimate=values, previous=values, measurement=values)
    def test_output_observer_step(self, params, estimate, previous, measurement):
        state = oracle.OutputObserverState.initial(estimate, previous)
        expected = oracle.fts_observer_step(state, measurement, params)
        got = fts_observer_step(measurement, estimate - previous, library_gain(params))
        assert got == (expected.estimate[0], expected.last_error[0])

    @given(params=gain_params(matrix=st.just(False)), f_hat=values, f_known=values)
    def test_first_order_step(self, params, f_hat, f_known):
        expected = oracle.first_order_step(f_hat, f_known, params)
        assert first_order_step(f_hat, f_known, library_gain(params)) == expected[0]

    @given(
        params=gain_params(matrix=st.just(False)),
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
            margin=margin, exponent=exponent, coefficients=(mu,),
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
