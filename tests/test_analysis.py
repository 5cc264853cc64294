"""The paper's finite-time analysis in ``claims/analysis.py``: the
Lyapunov recursion oracle, the gain-ratio bound, and the observer error
map's step counts against the linear baseline."""

import math

import numpy as np
import pytest
from analysis import (
    LyapunovRecursionSpec,
    asymptotic_observer_step,
    gamma_ratio_bound,
    lyapunov_recursion,
    steps_to_tolerance,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab import HolderGainParams, float_gain, gain_args

GAIN = float_gain(*gain_args(HolderGainParams(weight=2.1, margin=2.0, exponent=7.0 / 5.0)))


# (LyapunovRecursionSpec keyword arguments, the error they raise)
FIELD_ERRORS = [
    (dict(max_steps="5"), "max_steps must be an integer, got '5'"),
    (dict(max_steps=2.5), "max_steps must be an integer, got 2.5"),
    (dict(max_steps=True), "max_steps must be an integer, got True"),
    (dict(max_steps=0), "max_steps must be positive, got 0"),
    (dict(ratio_sequence="1"), "ratio_sequence must be a sequence, got '1'"),
    (dict(ratio_sequence=None), "ratio_sequence must be a sequence, got None"),
    (dict(ratio_sequence=math.nan), "ratio_sequence must be finite, got nan"),
    (dict(ratio_sequence=math.inf), "ratio_sequence must be finite, got inf"),
    (dict(ratio_sequence=[1.0, math.inf]), "ratio_sequence must be finite, got inf"),
    (dict(ratio_sequence=(1.0, math.nan)), "ratio_sequence must be finite, got nan"),
    (dict(ratio_sequence=(1.0, "0.5")), "ratio_sequence must be positive, got '0.5'"),
    (dict(ratio_sequence=-1.0), "ratio_sequence must be positive, got -1.0"),
    (dict(ratio_sequence=(1.0, 0.0)), "ratio_sequence must be positive, got 0.0"),
]


class TestLyapunovRecursion:
    def test_unit_start_converges_first_step(self):
        seq, n = lyapunov_recursion(LyapunovRecursionSpec(alpha=0.5, c0=1.0))
        assert n == 1
        assert seq.tolist() == [1.0, 0.0]

    def test_hand_iterated_sequence(self):
        seq, n = lyapunov_recursion(LyapunovRecursionSpec(alpha=0.5, c0=4.0))
        assert n == 3
        assert seq[1] == pytest.approx(2.0, abs=1e-15)
        assert seq[2] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-15)
        assert seq[3] == 0.0

    def test_zero_start_is_fixed_point(self):
        seq, n = lyapunov_recursion(LyapunovRecursionSpec(alpha=0.3, c0=0.0))
        assert n == 0
        assert seq.tolist() == [0.0]

    def test_cap_returns_none(self):
        # tiny ratio: far from convergence within two allowed updates
        spec = LyapunovRecursionSpec(alpha=0.5, c0=100.0, ratio_sequence=1e-6,
                                     max_steps=2)
        seq, n = lyapunov_recursion(spec)
        assert n is None
        assert len(seq) == 3

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("c0", [0.5, 1.0, 4.0, 100.0])
    def test_monotone_until_zero(self, alpha, c0):
        seq, n = lyapunov_recursion(LyapunovRecursionSpec(alpha=alpha, c0=c0))
        assert n is not None
        assert all(a > b for a, b in zip(seq[:n], seq[1 : n + 1]))
        assert all(v == 0.0 for v in seq[n:])

    def test_ratio_sequence_consumed_in_order(self):
        spec = LyapunovRecursionSpec(
            alpha=0.5, c0=4.0, ratio_sequence=(1.0, 0.5, 0.5, 0.5, 0.5, 0.5)
        )
        seq, _ = lyapunov_recursion(spec)
        assert seq[1] == pytest.approx(2.0)
        assert seq[2] == pytest.approx(2.0 - 0.5 * math.sqrt(2.0))

    def test_exhausted_ratio_sequence_rejected(self):
        spec = LyapunovRecursionSpec(alpha=0.5, c0=100.0, ratio_sequence=(1.0,),
                                     max_steps=50)
        with pytest.raises(ValueError, match="exhausted"):
            lyapunov_recursion(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, c0=1.0),
            dict(alpha=1.0, c0=1.0),
            dict(alpha=0.5, c0=-1.0),
            dict(alpha=0.5, c0=1.0, ratio_sequence=0.0),
            dict(alpha=0.5, c0=1.0, ratio_sequence=(1.0, -2.0)),
            dict(alpha=0.5, c0=1.0, max_steps=0),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LyapunovRecursionSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message", FIELD_ERRORS, ids=[repr(kwargs) for kwargs, _ in FIELD_ERRORS]
    )
    def test_invalid_field_named(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            LyapunovRecursionSpec(alpha=0.5, c0=1.0, **kwargs)
        assert str(info.value) == message

    def test_ratios_stored_as_floats(self):
        spec = LyapunovRecursionSpec(alpha=0.5, c0=1.0, ratio_sequence=[1, np.float32(0.5)])
        assert spec.ratio_sequence == (1.0, 0.5)
        assert all(type(a) is float for a in spec.ratio_sequence)
        spec = LyapunovRecursionSpec(alpha=0.5, c0=1.0, ratio_sequence=np.array(0.5))
        assert spec.ratio(7) == 0.5

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("c0", [0.5, 2.0, 50.0])
    def test_finite_convergence_above_ratio_bound(self, alpha, c0):
        # constant ratios at the bound derived from the gain-ratio analysis
        # still force convergence to exactly zero in finitely many steps
        a_lower, eps = gamma_ratio_bound(0.05, 1.0, 1.4)
        assert a_lower == pytest.approx(1.0 - eps, rel=1e-12)
        spec = LyapunovRecursionSpec(
            alpha=alpha, c0=c0, ratio_sequence=a_lower, max_steps=100_000
        )
        seq, n = lyapunov_recursion(spec)
        assert n is not None
        assert seq[n] == 0.0


class TestGammaRatioBound:
    def test_frozen_value(self):
        # Decimal oracle: t = 0.01^(2/7), delta = (1-t)/(t+1)
        a_lower, eps = gamma_ratio_bound(0.01, 1.0, 7.0 / 5.0)
        assert a_lower == pytest.approx(0.1789697770694679, rel=1e-13)
        assert eps == pytest.approx(0.8210302229305321, rel=1e-13)

    def test_chi_near_one_limit(self):
        a_lower, eps = gamma_ratio_bound(1.0 - 1e-12, 1.0, 1.4)
        assert eps == pytest.approx(0.0, abs=1e-11)
        assert a_lower == pytest.approx(1.0, abs=1e-11)

    def test_mu_near_zero_limit(self):
        a_lower, eps = gamma_ratio_bound(0.01, 1e-12, 1.4)
        assert eps == pytest.approx(0.0, abs=1e-11)
        assert a_lower == pytest.approx(1.0, abs=1e-11)

    @given(
        chi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        mu=st.floats(min_value=1e-6, max_value=1e6),
        exponent=st.floats(min_value=1.01, max_value=1.99),
    )
    @settings(max_examples=200)
    def test_outputs_in_unit_interval(self, chi, mu, exponent):
        a_lower, eps = gamma_ratio_bound(chi, mu, exponent)
        assert 0.0 < a_lower <= 1.0
        assert 0.0 <= eps < 1.0
        assert a_lower == pytest.approx(1.0 - eps, rel=1e-12)

    @pytest.mark.parametrize(
        "args", [(0.0, 1.0, 1.4), (1.0, 1.0, 1.4), (0.5, 0.0, 1.4), (0.5, 1.0, 2.0)]
    )
    def test_out_of_range_rejected(self, args):
        with pytest.raises(ValueError):
            gamma_ratio_bound(*args)


class TestAsymptoticObserverStep:
    def test_beta_two_ratio(self):
        assert asymptotic_observer_step(1.0, 2.0) == pytest.approx(-1.0 / 3.0)

    def test_zero_error_stays_zero(self):
        assert asymptotic_observer_step(0.0, 5.0) == 0.0

    def test_unit_beta_converges_in_one_step(self):
        assert asymptotic_observer_step(3.0, 1.0) == 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            asymptotic_observer_step(1.0, beta)


class TestStepsToTolerance:
    def test_zero_initial_error(self):
        assert steps_to_tolerance(0.0, GAIN, 1e-9, 10) == 0

    def test_unit_error_regression_count(self):
        # frozen regression: the Euclidean norm needs 3793 steps to 1e-6
        # (the per-step contraction factor tends to 1 near the origin)
        assert steps_to_tolerance(1.0, GAIN, 1e-6, 10_000) == 3793

    def test_cap_exceeded_returns_none(self):
        assert steps_to_tolerance(1.0, GAIN, 1e-6, 100) is None

    def test_loose_tolerance_beats_asymptotic_for_large_errors(self):
        # from |e0| = 5 the nonlinear map reaches 0.5 in fewer steps than the
        # linear map at the same margin (its advantage is the large-error
        # regime; the linear map wins near the origin, see the regression
        # counts below)
        k_fts = steps_to_tolerance(5.0, GAIN, 0.5, 100)
        e, k_lin = 5.0, 0
        while abs(e) > 0.5:
            e = asymptotic_observer_step(e, 2.0)
            k_lin += 1
        assert k_fts == 2
        assert k_lin == 3
        assert k_fts < k_lin

    def test_tight_tolerance_regression_vs_asymptotic(self):
        # measured behaviour, not the idealized expectation: for tolerance
        # 1e-6 the linear map's geometric tail wins by a wide margin
        e, k_lin = 1.0, 0
        while abs(e) > 1e-6:
            e = asymptotic_observer_step(e, 2.0)
            k_lin += 1
        assert k_lin == 13
        assert steps_to_tolerance(1.0, GAIN, 1e-6, 10_000) == 3793

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            steps_to_tolerance(1.0, GAIN, 0.0, 10)
