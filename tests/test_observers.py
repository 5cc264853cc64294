import pytest

from mfclab import (
    HolderGainParams,
    asymptotic_observer_step,
    float_gain,
    fts_observer_step,
    gain_args,
    holder_gain,
    steps_to_tolerance,
)

PAPER_GAINS = HolderGainParams(weight=2.1, margin=2.0, exponent=7.0 / 5.0)
GAIN = float_gain(*gain_args(PAPER_GAINS))


def iterate_error_map(e0: float, steps: int):
    """Noiseless error evolution err <- gain(err) * err."""
    errs = [e0]
    for _ in range(steps):
        e = errs[-1]
        errs.append(GAIN(e) * e)
    return errs


class TestFtsObserverStep:
    def test_converged_state_tracks_measurement(self):
        assert fts_observer_step(5.0, 0.0, GAIN) == (5.0, 0.0)

    def test_one_step_from_initial_setup_error(self):
        # initial estimate 0.102 against first measurement -0.14
        error = 0.102 - -0.14
        assert error == pytest.approx(0.242)
        _, nxt = fts_observer_step(-0.14, error, GAIN)
        # frozen one-step value: gain(0.242) = -0.5689432969422598
        assert nxt == pytest.approx(-0.13768427786002685, rel=1e-12)
        assert abs(nxt) < abs(error)

    def test_constant_zero_signal_alternates_and_decreases(self):
        errs = iterate_error_map(1.0, 60)
        mags = [abs(e) for e in errs]
        assert all(b < a for a, b in zip(mags, mags[1:]))
        # gain is negative once the weighted form falls below the margin,
        # which holds from the first step here: signs alternate after it
        assert all((a < 0.0) != (b < 0.0) for a, b in zip(errs[1:], errs[2:]))

    def test_weighted_square_contraction_factor(self):
        w = PAPER_GAINS.weight
        errs = iterate_error_map(3.7, 40)
        for e, e_next in zip(errs, errs[1:]):
            b = holder_gain(e, PAPER_GAINS)
            v, v_next = w * e * e, w * e_next * e_next
            assert v_next == pytest.approx(b * b * v, rel=1e-12)
            assert v_next < v

    def test_lyapunov_rate_is_bounded_class_k(self):
        # gamma = (margin / 2^(1-1/p)) (1 + gain)^2 stays below the
        # saturation level 4 margin / 2^(1-1/p) for every error size
        margin, p = 2.0, 7.0 / 5.0
        cap = 4.0 * margin / 2.0 ** (1.0 - 1.0 / p)
        for e0 in (1e-6, 1e-3, 0.242, 1.0, 10.0, 1e3):
            b = holder_gain(e0, PAPER_GAINS)
            gamma = margin / 2.0 ** (1.0 - 1.0 / p) * (1.0 + b) ** 2
            assert 0.0 < gamma < cap


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
