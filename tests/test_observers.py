import pytest

from mfclab import HolderGainParams, float_gain, fts_observer_step, gain_args

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
            b = GAIN(e)
            v, v_next = w * e * e, w * e_next * e_next
            assert v_next == pytest.approx(b * b * v, rel=1e-12)
            assert v_next < v

    def test_lyapunov_rate_is_bounded_class_k(self):
        # gamma = (margin / 2^(1-1/p)) (1 + gain)^2 stays below the
        # saturation level 4 margin / 2^(1-1/p) for every error size
        margin, p = 2.0, 7.0 / 5.0
        cap = 4.0 * margin / 2.0 ** (1.0 - 1.0 / p)
        for e0 in (1e-6, 1e-3, 0.242, 1.0, 10.0, 1e3):
            b = GAIN(e0)
            gamma = margin / 2.0 ** (1.0 - 1.0 / p) * (1.0 + b) ** 2
            assert 0.0 < gamma < cap
