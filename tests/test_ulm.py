import math

import numpy as np
import pytest
from analysis import steps_to_tolerance

from mfclab import UlmConfig, first_order_step, float_gain, gain_args, second_order_step

PAPER_ULM = UlmConfig(margin=1.5, exponent=9.0 / 7.0)
GAIN = float_gain(*gain_args(PAPER_ULM.gain))


class TestFirstOrderObserver:
    @pytest.mark.parametrize("f", [0.4, -0.7])
    def test_exact_estimate_is_fixed_point(self, f):
        assert first_order_step(f, f, GAIN) == f

    def test_contraction_on_constant_signal(self):
        f, f_hat = 1.0, 0.0
        prev = math.inf
        for _ in range(50):
            err = abs(f_hat - f)
            assert err < prev
            prev = err
            f_hat = first_order_step(f_hat, f, GAIN)

    def test_constant_signal_step_counts(self):
        # frozen regression from the iterated map, f = 1, estimate from 0:
        # squared error under 1e-9 after 165 steps, norm after 16868.  The
        # bare error map e <- D(e) e from e = 1 takes one step more: the
        # estimator's error is the estimate minus f, with f added back
        # each step, so it rounds otherwise
        f, f_hat = 1.0, 0.0
        k_quad = k_norm = None
        for k in range(20_000):
            err = f_hat - f
            if k_quad is None and err * err <= 1e-9:
                k_quad = k
            if k_norm is None and abs(err) <= 1e-9:
                k_norm = k
                break
            f_hat = first_order_step(f_hat, f, GAIN)
        assert k_quad == 165
        assert k_norm == 16868
        assert steps_to_tolerance(1.0, GAIN, 1e-9, 20_000) == 16869

    def test_error_propagation_identity_on_time_varying_signal(self):
        # err_next = gain(err) * err - (f_next - f) holds to rounding
        rng = np.random.default_rng(5)
        f_seq = (np.cumsum(rng.normal(size=60)) * 0.1).tolist()
        f_hat = 0.3
        for k in range(59):
            err = f_hat - f_seq[k]
            predicted = GAIN(err) * err - (f_seq[k + 1] - f_seq[k])
            f_hat = first_order_step(f_hat, f_seq[k], GAIN)
            assert f_hat - f_seq[k + 1] == pytest.approx(predicted, abs=1e-12)

    def test_lyapunov_difference_closed_form(self):
        # V_next - V = -margin * (1 + D)^2 * V^(1/r) on a constant signal
        f, f_hat = 1.0, 4.0
        lam, r = PAPER_ULM.margin, PAPER_ULM.exponent
        for _ in range(60):
            err = f_hat - f
            v = err * err
            d = GAIN(err)
            f_hat = first_order_step(f_hat, f, GAIN)
            err_next = f_hat - f
            drop = err_next * err_next - v
            predicted = -lam * (1.0 + d) ** 2 * v ** (1.0 / r)
            assert drop == pytest.approx(predicted, rel=1e-12)

    def test_ramp_ultimate_error_bracket(self):
        # measured fixed point of err(1 - gain(err)) = slope: the ultimate
        # error sits strictly between slope/2 and slope
        slope = 0.1
        f_hat = 0.0
        for k in range(20_000):
            f_hat = first_order_step(f_hat, slope * k, GAIN)
        ultimate = abs(f_hat - slope * 20_000)
        assert 0.5 * slope < ultimate < slope
        assert ultimate == pytest.approx(0.05951168647243321, rel=1e-9)
        residual = ultimate * (1.0 - GAIN(-ultimate)) - slope
        assert abs(residual) < 1e-12

    def test_bounded_drive_bound_shrinks_with_drive(self):
        # sinusoidal signal: ultimate error grows with the per-step drive
        ultimates = []
        for d in (0.001, 0.01, 0.1):
            f_hat = 0.0
            worst = 0.0
            for k in range(4000):
                f_hat = first_order_step(f_hat, d * math.sin(0.05 * k) / 0.05, GAIN)
                if k > 3000:
                    nxt = d * math.sin(0.05 * (k + 1)) / 0.05
                    worst = max(worst, abs(f_hat - nxt))
            ultimates.append(worst)
        assert ultimates[0] < ultimates[1] < ultimates[2]


class TestSecondOrderObserver:
    def test_all_zero_history_stays_zero(self):
        assert second_order_step(0.0, 0.0, 0.0, 0.0, GAIN) == (0.0, 0.0)

    def _run(self, f_of_k, steps: int):
        f_hat, delta_hat, f_prev = 0.0, 0.0, f_of_k(0)
        errors = []
        for k in range(1, steps):
            f_hat, delta_hat = second_order_step(f_hat, delta_hat, f_prev, f_of_k(k), GAIN)
            f_prev = f_of_k(k)
            errors.append(abs(f_hat - f_of_k(k + 1)))
        return errors

    def test_constant_signal_converges(self):
        # the polynomial tail needs ~2000 steps to pass 1e-6 from 0.8
        errors = self._run(lambda k: 0.8, 2000)
        assert errors[-1] < 1e-6
        assert errors[-1] < errors[0]

    def test_linear_ramp_converges_where_first_order_cannot(self):
        slope = 0.1
        errors = self._run(lambda k: slope * k, 20_000)
        assert min(errors) < 1e-6
        # first order on the same ramp keeps a persistent offset
        f_hat = 0.0
        for k in range(20_000):
            f_hat = first_order_step(f_hat, slope * k, GAIN)
        first_order_ultimate = abs(f_hat - slope * 20_000)
        assert first_order_ultimate > 100 * errors[-1]

    def test_error_propagation_identity(self):
        # err_next = D(err) err + D(delta_err) delta_err - ddf holds exactly
        rng = np.random.default_rng(9)
        f_seq = np.cumsum(np.cumsum(rng.normal(size=50) * 0.01)).tolist()
        f_hat, delta_hat = 0.2, -0.1
        for k in range(1, 48):
            err_delta = delta_hat - (f_seq[k] - f_seq[k - 1])
            err_f = f_hat - f_seq[k]
            ddf = f_seq[k + 1] - 2.0 * f_seq[k] + f_seq[k - 1]
            predicted = GAIN(err_f) * err_f + GAIN(err_delta) * err_delta - ddf
            f_hat, delta_hat = second_order_step(f_hat, delta_hat, f_seq[k - 1], f_seq[k], GAIN)
            assert f_hat - f_seq[k + 1] == pytest.approx(predicted, abs=1e-12)


class TestUlmConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            UlmConfig(margin=1.5, exponent=9.0 / 7.0, observer_order="third")
        with pytest.raises(ValueError):
            UlmConfig(margin=-1.0, exponent=9.0 / 7.0)
