import re

import numpy as np
import pytest

from mfclab import (
    AdaptiveInfluence,
    ControllerConfig,
    FixedInfluence,
    control_rhs_second_order,
    float_gain,
    gain_args,
    influence_gain,
    synthetic_ulm_plant_step,
)

NON_FINITE = [
    np.nan,
    np.inf,
    -np.inf,
    pytest.param(10**400, id="int-1e400"),
    pytest.param(-(10**400), id="int--1e400"),
    pytest.param(10**5000, id="int-1e5000"),
    pytest.param(-(10**5000), id="int--1e5000"),
    pytest.param("1.5", id="str"),
]
BIG = "an int too large for a float"

PAPER_CTL = ControllerConfig(
    margin=1.0,
    exponent=11.0 / 9.0,
    mu=0.35,
    influence_policy=AdaptiveInfluence(base=1.5),
)
GAIN = float_gain(*gain_args(PAPER_CTL.gain))
MU = PAPER_CTL.mu


class TestControlLaws:
    def test_second_order_feedforward(self):
        s, rhs, feedback_total = control_rhs_second_order(0.0, 0.0, 1.0, 2.0, 4.0, 0.0, MU, GAIN)
        assert (s, feedback_total) == (0.0, 0.0)
        assert rhs == pytest.approx(4.0 - 2.0 * 2.0 + 1.0)

    def test_manifold_decay_ratio(self):
        # with the sliding value pinned to zero, the error recursion is
        # e_next = (1 - mu) e exactly
        mu = PAPER_CTL.mu
        e = 1.0
        for _ in range(30):
            e_next = (1.0 - mu) * e
            assert e_next / e == pytest.approx(0.65, abs=1e-15)
            e = e_next

    def test_ideal_s_recursion_contracts(self):
        s = 2.0
        for _ in range(200):
            s_next = GAIN(s) * s
            assert abs(s_next) < abs(s)
            s = s_next

    def test_zero_is_fixed_point_of_ideal_recursion(self):
        assert GAIN(0.0) * 0.0 == 0.0

    def test_ideal_recursion_lyapunov_difference(self):
        # V = s^2/2 drops by (eta/2) (1 + C)^2 (2V)^(1/q) each step
        eta, q = PAPER_CTL.margin, PAPER_CTL.exponent
        s = 1.7
        for _ in range(60):
            c = GAIN(s)
            s_next = c * s
            v, v_next = 0.5 * s * s, 0.5 * s_next * s_next
            predicted = -(eta / 2.0) * (1.0 + c) ** 2 * (2.0 * v) ** (1.0 / q)
            assert v_next - v == pytest.approx(predicted, rel=1e-12)
            s = s_next

    def test_closed_loop_matches_ideal_recursion_with_known_f(self):
        # plant y[k+2] = 2 y[k+1] - y[k] + f + g u with f known to the law:
        # the realized sliding value follows s_next = gain(s) * s
        f = 0.4
        y = [0.3, 0.1]
        yd = [0.0] * 600
        for k in range(500):
            e_k, e_kp1 = y[k] - yd[k], y[k + 1] - yd[k + 1]
            s, rhs, _ = control_rhs_second_order(
                e_k, e_kp1, yd[k], yd[k + 1], yd[k + 2], f, MU, GAIN
            )
            y.append(synthetic_ulm_plant_step(y[k], y[k + 1], f, 2.0, rhs / 2.0))
            s_next = (y[k + 2] - yd[k + 2]) - e_kp1 + MU * e_kp1
            ideal = GAIN(s) * s
            assert s_next == pytest.approx(ideal, abs=1e-10 * max(1.0, abs(s)))

    @pytest.mark.parametrize(
        "mu, shown",
        [
            (1.0, "1.0"), (0, "0"), (-0.35, "-0.35"), (np.nan, "nan"), (True, "True"),
            ("0.35", "'0.35'"), ((0.35,), "(0.35,)"),
            (10**5000, BIG),
        ],
        ids=["1", "0", "-0.35", "nan", "bool", "str", "tuple", "int-1e5000"],
    )
    def test_mu_must_lie_in_the_unit_interval(self, mu, shown):
        message = f"mu must lie in (0, 1), got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ControllerConfig(1.0, 11.0 / 9.0, mu, FixedInfluence(1.0))

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ControllerConfig(-1.0, 11.0 / 9.0, 0.35, FixedInfluence(1.0))
        with pytest.raises(ValueError):
            ControllerConfig(1.0, 2.5, 0.35, FixedInfluence(1.0))


class TestInfluenceGain:
    def test_adaptive_at_zero_feedback(self):
        assert influence_gain(True, 1.5, 0.0) == pytest.approx(1.5)

    def test_adaptive_saturates_at_twice_base(self):
        assert influence_gain(True, 1.5, 1e6) == pytest.approx(3.0)

    def test_adaptive_monotone_in_magnitude(self):
        values = [influence_gain(True, 1.5, e) for e in (0.0, 0.5, 2.0)]
        assert values[0] < values[1] < values[2]

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_adaptive_non_finite_base_rejected(self, value):
        with pytest.raises(ValueError, match="^base must be positive and finite"):
            AdaptiveInfluence(base=value)

    @pytest.mark.parametrize(
        "value, shown",
        [
            pytest.param(np.nan, ("nan", "[[nan]]"), id="nan"),
            pytest.param(np.inf, ("inf", "[[inf]]"), id="inf"),
            pytest.param(-np.inf, ("-inf", "[[-inf]]"), id="-inf"),
            pytest.param(10**400, (BIG, f"[[{10**400}]]"), id="int-1e400"),
            pytest.param(-(10**400), (BIG, f"[[{-(10**400)}]]"), id="int--1e400"),
            pytest.param(10**5000, (BIG, BIG), id="int-1e5000"),
            pytest.param(-(10**5000), (BIG, BIG), id="int--1e5000"),
            pytest.param("1.5", ("'1.5'", "[['1.5']]"), id="str"),
        ],
    )
    def test_fixed_non_finite_matrix_rejected(self, value, shown):
        # a number is named by what it is not; a 1x1 is no number at all
        rule = "be nonzero" if isinstance(value, str) else "be finite"
        messages = (f"value must {rule}, got {shown[0]}", f"value must be nonzero, got {shown[1]}")
        for form, message in zip((value, np.array([[value]])), messages):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                FixedInfluence(form)

    @pytest.mark.parametrize("value", ["1.5", b"1.5", np.str_("1.5")], ids=repr)
    def test_fixed_string_scalar_rejected(self, value):
        # ``float`` parses a string, so only its type tells it apart
        message = f"value must be nonzero, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FixedInfluence(value)

    @pytest.mark.parametrize(
        "value, shown",
        [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (0, "0"),
            (np.array([[0.0]]), "[[0.]]"),
            (np.array([[1.0, 2.0]]), "[[1. 2.]]"),
            (np.eye(2), "[[1. 0.] [0. 1.]]"),
            (np.eye(3), "[[1. 0. 0.] [0. 1. 0.] [0. 0. 1.]]"),
            (np.ones(1), "[1.]"),
            (np.ones((1, 1, 1)), "[[[1.]]]"),
            (np.array([[1.5]]), "[[1.5]]"),
            ([[1.5]], "[[1.5]]"),
            ((1.5,), "(1.5,)"),
        ],
        ids=[
            "0.0", "-0.0", "int-0", "zero-1x1", "1x2", "2x2", "3x3", "1", "1x1x1", "1x1",
            "list-1x1", "tuple",
        ],
    )
    def test_fixed_zero_or_another_shape_rejected_at_construction(self, value, shown):
        # the loop is SISO: an influence is a number, never a matrix
        message = f"value must be nonzero, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FixedInfluence(value)

    def test_fixed_value_returned(self):
        assert influence_gain(False, -2.5, 7.0) == -2.5

    def test_adaptive_even_in_feedback(self):
        assert influence_gain(True, 1.5, -0.5) == influence_gain(True, 1.5, 0.5)
