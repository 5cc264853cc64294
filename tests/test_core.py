import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab import HolderGainParams, float_gain, gain_args


def holder_gain(err, params):
    """The float gain of ``params`` at ``err``, as the loop builds it."""
    return float_gain(*gain_args(params))(err)


def decimal_gain(quad: str, margin: str, exponent_num: int, exponent_den: int) -> float:
    """Extended-precision oracle for the gain closed form."""
    getcontext().prec = 60
    x = Decimal(quad)
    a = 1 - Decimal(exponent_den) / Decimal(exponent_num)
    z = (a * x.ln()).exp()
    m = Decimal(margin)
    return float((z - m) / (z + m))


class TestHolderGain:
    def test_zero_error_gives_minus_one(self):
        params = HolderGainParams(weight=2.1, margin=2.0, exponent=1.4)
        assert holder_gain(0.0, params) == -1.0

    def test_zero_crossing_at_margin(self):
        # quadratic form 1 with margin 1: numerator vanishes
        params = HolderGainParams(weight=1.0, margin=1.0, exponent=1.5)
        assert holder_gain(1.0, params) == 0.0

    def test_pendulum_gains_value(self):
        # frozen from the Decimal oracle: (2.1^(2/7) - 2) / (2.1^(2/7) + 2)
        params = HolderGainParams(weight=2.1, margin=2.0, exponent=7.0 / 5.0)
        expected = -0.2360459083300311
        assert decimal_gain("2.1", "2", 7, 5) == pytest.approx(expected, rel=1e-15)
        assert holder_gain(1.0, params) == pytest.approx(expected, rel=1e-12)

    @given(
        mag=st.floats(min_value=1e-6, max_value=1e6),
        sign=st.sampled_from([-1.0, 1.0]),
        weight=st.floats(min_value=1e-3, max_value=1e3),
        margin=st.floats(min_value=1e-3, max_value=1e3),
        exponent=st.floats(min_value=1.01, max_value=1.99),
    )
    @settings(max_examples=200)
    def test_strictly_inside_unit_interval(self, mag, sign, weight, margin, exponent):
        params = HolderGainParams(weight=weight, margin=margin, exponent=exponent)
        g = holder_gain(sign * mag, params)
        assert -1.0 < g < 1.0
        assert g * g < 1.0

    def test_tiny_errors_saturate_at_minus_one_in_doubles(self):
        # the strict bound -1 < gain holds in exact arithmetic; in double
        # precision the value rounds to exactly -1 once the fractional power
        # falls below the margin's rounding granularity, and reaches the
        # x == 0 branch outright when the quadratic form underflows
        params = HolderGainParams(weight=1.0, margin=2.0, exponent=1.5)
        assert holder_gain(1e-90, params) == -1.0   # rounding saturation
        assert holder_gain(1e-200, params) == -1.0  # quadratic form underflow

    @given(
        e=st.floats(min_value=-1e6, max_value=1e6),
        weight=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scalar_weight_depends_only_on_norm(self, e, weight):
        # a scalar error's norm is |e|: the gain is even in e, bit for bit
        params = HolderGainParams(weight=weight, margin=2.0, exponent=1.4)
        assert holder_gain(-e, params) == holder_gain(e, params)

    @pytest.mark.parametrize(
        "weight, shown",
        [
            (np.diag([1.0, 2.0]), "[[1. 0.] [0. 2.]]"),
            (np.eye(3), "[[1. 0. 0.] [0. 1. 0.] [0. 0. 1.]]"),
            (np.ones((1, 2)), "[[1. 1.]]"),
            (np.ones(1), "[1.]"),
            (np.ones((1, 1, 1)), "[[[1.]]]"),
            (np.array([[2.1]]), "[[2.1]]"),
            ([[2.1]], "[[2.1]]"),
            ((2.1,), "(2.1,)"),
        ],
        ids=["2x2", "3x3", "1x2", "1", "1x1x1", "1x1", "list-1x1", "tuple"],
    )
    def test_weight_of_another_shape_rejected_at_construction(self, weight, shown):
        # the gain is a function of a scalar error: its weight is a number
        message = f"weight must be positive, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HolderGainParams(weight=weight, margin=1.0, exponent=1.5)

    def test_ragged_weight_named(self):
        message = "weight must be positive, got [[1.0], [2.0, 3.0]]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HolderGainParams(weight=[[1.0], [2.0, 3.0]], margin=1.0, exponent=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(weight=0.0, margin=1.0, exponent=1.5),
            dict(weight=-2.0, margin=1.0, exponent=1.5),
            dict(weight=1.0, margin=0.0, exponent=1.5),
            dict(weight=1.0, margin=-1.0, exponent=1.5),
            dict(weight=1.0, margin=1.0, exponent=1.0),
            dict(weight=1.0, margin=1.0, exponent=2.0),
            dict(weight=np.array([[1.0, 0.5], [0.4, 1.0]]), margin=1.0, exponent=1.5),
            dict(weight=np.array([[1.0, 2.0], [2.0, 1.0]]), margin=1.0, exponent=1.5),
            dict(weight=10**400, margin=1.0, exponent=1.5),
            dict(weight=-(10**400), margin=1.0, exponent=1.5),
            dict(weight=1.0, margin=10**400, exponent=1.5),
            dict(weight=10**5000, margin=1.0, exponent=1.5),
            dict(weight=1.0, margin=10**5000, exponent=1.5),
            dict(weight="2.0", margin=1.0, exponent=1.5),
            dict(weight=np.array([["2.0"]]), margin=1.0, exponent=1.5),
            dict(weight=1.0, margin="1.0", exponent=1.5),
            dict(weight=1.0, margin=1.0, exponent="1.5"),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HolderGainParams(**kwargs)

    @pytest.mark.parametrize("name", ["weight", "margin", "exponent"])
    @pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["+", "-"])
    def test_int_past_str_limit_named(self, name, value):
        # str() of such an int raises; the message must still name the field
        kwargs = {"weight": 1.0, "margin": 1.0, "exponent": 1.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must .*, got an int too large"):
            HolderGainParams(**kwargs)

    @pytest.mark.parametrize(
        "value, shown",
        [
            pytest.param(math.nan, "[[nan]]", id="nan"),
            pytest.param(math.inf, "[[inf]]", id="inf"),
            pytest.param(-math.inf, "[[-inf]]", id="-inf"),
            pytest.param(10**400, f"[[{10**400}]]", id="int-1e400"),
            pytest.param(-(10**400), f"[[{-(10**400)}]]", id="int--1e400"),
            pytest.param(10**5000, "an int too large for a float", id="int-1e5000"),
            pytest.param(-(10**5000), "an int too large for a float", id="int--1e5000"),
            pytest.param("2.0", "[['2.0']]", id="str"),
            pytest.param(None, "[[None]]", id="None"),
        ],
    )
    def test_non_finite_weight_matrix_rejected(self, value, shown):
        # a 1x1 is no number, whatever it holds
        message = f"weight must be positive, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HolderGainParams(weight=np.array([[value]]), margin=1.0, exponent=1.5)
