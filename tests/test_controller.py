import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclab import (
    AdaptiveInfluence,
    ControllerConfig,
    FixedInfluence,
    control_rhs_general,
    control_rhs_second_order,
    holder_gain,
    influence_gain,
    schur_check,
    sliding_variable,
    solve_input,
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

PAPER_CTL = ControllerConfig(
    margin=1.0,
    exponent=11.0 / 9.0,
    coefficients=(0.35,),
    influence_policy=AdaptiveInfluence(base=1.5),
)


class TestSlidingVariable:
    def test_zero_history(self):
        assert sliding_variable([0.0, 0.0], (0.35,)).tolist() == [0.0]

    def test_second_order_formula(self):
        # e and e_next both 1: first difference vanishes, mu * e remains
        assert sliding_variable([1.0, 1.0], (0.35,))[0] == pytest.approx(0.35)

    def test_third_order_hand_expansion(self):
        s = sliding_variable([1.0, 2.0, 4.0], (0.5, 0.25))
        assert s[0] == pytest.approx(1.75)

    def test_vector_errors(self):
        hist = np.array([[1.0, 0.0], [1.0, 2.0]])
        s = sliding_variable(hist, (0.5,))
        assert s.tolist() == [0.5, 2.0]

    def test_wrong_history_length(self):
        with pytest.raises(ValueError, match="history"):
            sliding_variable([1.0, 2.0, 3.0], (0.35,))


class TestSchurCheck:
    def test_paper_coefficient_stable(self):
        assert schur_check((0.35,)) is True

    def test_magnitude_above_one_unstable(self):
        assert schur_check((1.5,)) is False

    def test_empty_vacuously_stable(self):
        assert schur_check(()) is True

    def test_boundary_root_rejected(self):
        assert schur_check((1.0,)) is False

    @given(
        coeffs=st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4
        )
    )
    @settings(max_examples=150)
    def test_agrees_with_root_magnitudes(self, coeffs):
        roots = np.roots([1.0] + coeffs)
        expected = bool(np.max(np.abs(roots)) < 1.0) if len(roots) else True
        assert schur_check(tuple(coeffs)) is expected

    def test_manifold_decay_ratio(self):
        # with the sliding value pinned to zero, the error recursion is
        # e_next = (1 - mu) e exactly
        mu = PAPER_CTL.mu
        e = 1.0
        for _ in range(30):
            e_next = (1.0 - mu) * e
            assert e_next / e == pytest.approx(0.65, abs=1e-15)
            e = e_next


class TestControlLaws:
    def test_pure_feedforward_when_errors_vanish(self):
        rhs = control_rhs_general([0.0, 0.0], 1.25, 0.0, PAPER_CTL)
        assert rhs.tolist() == [1.25]

    @pytest.mark.parametrize("history", [[0.0], [0.0, 1.0, 2.0]], ids=["1", "3"])
    def test_general_law_checks_history_length(self, history):
        message = f"^history of {len(history)} errors does not match order 2$"
        with pytest.raises(ValueError, match=message):
            control_rhs_general(history, 0.0, 0.0, PAPER_CTL)

    def test_second_order_feedforward(self):
        rhs = control_rhs_second_order(0.0, 0.0, 1.0, 2.0, 4.0, 0.0, PAPER_CTL)
        assert rhs[0] == pytest.approx(4.0 - 2.0 * 2.0 + 1.0)

    def test_scalar_reaching_term(self):
        # s = 1 with unit margin: quadratic form 1, gain 0, reaching 2*1/(1+1)
        cfg = ControllerConfig(
            margin=1.0,
            exponent=11.0 / 9.0,
            coefficients=(0.35,),
            influence_policy=FixedInfluence(1.0),
        )
        # history (0, 1): s = 1 + 0.35*0 = 1, first difference 1
        rhs = control_rhs_general([0.0, 1.0], 0.0, 0.0, cfg)
        assert rhs[0] == pytest.approx(-1.0 - 0.35 * 1.0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_general_equals_second_order(self, dim):
        rng = np.random.default_rng(17)
        for _ in range(300):
            e_k = rng.normal(size=dim)
            e_kp1 = rng.normal(size=dim)
            yd = rng.normal(size=(3, dim))
            f_hat = rng.normal(size=dim)
            desired_diff = yd[2] - 2.0 * yd[1] + yd[0]
            general = control_rhs_general(
                np.stack([e_k, e_kp1]), desired_diff, f_hat, PAPER_CTL
            )
            special = control_rhs_second_order(
                e_k, e_kp1, yd[0], yd[1], yd[2], f_hat, PAPER_CTL
            )
            scale = max(1.0, float(np.max(np.abs(general))))
            np.testing.assert_allclose(special, general, atol=1e-12 * scale)

    def test_ideal_s_recursion_contracts(self):
        s = np.array([2.0])
        for _ in range(200):
            c = holder_gain(s, PAPER_CTL.gain)
            s_next = c * s
            assert abs(s_next[0]) < abs(s[0])
            s = s_next

    def test_zero_is_fixed_point_of_ideal_recursion(self):
        s = np.zeros(2)
        s_next = holder_gain(s, PAPER_CTL.gain) * s
        np.testing.assert_array_equal(s_next, np.zeros(2))

    def test_ideal_recursion_lyapunov_difference(self):
        # V = s's/2 drops by (eta/2) (1 + C)^2 (2V)^(1/q) each step
        eta, q = PAPER_CTL.margin, PAPER_CTL.exponent
        s = np.array([1.7, -0.4])
        for _ in range(60):
            c = holder_gain(s, PAPER_CTL.gain)
            s_next = c * s
            v, v_next = 0.5 * float(s @ s), 0.5 * float(s_next @ s_next)
            predicted = -(eta / 2.0) * (1.0 + c) ** 2 * (2.0 * v) ** (1.0 / q)
            assert v_next - v == pytest.approx(predicted, rel=1e-12)
            s = s_next

    def test_closed_loop_matches_ideal_recursion_with_known_f(self):
        # plant y[k+2] = 2 y[k+1] - y[k] + f + g u with f known to the law:
        # the realized sliding value follows s_next = gain(s) * s
        cfg = ControllerConfig(
            margin=1.0,
            exponent=11.0 / 9.0,
            coefficients=(0.35,),
            influence_policy=FixedInfluence(2.0),
        )
        mu = cfg.mu
        f = 0.4
        y = [0.3, 0.1]
        yd = np.zeros(600)
        for k in range(500):
            e_k, e_kp1 = y[k] - yd[k], y[k + 1] - yd[k + 1]
            s = np.array([e_kp1 - e_k + mu * e_k])
            rhs = control_rhs_second_order(
                e_k, e_kp1, yd[k], yd[k + 1], yd[k + 2], f, cfg
            )
            u = solve_input(2.0, rhs)
            y.append(float(synthetic_ulm_plant_step(y[k], y[k + 1], f, 2.0, u[0])[0]))
            s_next = (y[k + 2] - yd[k + 2]) - e_kp1 + mu * e_kp1
            ideal = holder_gain(s, cfg.gain) * s
            assert s_next == pytest.approx(ideal[0], abs=1e-10 * max(1.0, abs(s[0])))

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="coefficients"):
            ControllerConfig(1.0, 11.0 / 9.0, (1.5,), FixedInfluence(1.0))
        with pytest.raises(ValueError, match="coefficients"):
            ControllerConfig(1.0, 11.0 / 9.0, (0.25, 0.5), FixedInfluence(1.0))
        with pytest.raises(ValueError):
            ControllerConfig(-1.0, 11.0 / 9.0, (0.35,), FixedInfluence(1.0))
        with pytest.raises(ValueError):
            ControllerConfig(1.0, 2.5, (0.35,), FixedInfluence(1.0))
        with pytest.raises(ValueError, match="second-order"):
            ControllerConfig(
                1.0, 11.0 / 9.0, (0.5, 0.25), FixedInfluence(1.0)
            ).mu
        for coefficients in (("0.35",), (10**5000,)):
            with pytest.raises(ValueError, match="^coefficients must be finite"):
                ControllerConfig(1.0, 11.0 / 9.0, coefficients, FixedInfluence(1.0))


class TestInfluenceGain:
    def test_adaptive_at_zero_feedback(self):
        assert influence_gain(AdaptiveInfluence(1.5), 0.0) == pytest.approx(1.5)

    def test_adaptive_saturates_at_twice_base(self):
        assert influence_gain(AdaptiveInfluence(1.5), 1e6) == pytest.approx(3.0)

    def test_adaptive_monotone_in_magnitude(self):
        values = [influence_gain(AdaptiveInfluence(1.5), e) for e in (0.0, 0.5, 2.0)]
        assert values[0] < values[1] < values[2]

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_adaptive_non_finite_base_rejected(self, value):
        with pytest.raises(ValueError, match="^base must be positive and finite"):
            AdaptiveInfluence(base=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_fixed_non_finite_matrix_rejected(self, value):
        with pytest.raises(ValueError, match="influence matrix must be finite"):
            FixedInfluence(np.array([[value]]))
        with pytest.raises(ValueError, match="influence scalar must be nonzero and finite"):
            FixedInfluence(value)

    @pytest.mark.parametrize("value", ["1.5", b"1.5", np.str_("1.5")], ids=repr)
    def test_fixed_string_scalar_rejected(self, value):
        # ``float`` parses a string, so only its type tells it apart
        with pytest.raises(ValueError, match="influence scalar must be nonzero and finite"):
            FixedInfluence(value)

    def test_fixed_matrix_returned(self):
        g = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(influence_gain(FixedInfluence(g), np.ones(2)), g)

    def test_adaptive_rejects_vector_output(self):
        with pytest.raises(ValueError, match="scalar"):
            influence_gain(AdaptiveInfluence(1.5), np.ones(2))


class TestSolveInput:
    def test_scalar(self):
        assert solve_input(2.0, 3.0).tolist() == [1.5]

    def test_minimum_norm_wide(self):
        u = solve_input(np.array([[1.0, 0.0]]), np.array([5.0]))
        np.testing.assert_allclose(u, [5.0, 0.0])

    def test_square_exact(self):
        g = np.array([[2.0, 1.0], [0.0, 1.0]])
        rhs = np.array([3.0, 1.0])
        np.testing.assert_allclose(g @ solve_input(g, rhs), rhs, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100)
    def test_random_wide_residual(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, 3))
        rhs = rng.normal(size=2)
        u = solve_input(g, rhs)
        assert np.linalg.norm(g @ u - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            solve_input(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))

    def test_tall_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_input(np.ones((3, 2)), np.ones(3))

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            solve_input(0.0, 1.0)
