import dataclasses
import gc
import math
import types
import weakref

import numpy as np
import pytest
from oracle import pendulum_accel, rk4_advance

from mfclab import (
    BumpNoiseStream,
    DivergenceError,
    NoiseModel,
    PendulumParams,
    PendulumState,
    SyntheticUlmParams,
    plants,
    synthetic_ulm_plant_step,
)

PARAMS = PendulumParams()


def accel(state, force):
    return pendulum_accel(*state.as_tuple(), force, *PARAMS.as_tuple())


def rk4_step(state, force, dt, params=PARAMS):
    return rk4_advance(state, force, dt, params, substeps=1)


def samples(stream, n):
    return np.array([stream.sample() for _ in range(n)])


def _float_fields(cls):
    return [(cls, f.name) for f in dataclasses.fields(cls) if f.type == "float"]


@pytest.mark.parametrize(
    "cls, name",
    _float_fields(PendulumParams)
    + _float_fields(PendulumState)
    + _float_fields(NoiseModel)
    + _float_fields(SyntheticUlmParams),
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
@pytest.mark.parametrize(
    "value",
    [
        math.inf,
        -math.inf,
        math.nan,
        pytest.param(10**400, id="int-1e400"),
        pytest.param(-(10**400), id="int--1e400"),
        pytest.param(10**5000, id="int-1e5000"),
        pytest.param(-(10**5000), id="int--1e5000"),
    ],
)
def test_non_finite_field_rejected(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
        cls(**{name: value})


def mechanical_energy(state: PendulumState, params: PendulumParams) -> float:
    """Independent energy oracle: kinetic + potential of the cart-pendulum."""
    m_l = params.pend_mass * params.half_length
    kinetic = (
        0.5 * (params.cart_mass + params.pend_mass) * state.x_dot**2
        - m_l * math.cos(state.theta) * state.x_dot * state.theta_dot
        + 0.5
        * (params.inertia + m_l * params.half_length)
        * state.theta_dot**2
    )
    potential = params.pend_mass * params.gravity * params.half_length * math.cos(
        state.theta
    )
    return kinetic + potential


class TestPendulumAccel:
    """The accelerations of the oracle, which the twins' fused RK4 is
    checked against bit for bit."""

    def test_upright_rest_is_equilibrium(self):
        assert accel(PendulumState(), 0.0) == (0.0, 0.0)

    def test_mass_matrix_hand_values_through_force_response(self):
        # at rest and theta = 0 the mass matrix is [[2.0, -0.7], [-0.7, 1.82]]
        # with determinant 3.15, so a unit force gives the inverse's column
        xdd, thdd = accel(PendulumState(), 1.0)
        assert xdd == pytest.approx(1.82 / 3.15, rel=1e-12)
        assert thdd == pytest.approx(0.7 / 3.15, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, -1e-4, 0.05, -0.05])
    def test_upright_instability_sign(self, eps):
        _, thdd = accel(PendulumState(theta=eps), 0.0)
        assert math.copysign(1.0, thdd) == math.copysign(1.0, eps)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PendulumParams(cart_mass=0.0)
        with pytest.raises(ValueError):
            PendulumParams(gravity=-9.8)
        with pytest.raises(ValueError):
            PendulumParams(cart_friction=-0.01)
        # frictionless variants are allowed
        PendulumParams(cart_friction=0.0, pend_friction=0.0)

    def test_state_requires_finite_values(self):
        with pytest.raises(ValueError):
            PendulumState(theta=float("nan"))


class TestRk4:
    """The Python twin's RK4 substep loop, the truth advance of ``run_loop``
    and of the reference."""

    def test_upright_rest_fixed_point(self):
        out = rk4_step(PendulumState(), 0.0, 0.02)
        assert out.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_divergence_detected(self):
        state = PendulumState(theta_dot=1e200)
        assert rk4_step(state, 0.0, 1.0) is None

    def _integrate(self, dt: float, horizon: float) -> PendulumState:
        state = PendulumState(x=0.1, theta=0.3, x_dot=-0.2, theta_dot=0.4)
        for _ in range(int(round(horizon / dt))):
            state = rk4_step(state, 0.05, dt)
        return state

    def test_step_halving_convergence_order(self):
        # self-convergence: consecutive refinement differences shrink ~16x
        ends = [self._integrate(0.04 / 2**i, 1.0) for i in range(3)]
        diffs = [
            np.linalg.norm(np.subtract(a.as_tuple(), b.as_tuple()))
            for a, b in zip(ends, ends[1:])
        ]
        order = math.log2(diffs[0] / diffs[1])
        assert order >= 3.8

    def test_frictionless_energy_conservation(self):
        params = PendulumParams(cart_friction=0.0, pend_friction=0.0)
        state = PendulumState(x=0.0, theta=2.5, x_dot=0.0, theta_dot=0.0)
        e0 = mechanical_energy(state, params)
        worst = 0.0
        for _ in range(10_000):
            state = rk4_step(state, 0.0, 1e-3, params)
            worst = max(worst, abs(mechanical_energy(state, params) - e0))
        assert worst < 1e-8

    def test_friction_dissipates_energy(self):
        state = PendulumState(x=0.0, theta=2.0, x_dot=0.0, theta_dot=0.5)
        prev = mechanical_energy(state, PARAMS)
        for _ in range(500):
            state = rk4_advance(state, 0.0, 0.02, PARAMS)
            energy = mechanical_energy(state, PARAMS)
            assert energy <= prev + 1e-6
            prev = energy

    def test_advance_equals_repeated_steps(self):
        state = PendulumState(x=0.2, theta=-0.5, x_dot=0.1, theta_dot=-0.3)
        via_advance = rk4_advance(state, 0.4, 0.02, PARAMS, substeps=10)
        via_steps = state
        for _ in range(10):
            via_steps = rk4_step(via_steps, 0.4, 0.002)
        np.testing.assert_allclose(
            via_advance.as_tuple(), via_steps.as_tuple(), rtol=1e-12, atol=1e-15
        )


@pytest.fixture(scope="module")
def trajectory():
    """The demo's reference angles: 70 s at 50 Hz from the demo's swing start."""
    return plants._desired_theta_samples(PARAMS, 3501, 0.02)


class TestDesiredTrajectory:

    def test_initial_angle(self, trajectory):
        assert trajectory[0] == PARAMS.initial.theta == -0.14

    def test_swings_through_the_bottom(self, trajectory):
        assert trajectory.min() < -math.pi
        assert trajectory.max() < 0.0

    def test_amplitude_envelope_non_increasing(self, trajectory):
        theta = trajectory
        rising = np.diff(theta) > 0
        peaks = np.nonzero(rising[:-1] & ~rising[1:])[0] + 1
        troughs = np.nonzero(~rising[:-1] & rising[1:])[0] + 1
        peak_vals = theta[peaks]
        trough_vals = theta[troughs]
        assert len(peak_vals) >= 3
        assert all(b <= a + 1e-9 for a, b in zip(peak_vals, peak_vals[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(trough_vals, trough_vals[1:]))


class TestReferenceMemo:
    """``plants._desired_theta_samples`` keeps each reference per process."""

    def test_cached_samples_read_only(self):
        plants._theta_samples.cache_clear()
        plant = PendulumParams(initial=PendulumState(theta=0.3))
        thetas = plants._desired_theta_samples(plant, 51, 0.02)
        assert not thetas.flags.writeable
        with pytest.raises(ValueError):
            thetas[0] = 1.0
        assert plants._desired_theta_samples(plant, 51, 0.02) is thetas
        assert thetas[0] == 0.3

    @pytest.mark.parametrize(
        "a, b",
        [(PendulumState(theta=-0.0), PendulumState(theta=0.0))],
        ids=["signed-zero"],
    )
    def test_equal_but_unlike_arguments_kept_apart(self, a, b):
        plants._theta_samples.cache_clear()
        first = plants._desired_theta_samples(PendulumParams(initial=a), 11, 0.02)
        second = plants._desired_theta_samples(PendulumParams(initial=b), 11, 0.02)
        assert first is not second
        assert plants._theta_samples.cache_info().misses == 2

    def test_failed_reference_not_kept(self, monkeypatch):
        plants._theta_samples.cache_clear()
        plant = PendulumParams(initial=PendulumState(theta=0.3))
        failing = types.SimpleNamespace(reference=lambda *a: False)
        with monkeypatch.context() as m:
            m.setattr(plants, "kernels", failing)
            with pytest.raises(DivergenceError):
                plants._desired_theta_samples(plant, 11, 0.02)
        assert np.isfinite(plants._desired_theta_samples(plant, 11, 0.02)).all()
        assert plants._theta_samples.cache_info().currsize == 1


class TestBumpNoise:
    def test_support_bound(self):
        stream = BumpNoiseStream(width=0.018, seed=42)
        batch = samples(stream, 100_000)
        assert np.max(np.abs(batch)) < 0.009

    def test_mean_consistent_with_symmetry(self):
        stream = BumpNoiseStream(width=0.018, seed=7)
        batch = samples(stream, 1_000_000)
        stderr = batch.std() / math.sqrt(batch.size)
        assert abs(batch.mean()) < 3.0 * stderr

    def test_deterministic_given_seed(self):
        a = BumpNoiseStream(width=0.018, seed=123)
        b = BumpNoiseStream(width=0.018, seed=123)
        np.testing.assert_array_equal(samples(a, 1000), samples(b, 1000))
        a2 = BumpNoiseStream(width=0.018, seed=9)
        b2 = BumpNoiseStream(width=0.018, seed=9)
        assert [a2.sample() for _ in range(100)] == [b2.sample() for _ in range(100)]

    def test_scalar_samples_respect_support(self):
        stream = BumpNoiseStream(width=0.018, seed=2)
        assert all(abs(stream.sample()) < 0.009 for _ in range(2000))

    @staticmethod
    def _uniform_pattern(width, seed, n):
        """Scalar samples from two scalar ``uniform`` draws per attempt."""
        rng = np.random.Generator(np.random.PCG64(seed))
        out = []
        while len(out) < n:
            u = rng.uniform(-1.0, 1.0)
            h = rng.uniform(0.0, 1.0)
            u2 = u * u
            if u2 < 1.0 and h < math.exp(1.0 - 1.0 / (1.0 - u2)):
                out.append(0.5 * width * u)
        return out

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_scalar_samples_match_uniform_draws(self, seed):
        # 3,000 samples take ~13,000 doubles, across a dozen 1,024 blocks
        stream = BumpNoiseStream(width=0.018, seed=seed)
        got = [stream.sample().hex() for _ in range(3000)]
        assert got == [x.hex() for x in self._uniform_pattern(0.018, seed, 3000)]

    def test_sampled_stream_freed_without_cyclic_gc(self):
        stream = BumpNoiseStream(width=0.018, seed=0)
        stream.sample()
        ref = weakref.ref(stream)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del stream
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(width=0.0)
        with pytest.raises(ValueError):
            BumpNoiseStream(width=-1.0, seed=0)


class TestSyntheticPlant:
    def test_all_zero(self):
        assert synthetic_ulm_plant_step(0.0, 0.0, 0.0, 1.0, 0.0) == 0.0

    def test_free_double_integrator(self):
        assert synthetic_ulm_plant_step(0.0, 1.0, 0.0, 1.0, 0.0) == 2.0

    def test_forcing_and_input(self):
        out = synthetic_ulm_plant_step(1.0, 2.0, 0.5, 2.0, 0.25)
        assert out == 2.0 * 2.0 - 1.0 + 0.5 + 0.5
