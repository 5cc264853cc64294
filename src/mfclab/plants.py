"""Ground-truth plants: the cart-pendulum, its reference trajectory
generator, the bounded bump-distribution measurement noise, and the exact
discrete synthetic plant used to verify the controller.

``kernels`` is the selected kernel backend: the compiled extension when it
was built, otherwise the pure-Python twin.  Setting the environment
variable ``MFCLAB_PURE_PYTHON=1`` before import forces the fallback (useful
for benchmarking and debugging).  ``BACKEND`` names the one in use.  The
closed loop and the reference run on it, each in one kernel call; the
public cart-pendulum steps (``pendulum_accel``, ``rk4_step`` and
``rk4_advance``) run the pure-Python twin's RK4 on either backend.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import is_positive, require_finite, require_int, shown

if os.environ.get("MFCLAB_PURE_PYTHON") == "1":
    from . import _kernels_py as kernels
else:
    try:
        from . import _kernels as kernels  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as kernels

BACKEND = kernels.BACKEND_NAME

__all__ = [
    "BACKEND",
    "DivergenceError",
    "PendulumParams",
    "PendulumState",
    "NoiseModel",
    "BumpNoiseStream",
    "SyntheticUlmParams",
    "pendulum_accel",
    "rk4_step",
    "rk4_advance",
    "generate_desired_trajectory",
    "synthetic_ulm_plant_step",
]


# RK4 substeps per control period of the cart-pendulum truth and reference
_SUBSTEPS = 10


class DivergenceError(RuntimeError):
    """A simulated trajectory produced a non-finite state."""


@dataclass(frozen=True)
class PendulumParams:
    """Cart-pendulum constants; friction saturates at +-cart_friction /
    +-pend_friction through tanh of the respective rate."""

    cart_mass: float = 1.5
    pend_mass: float = 0.5
    half_length: float = 1.4
    inertia: float = 0.84
    gravity: float = 9.8
    cart_friction: float = 0.028
    pend_friction: float = 0.0032

    def __post_init__(self):
        require_finite(self, *(f.name for f in fields(self)))
        positive = ("cart_mass", "pend_mass", "half_length", "inertia", "gravity")
        require_finite(self, *positive, ok=lambda v: v > 0.0, rule="be positive")
        friction = ("cart_friction", "pend_friction")
        require_finite(self, *friction, ok=lambda v: v >= 0.0, rule="be non-negative")
        # worst-case determinant of the mass matrix (cos(theta) = +-1)
        m_l = self.pend_mass * self.half_length
        det_min = (self.cart_mass + self.pend_mass) * (
            self.inertia + m_l * self.half_length
        ) - m_l * m_l
        if det_min <= 0.0:
            raise ValueError("mass matrix is not positive definite for all angles")

    def as_tuple(self):
        return (
            self.cart_mass,
            self.pend_mass,
            self.half_length,
            self.inertia,
            self.gravity,
            self.cart_friction,
            self.pend_friction,
        )


@dataclass(frozen=True)
class PendulumState:
    """Cart position/velocity and pendulum angle/rate (angle measured from
    the upward vertical, kept unwrapped)."""

    x: float = 0.0
    theta: float = 0.0
    x_dot: float = 0.0
    theta_dot: float = 0.0

    def __post_init__(self):
        require_finite(self, "x", "theta", "x_dot", "theta_dot")

    def as_tuple(self):
        return (self.x, self.theta, self.x_dot, self.theta_dot)


def pendulum_accel(state: PendulumState, force: float, params: PendulumParams):
    """Accelerations (x_ddot, theta_ddot) under a horizontal cart force, by
    the pure-Python twin on either backend."""
    # imported on first use: a run on the compiled backend never needs it
    from . import _kernels_py

    return _kernels_py._accel(*state.as_tuple(), force, *params.as_tuple())


def rk4_step(
    state: PendulumState, force: float, dt: float, params: PendulumParams
) -> PendulumState:
    """One fixed-step RK4 update with the force held constant over dt:
    ``rk4_advance`` with one substep."""
    return rk4_advance(state, force, dt, params, substeps=1)


def rk4_advance(
    state: PendulumState,
    force: float,
    dt: float,
    params: PendulumParams,
    substeps: int = _SUBSTEPS,
) -> PendulumState:
    """Advance one control period with zero-order-hold force, integrating
    with ``substeps`` internal RK4 steps of the pure-Python twin on either
    backend.  A non-finite state is a ``DivergenceError``."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {shown(dt)}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {shown(substeps)}")
    from . import _kernels_py

    raw = _kernels_py._step(state.as_tuple(), force, False, dt, substeps, params.as_tuple())
    if raw is None:
        raise DivergenceError("rk4_advance produced a non-finite state")
    return PendulumState(*raw)


def _desired_theta_samples(
    params: PendulumParams,
    initial: PendulumState,
    count: int,
    dt: float,
    substeps: int = _SUBSTEPS,
) -> np.ndarray:
    """First ``count`` angle samples of the reference-generating loop, as a
    read-only array.

    The samples are a function of the arguments alone, so each process
    keeps the last 16 references: runs that share the plant, initial
    truth, rate and horizon compute theirs once.  The memo keys on the
    ``repr`` of the raw values, not on ``==``, which holds between ``-0.0``
    and ``0.0`` (the first sample, logged as ``-0`` or ``0``) and between
    an int and a float.  A failed reference raises and is not kept.  The
    backend is no part of the key, since both twins give the same bits.
    """
    return _theta_samples(
        _ByBits((params.as_tuple(), initial.as_tuple(), count, dt, substeps))
    )


class _ByBits(tuple):
    """A tuple that equals another only when their ``repr``s match, so that
    ``-0.0`` and ``0.0``, or ``1`` and ``1.0``, are different keys."""

    def __hash__(self):
        return hash(repr(self))

    def __eq__(self, other):
        return repr(self) == repr(other)


@functools.lru_cache(maxsize=16)
def _theta_samples(args: _ByBits) -> np.ndarray:
    raw_params, raw, count, dt, substeps = args
    thetas = np.empty(count)
    if not kernels.reference(thetas, *raw, dt, substeps, *raw_params):
        raise DivergenceError("the reference produced a non-finite state")
    thetas.flags.writeable = False
    return thetas


def generate_desired_trajectory(
    params: PendulumParams,
    initial: PendulumState,
    horizon: float,
    dt: float,
    substeps: int = _SUBSTEPS,
) -> np.ndarray:
    """Reference angle trajectory as an (n, 2) array of (t, theta) rows.

    The truth model is driven by a weak state feedback force (re-evaluated
    continuously, not held), which for the default constants produces a
    swing whose amplitude decays slowly through friction.  The number of
    rows is floor(horizon/dt) + 1.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {shown(horizon)}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {shown(dt)}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {shown(substeps)}")
    count = int(math.floor(horizon / dt + 1e-9)) + 1
    thetas = _desired_theta_samples(params, initial, count, dt, substeps)
    t = np.arange(count) * dt
    return np.column_stack([t, thetas])


@dataclass(frozen=True)
class NoiseModel:
    """Bump-distribution measurement noise of the given total support
    width; ``seed`` defaults to the experiment seed when omitted."""

    width: float = 0.018
    seed: Optional[int] = None

    def __post_init__(self):
        require_finite(self, "width", ok=is_positive, rule="be positive and finite")
        if self.seed is not None:
            require_int(self, "seed", ok=lambda s: s >= 0, rule="be non-negative")


def _bump_sampler(width: float, random):
    """A function whose calls return the bump samples of support ``width``
    drawn from ``random``, a ``Generator.random``, 1,024 doubles at a time.
    Each attempt takes ``u = -1 + 2 d`` and ``h = d`` from the next two
    doubles: the bits of ``uniform(-1, 1)`` and ``uniform(0, 1)``.  It holds
    the generator's method, not a stream, so a stream is freed without the
    cyclic collector."""

    def doubles():
        while True:
            yield from random(1024).tolist()

    draw = doubles().__next__

    def sample():
        while True:
            u = -1.0 + 2.0 * draw()
            h = draw()
            u2 = u * u
            if u2 >= 1.0:
                continue
            if h < math.exp(1.0 - 1.0 / (1.0 - u2)):
                return 0.5 * width * u

    return sample


class BumpNoiseStream:
    """Seeded stream of bump-distributed samples.

    The density is proportional to exp(-1/(1 - (2 s / width)^2)) on the
    open interval (-width/2, width/2) and zero outside, sampled by
    rejection against a uniform envelope; every sample is strictly inside
    the support.

    ``sample`` is a ``_bump_sampler`` of the generator's ``random``: its
    samples are those of two scalar ``uniform`` draws per attempt.  The
    kernels' ``run_loop`` draws its samples from ``random`` the same way,
    the Python twin with ``_bump_sampler`` itself.
    """

    def __init__(self, width: float, seed: int):
        if not is_positive(width):
            raise ValueError(f"width must be positive and finite, got {shown(width)}")
        self.width = width
        self.random = np.random.Generator(np.random.PCG64(seed)).random
        self._sample = _bump_sampler(width, self.random)

    def sample(self) -> float:
        """The next sample of the stream."""
        return self._sample()

    def sample_batch(self, n: int) -> np.ndarray:
        """The next n samples of ``sample``, as an array."""
        return np.fromiter((self.sample() for _ in range(n)), float, n)


@dataclass(frozen=True)
class SyntheticUlmParams:
    """Exact second-order discrete plant with a known forcing signal.

    ``y[k+2] = 2 y[k+1] - y[k] + f(k) + G u[k]`` with f either zero, a
    constant, or a sinusoid; the reference is zero or a sinusoid.  This is
    the oracle plant: F is known at every step, so controller identities
    can be checked exactly.
    """

    f_mode: str = "constant"
    f_value: float = 0.0
    f_period: float = 1.0
    y0: float = 0.0
    y1: float = 0.0
    desired_mode: str = "zero"
    desired_amplitude: float = 0.0
    desired_period: float = 1.0

    def __post_init__(self):
        require_finite(
            self, "f_value", "f_period", "y0", "y1", "desired_amplitude", "desired_period"
        )
        if self.f_mode not in ("zero", "constant", "sine"):
            raise ValueError(f"unknown f_mode {self.f_mode!r}")
        if self.desired_mode not in ("zero", "sine"):
            raise ValueError(f"unknown desired_mode {self.desired_mode!r}")
        if self.f_mode == "sine" and not self.f_period > 0.0:
            raise ValueError("f_period must be positive for a sinusoidal f")
        if self.desired_mode == "sine" and not self.desired_period > 0.0:
            raise ValueError("desired_period must be positive")

    def f_signal(self, k: int, dt: float) -> float:
        if self.f_mode == "zero":
            return 0.0
        if self.f_mode == "constant":
            return self.f_value
        return self.f_value * math.sin(2.0 * math.pi * k * dt / self.f_period)

    def desired_samples(self, count: int, dt: float) -> np.ndarray:
        if self.desired_mode == "zero":
            return np.zeros(count)
        t = np.arange(count) * dt
        return self.desired_amplitude * np.sin(2.0 * math.pi * t / self.desired_period)


def synthetic_ulm_plant_step(y_k: float, y_kp1: float, f_k: float, g_k: float, u_k: float) -> float:
    """Exact discrete double-integrator step:
    ``y[k+2] = 2 y[k+1] - y[k] + f[k] + G[k] u[k]``."""
    return 2.0 * y_kp1 - y_k + f_k + g_k * u_k
