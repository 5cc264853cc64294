"""Ground-truth plants: the cart-pendulum, its reference trajectory
generator, the bounded bump-distribution measurement noise, and the exact
discrete synthetic plant used to verify the controller.

``kernels`` is the selected kernel backend: the compiled extension when it
was built, otherwise the pure-Python twin.  Setting the environment
variable ``MFCLAB_PURE_PYTHON=1`` before import forces the fallback (useful
for benchmarking and debugging).  ``BACKEND`` names the one in use.  The
closed loop and the reference run on it, each in one kernel call, so a
process on the compiled backend never imports the pure-Python twin.  Both
twins compute the noise stream themselves, so no process imports
``numpy.random``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import check_fields, is_finite, is_positive, shown

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
    "synthetic_ulm_plant_step",
]


class DivergenceError(RuntimeError):
    """A simulated trajectory produced a non-finite state."""


@dataclass(frozen=True)
class PendulumState:
    """Cart position/velocity and pendulum angle/rate (angle measured from
    the upward vertical, kept unwrapped)."""

    x: float = 0.0
    theta: float = 0.0
    x_dot: float = 0.0
    theta_dot: float = 0.0

    def __post_init__(self):
        check_fields(self)

    def as_tuple(self):
        return (self.x, self.theta, self.x_dot, self.theta_dot)


@dataclass(frozen=True)
class PendulumParams:
    """Cart-pendulum constants, the initial state of the truth and the
    initial estimate of its angle; friction saturates at +-cart_friction /
    +-pend_friction through tanh of the respective rate."""

    cart_mass: float = 1.5
    pend_mass: float = 0.5
    half_length: float = 1.4
    inertia: float = 0.84
    gravity: float = 9.8
    cart_friction: float = 0.028
    pend_friction: float = 0.0032
    initial: PendulumState = PendulumState(x=0.45, theta=-0.14, x_dot=-0.3, theta_dot=0.05)
    theta_estimate: float = 0.102

    def __post_init__(self):
        # a value that is no finite number passes the sign rules, to be reported as not finite
        positive = (lambda v: not is_finite(v) or v > 0.0, "be positive")
        friction = (lambda v: not is_finite(v) or v >= 0.0, "be non-negative")
        check_fields(
            self, cart_mass=positive, pend_mass=positive, half_length=positive,
            inertia=positive, gravity=positive, cart_friction=friction, pend_friction=friction,
        )
        # worst-case determinant of the mass matrix (cos(theta) = +-1)
        m_l = self.pend_mass * self.half_length
        det_min = (self.cart_mass + self.pend_mass) * (
            self.inertia + m_l * self.half_length
        ) - m_l * m_l
        if det_min <= 0.0:
            raise ValueError("mass matrix is not positive definite for all angles")

    def as_tuple(self):
        """The constants, in the kernels' order."""
        return (
            self.cart_mass,
            self.pend_mass,
            self.half_length,
            self.inertia,
            self.gravity,
            self.cart_friction,
            self.pend_friction,
        )


def _desired_theta_samples(plant: PendulumParams, count: int, dt: float) -> np.ndarray:
    """First ``count`` angle samples of the reference-generating loop from
    ``plant.initial``, the kernels' 10 RK4 steps per ``dt``, as a read-only
    array.

    The truth model is driven by a weak state feedback force (re-evaluated
    at every stage, not held), which for the default constants produces a
    swing whose amplitude decays slowly through friction.  The samples are
    a function of the arguments alone, so each process keeps the last 16
    references: runs that share the plant constants, initial state, rate
    and horizon compute theirs once.  The memo keys on the packed bytes of
    the twelve floats, not on ``==``, which holds between ``-0.0`` and
    ``0.0`` (the first sample, logged as ``-0`` or ``0``), and on ``count``.
    A failed reference raises and is not kept.  The backend is no part of
    the key, since both twins give the same bits.
    """
    raw = _KEY.pack(*plant.as_tuple(), *plant.initial.as_tuple(), dt)
    return _theta_samples(raw, count)


# the memo key of a reference: the seven constants, the initial state and dt
_KEY = struct.Struct("12d")


@functools.lru_cache(maxsize=16)
def _theta_samples(raw: bytes, count: int) -> np.ndarray:
    *params, x, theta, x_dot, theta_dot, dt = _KEY.unpack(raw)
    thetas = np.empty(count)
    if not kernels.reference(thetas, x, theta, x_dot, theta_dot, dt, *params):
        raise DivergenceError("the reference produced a non-finite state")
    thetas.flags.writeable = False
    return thetas


@dataclass(frozen=True)
class NoiseModel:
    """Bump-distribution measurement noise of the given total support
    width, drawn from the stream of the experiment's seed."""

    width: float = 0.018

    def __post_init__(self):
        check_fields(self, width=(is_positive, "be positive and finite"))


# the stream of numpy's ``Generator(PCG64(seed)).random``: SeedSequence's
# hash of the seed into PCG64's state and increment, for both twins, then
# the 128-bit LCG (O'Neill 2014) 1,024 steps at a time; a Python int
# operand takes the uint64 type of its array (NumPy 2's casting)
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_BLOCK = 1024


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """The state and increment of ``np.random.PCG64(seed)``: SeedSequence
    hashes the seed's 32-bit words (0 is one word) into a pool of four and
    the pool into four 64-bit words; w2:w3 gives the increment, and w0:w1
    is added to the state between two steps from 0."""
    words = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    h = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    halves = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    w0, w1, w2, w3 = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    return ((inc + (w0 << 64 | w1)) * _MULTIPLIER + inc) & _M128, inc


def _noise_state(width, seed) -> tuple[int, int]:
    """The state and increment of a run's noise stream, once ``width`` is
    a positive finite number and ``seed`` an int by the index protocol (a
    float is a TypeError) that is not negative.  Both twins' ``run_loop``
    seed their noise here, so they check and word alike."""
    if not is_positive(width):
        raise ValueError(f"width must be positive and finite, got {shown(width)}")
    # numpy would also take a str or a sequence
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {shown(seed)}")
    return _pcg64_seeded(seed)


def _halves(values: list) -> tuple:
    """128-bit ints as read-only uint64 arrays: high halves, low halves, and
    the low and high 32 bits of the low halves."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _M64 for v in values], dtype=np.uint64)
    arrays = hi, lo, lo & _M32, lo >> 32
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.cache
def _jump_tables() -> tuple:
    """The halves of M^k and of 1 + M + ... + M^(k-1), for k = 1 ... 1,024
    and PCG64's multiplier M: k steps from state s give
    ``M^k s + inc (1 + M + ... + M^(k-1))``.  Built on first use, so a
    process that never draws noise in Python pays nothing."""
    power, total, powers, totals = 1, 0, [], []
    for _ in range(_BLOCK):
        total = (total + power) & _M128
        power = power * _MULTIPLIER & _M128
        powers.append(power)
        totals.append(total)
    return _halves(powers), _halves(totals)


def _times(table: tuple, s: int) -> tuple:
    """The halves of ``table * s`` mod 2^128, elementwise; the high half of
    each 64x64-bit low product is summed from 32-bit partial products."""
    hi, lo, lo0, lo1 = table
    s_lo = s & _M64
    b0, b1 = s_lo & _M32, s_lo >> 32
    t = lo1 * b0 + (lo0 * b0 >> 32)
    w = (t & _M32) + lo0 * b1
    mul_hi = lo1 * b1 + (t >> 32) + (w >> 32)
    return mul_hi + lo * (s >> 64) + hi * s_lo, lo * s_lo


def _pcg64_blocks(state: int, inc: int):
    """The doubles of PCG64 from ``state`` and ``inc``, 1,024 to a list:
    each block jumps from the state its last draw left, and a draw is the
    top 53 bits of the XSL-RR output of its state, times 2^-53."""
    powers, totals = _jump_tables()
    inc_hi, inc_lo = _times(totals, inc)
    while True:
        hi, lo = _times(powers, state)
        lo += inc_lo
        hi += inc_hi
        hi += (lo < inc_lo).astype(np.uint64)
        x = hi ^ lo
        r = hi >> 58
        x = x >> r | x << (64 - r & 63)
        yield ((x >> 11).astype(np.float64) * 2.0**-53).tolist()
        state = int(hi[-1]) << 64 | int(lo[-1])


class BumpNoiseStream:
    """Seeded stream of bump-distributed samples.

    The density is proportional to exp(-1/(1 - (2 s / width)^2)) on the
    open interval (-width/2, width/2) and zero outside, sampled by
    rejection against a uniform envelope; every sample is strictly inside
    the support.

    ``_noise_state`` checks both arguments, at construction.  The doubles
    are those of numpy's ``Generator(PCG64(seed)).random``, computed here
    without ``numpy.random``, 1,024 at a time; each attempt takes
    ``u = -1 + 2 d`` and ``h = d`` from the next two: the bits of
    ``uniform(-1, 1)`` and ``uniform(0, 1)``.  The Python twin's
    ``run_loop`` draws its noise from this stream; the C twin steps the
    same state one draw at a time and reads the doubles in the same order.
    The stream holds a generator of the blocks, not itself, so it is freed
    without the cyclic collector.
    """

    def __init__(self, width: float, seed: int):
        blocks = _pcg64_blocks(*_noise_state(width, seed))
        self.width = width
        self._draw = itertools.chain.from_iterable(blocks).__next__

    def sample(self) -> float:
        """The next sample of the stream."""
        draw = self._draw
        while True:
            u = -1.0 + 2.0 * draw()
            h = draw()
            u2 = u * u
            if u2 >= 1.0:
                continue
            if h < math.exp(1.0 - 1.0 / (1.0 - u2)):
                return 0.5 * self.width * u


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
        check_fields(self)
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
