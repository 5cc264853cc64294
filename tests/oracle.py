"""The library's laws as numpy functions on 1-vectors: the independent
oracle of ``test_loop.reference_loop`` and of the float gain's tests.

Each is written as the library wrote it before its laws became functions
on floats, with the same arithmetic in the same order: the gain forms
x' W x as ``w * (e @ e)`` for the scalar weight of the SISO loop, and the
observers carry their state in dataclasses.  The config dataclasses
(``HolderGainParams``, ``UlmConfig``, ``ControllerConfig`` and the
influence policies) are the library's.

The order-nu laws of the ultra-local model ``y^(nu) = F + G u`` are here
too: ``forward_difference``, ``sliding_variable``, ``control_rhs_general``
and ``reconstruct_f``.  The library runs nu = 2 only; these are the
references its second-order float laws are compared with.

The cart-pendulum: ``pendulum_accel`` is its accelerations, the
stage-by-stage reference of the Python twin's fused RK4 substep loop, and
``rk4_advance`` is a period of that loop on a ``PendulumState``.
"""

import math
from dataclasses import dataclass, replace
from math import cos, sin, tanh
from typing import Optional, Sequence

import numpy as np

from mfclab import FIRST_ORDER, SECOND_ORDER, FixedInfluence, PendulumState, _kernels_py
from mfclab.core import check_int


def _vector(value):
    return np.atleast_1d(np.asarray(value, dtype=float))


def holder_gain(err, params):
    """The Hölder gain of ``params`` at the error vector ``err``."""
    e = _vector(err)
    x = params.weight * float(e @ e)
    # a NaN form gives -1, as a zero one does
    x = x if x > 0.0 else 0.0
    z = 0.0 if x == 0.0 else math.exp((1.0 - 1.0 / params.exponent) * math.log(x))
    return (z - params.margin) / (z + params.margin)


@dataclass(frozen=True)
class OutputObserverState:
    """Current estimate and the error against the latest measurement."""

    estimate: np.ndarray
    last_error: np.ndarray

    @classmethod
    def initial(cls, estimate, first_measurement):
        est = _vector(estimate)
        return cls(estimate=est, last_error=est - _vector(first_measurement))


def fts_observer_step(state, new_measurement, gain):
    m = _vector(new_measurement)
    err = state.last_error
    estimate = m + holder_gain(err, gain) * err
    return OutputObserverState(estimate=estimate, last_error=estimate - m)


@dataclass(frozen=True)
class UlmObserverState:
    """F estimator state; ``delta_f_hat`` is used by the second order only,
    and ``consumed`` counts the reconstructed values absorbed."""

    f_hat: np.ndarray
    f_prev: Optional[np.ndarray] = None
    delta_f_hat: Optional[np.ndarray] = None
    consumed: int = 0

    @classmethod
    def initial(cls, dim, observer_order=FIRST_ORDER):
        zero = np.zeros(dim)
        if observer_order == SECOND_ORDER:
            return cls(f_hat=zero, delta_f_hat=zero.copy())
        return cls(f_hat=zero)


def first_order_step(f_hat, f_known, gain):
    f_hat, f_known = _vector(f_hat), _vector(f_known)
    err = f_hat - f_known
    return holder_gain(err, gain) * err + f_known


def second_order_step(state, f_known, gain):
    f_known = _vector(f_known)
    delta_prev = f_known - state.f_prev
    err_delta = state.delta_f_hat - delta_prev
    new_delta_hat = holder_gain(err_delta, gain) * err_delta + delta_prev
    err_f = state.f_hat - f_known
    new_f_hat = holder_gain(err_f, gain) * err_f + f_known + new_delta_hat
    return UlmObserverState(
        f_hat=new_f_hat, f_prev=f_known, delta_f_hat=new_delta_hat, consumed=state.consumed + 1
    )


def ulm_predict(state, reconstructed, config):
    """The estimate of F for the current step, plus the new state: absorbs
    the reconstructed values not yet consumed; the second order spends its
    first value priming ``f_prev``."""
    new_state = state
    for i in range(state.consumed, len(reconstructed)):
        value = _vector(reconstructed[i])
        if config.observer_order == FIRST_ORDER:
            new_state = replace(
                new_state,
                f_hat=first_order_step(new_state.f_hat, value, config.gain),
                f_prev=value,
                consumed=new_state.consumed + 1,
            )
        elif new_state.f_prev is None:
            new_state = replace(new_state, f_prev=value, consumed=new_state.consumed + 1)
        else:
            new_state = second_order_step(new_state, value, config.gain)
    return new_state.f_hat.copy(), new_state


def control_rhs_second_order(e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat, config):
    mu = config.mu
    e_k, e_kp1 = _vector(e_k), _vector(e_kp1)
    e1 = e_kp1 - e_k
    s = e1 + mu * e_k
    c_of_s = holder_gain(s, config.gain)
    reach = 1.0 - c_of_s
    return (
        _vector(yd_kp2) - 2.0 * _vector(yd_kp1) + _vector(yd_k)
        - reach * e1 + c_of_s * mu * e_k - mu * e_kp1 - _vector(f_hat)
    )


def influence_gain(policy, feedback_total):
    if isinstance(policy, FixedInfluence):
        return policy.value
    return policy.base * (1.0 + math.tanh(float(np.linalg.norm(_vector(feedback_total)))))


def solve_input(influence, rhs):
    """Input u with ``G u = rhs`` for a scalar or square G."""
    rhs = _vector(rhs)
    if np.isscalar(influence):
        return rhs / float(influence)
    return np.linalg.solve(np.asarray(influence, dtype=float), rhs)


def synthetic_ulm_plant_step(y_k, y_kp1, f_k, g_k, u_k):
    if np.ndim(g_k) == 0:
        input_effect = float(g_k) * _vector(u_k)
    else:
        input_effect = np.asarray(g_k, dtype=float) @ _vector(u_k)
    return 2.0 * _vector(y_kp1) - _vector(y_k) + _vector(f_k) + input_effect


def forward_difference(series, order: int):
    """Order-``order`` forward difference of a sequence of samples.

    Samples may be scalars or vectors (stacked along the first axis).
    Order 0 returns the series unchanged; each further order maps
    ``y[k] -> y[k+1] - y[k]`` elementwise, so the output is shorter than
    the input by ``order`` samples.
    """
    check_int("order", order, ok=lambda n: n >= 0, rule="be non-negative")
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] <= order:
        raise ValueError(
            f"series of length {arr.shape[0]} is too short for order {order}"
        )
    for _ in range(order):
        arr = arr[1:] - arr[:-1]
    return arr


def sliding_variable(error_history, coefficients: Sequence[float]) -> float:
    """Sliding value from the last nu tracking errors (oldest first).

    Computes ``e^(nu-1) + c_1 e^(nu-2) + ... + c_(nu-1) e`` with every
    difference anchored at the oldest sample of the window.
    """
    coeffs = tuple(coefficients)
    nu = len(coeffs) + 1
    if len(error_history) != nu:
        raise ValueError(
            f"history of {len(error_history)} errors does not match order {nu}"
        )
    s = float(forward_difference(error_history, nu - 1)[0])
    for i, c in enumerate(coeffs, start=1):
        s += c * float(forward_difference(error_history, nu - 1 - i)[0])
    return s


def control_rhs_general(
    error_history, desired_diff_nu: float, f_hat: float, coefficients: Sequence[float], gain
) -> float:
    """Right-hand side G u of the order-nu tracking law on the last nu
    tracking errors (oldest first).

    Feedforward of the order-nu desired difference, the reaching term
    ``(1 - gain(s)) s`` on the sliding value of ``coefficients``,
    cancellation of the predicted F, and the weighted error differences of
    orders nu-1 down to 1.
    """
    nu = len(coefficients) + 1
    s = sliding_variable(error_history, coefficients)
    rhs = desired_diff_nu - (1.0 - gain(s)) * s - f_hat
    for i, c in enumerate(coefficients, start=1):
        rhs -= c * float(forward_difference(error_history, nu - i)[0])
    return rhs


def reconstruct_f(outputs, input_effect: float, order_nu: int) -> float:
    """Recover F at the window start from nu+1 outputs and the input term.

    ``outputs`` are y[k..k+nu] (oldest first) and ``input_effect`` is the
    product G[k] u[k] that was applied at the window start; the result is
    the order-nu forward difference minus that input effect.
    """
    if len(outputs) != order_nu + 1:
        raise ValueError(
            f"window of {len(outputs)} samples does not match order "
            f"{order_nu} (need {order_nu + 1})"
        )
    return float(forward_difference(outputs, order_nu)[0]) - input_effect


def pendulum_accel(x, theta, x_dot, theta_dot, force, mc, mp, lp, ip, grav, cx, cth):
    """Accelerations (xdd, thdd) of the cart-pendulum under ``force``."""
    co = cos(theta)
    si = sin(theta)
    a11 = mc + mp
    a12 = -mp * lp * co
    a22 = ip + mp * lp * lp
    b1 = force - (mp * lp * theta_dot * theta_dot * si + cx * tanh(x_dot))
    b2 = mp * grav * lp * si - cth * tanh(theta_dot)
    det = a11 * a22 - a12 * a12
    xdd = (a22 * b1 - a12 * b2) / det
    thdd = (a11 * b2 - a12 * b1) / det
    return xdd, thdd


def rk4_advance(state, force, dt, params, substeps=_kernels_py._SUBSTEPS):
    """The ``PendulumState`` ``state`` advanced by ``dt`` in ``substeps``
    RK4 steps of the Python twin with ``force`` held, or None for a
    non-finite state."""
    raw = _kernels_py._step(state.as_tuple(), force, False, dt, substeps, params.as_tuple())
    return None if raw is None else PendulumState(*raw)


# numpy's noise stream, ``Generator(PCG64(seed)).random``, stage by stage
# in Python ints, as the C twin computes it in 32- and 64-bit words
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def seed_words(seed):
    """The 32-bit words of an int seed, least significant first; 0 is one
    word."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    return words


def _hasher(h, mult):
    """SeedSequence's word hash, whose constant ``h`` advances per call."""
    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def seed_sequence_pool(seed):
    """``np.random.SeedSequence(seed).pool``, as a list."""
    words = seed_words(seed)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def pcg64_state(seed):
    """``np.random.PCG64(seed).state["state"]``: its ``state`` and ``inc``."""
    pool = seed_sequence_pool(seed)
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [hashmix(pool[i % 4]) for i in range(8)]
    w0, w1, w2, w3 = (halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4))
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    state = inc  # one step from 0
    state = (state + (w0 << 64 | w1)) & _M128
    return (state * PCG64_MULTIPLIER + inc) & _M128, inc


def pcg64_doubles(seed, count):
    """The first ``count`` doubles of ``Generator(PCG64(seed)).random``."""
    state, inc = pcg64_state(seed)
    out = []
    for _ in range(count):
        state = (state * PCG64_MULTIPLIER + inc) & _M128
        hi = state >> 64
        x, r = hi ^ (state & _M64), hi >> 58
        x = (x >> r | x << (64 - r)) & _M64
        out.append((x >> 11) * 2.0**-53)
    return out
