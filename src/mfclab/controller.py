"""Sliding-variable tracking controller for the ultra-local model.

The sliding variable combines tracking-error forward differences with
coefficients chosen so its zero set is a stable manifold; the control law
pushes the loop onto that manifold through the same Hölder gain the
observers use, and an influence policy maps the resulting right-hand side
to an actual input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple, Union

import numpy as np

from .core import (
    HolderGainParams,
    as_tuple,
    forward_difference,
    holder_gain,
    is_positive,
    require_finite,
    same_fields,
    scalar_or_matrix,
)

__all__ = [
    "FixedInfluence",
    "AdaptiveInfluence",
    "ControllerConfig",
    "sliding_variable",
    "schur_check",
    "control_rhs_general",
    "control_rhs_second_order",
    "influence_gain",
    "solve_input",
]


@dataclass(frozen=True, eq=False)
class FixedInfluence:
    """Constant designed influence matrix (a scalar is accepted for SISO)."""

    value: Union[float, np.ndarray]

    def __post_init__(self):
        rule = "influence scalar must be nonzero and finite"
        g = scalar_or_matrix(self.value, rule, "influence matrix", bool, False)
        object.__setattr__(self, "value", g)

    __eq__ = same_fields


@dataclass(frozen=True)
class AdaptiveInfluence:
    """Scalar influence ``base * (1 + tanh(norm(E)))`` for SISO loops."""

    base: float

    def __post_init__(self):
        require_finite(self, "base", ok=is_positive, rule="be positive and finite")


InfluencePolicy = Union[FixedInfluence, AdaptiveInfluence]


@dataclass(frozen=True)
class ControllerConfig:
    """Gain (margin, exponent), manifold coefficients and influence policy.

    ``coefficients`` are the nu-1 strictly decreasing values in (0, 1)
    weighting the error differences; for a second-order loop that is the
    single coefficient mu.
    """

    margin: float
    exponent: float
    coefficients: Tuple[float, ...]
    influence_policy: InfluencePolicy

    def __post_init__(self):
        object.__setattr__(self, "coefficients", as_tuple("coefficients", self.coefficients))
        require_finite(self, "coefficients")
        coeffs = tuple(map(float, self.coefficients))
        object.__setattr__(self, "coefficients", coeffs)
        bounds = (1.0,) + coeffs
        for hi, lo in zip(bounds, coeffs):
            if not 0.0 < lo < hi:
                raise ValueError(
                    f"coefficients must satisfy 1 > c_1 > ... > c_(nu-1) > 0, "
                    f"got {coeffs}"
                )
        self.gain  # validates margin/exponent

    @cached_property
    def gain(self) -> HolderGainParams:
        return HolderGainParams(weight=1.0, margin=self.margin, exponent=self.exponent)

    @property
    def order_nu(self) -> int:
        return len(self.coefficients) + 1

    @property
    def mu(self) -> float:
        if self.order_nu != 2:
            raise ValueError("mu is only defined for a second-order configuration")
        return self.coefficients[0]


def _stack_history(error_history) -> np.ndarray:
    hist = np.asarray(error_history, dtype=float)
    if hist.ndim == 1:
        hist = hist[:, None]
    return hist


def sliding_variable(error_history, coefficients: Sequence[float]) -> np.ndarray:
    """Sliding value from the last nu tracking errors (oldest first).

    Computes ``e^(nu-1) + c_1 e^(nu-2) + ... + c_(nu-1) e`` with every
    difference anchored at the oldest sample of the window.
    """
    coeffs = tuple(coefficients)
    nu = len(coeffs) + 1
    hist = _stack_history(error_history)
    if hist.shape[0] != nu:
        raise ValueError(
            f"history of {hist.shape[0]} errors does not match order {nu}"
        )
    s = forward_difference(hist, nu - 1)[0].copy()
    for i, c in enumerate(coeffs, start=1):
        s += c * forward_difference(hist, nu - 1 - i)[0]
    return s


def schur_check(coefficients: Sequence[float]) -> bool:
    """True iff z^(nu-1) + c_1 z^(nu-2) + ... + c_(nu-1) has all roots in
    the open unit disc (empty coefficient list is vacuously stable)."""
    coeffs = [1.0] + [float(c) for c in coefficients]
    if len(coeffs) == 1:
        return True
    roots = np.roots(coeffs)
    return bool(np.max(np.abs(roots)) < 1.0)


def control_rhs_general(
    error_history, desired_diff_nu, f_hat, config: ControllerConfig
) -> np.ndarray:
    """Right-hand side G u of the order-nu tracking law on the last nu
    tracking errors (oldest first).

    Feedforward of the order-nu desired difference, the reaching term
    ``(1 - gain(s)) s`` on the sliding value of ``config.coefficients``,
    cancellation of the predicted F, and the weighted error differences of
    orders nu-1 down to 1.
    """
    nu = config.order_nu
    hist = _stack_history(error_history)
    s = sliding_variable(hist, config.coefficients)
    rhs = (
        np.atleast_1d(np.asarray(desired_diff_nu, dtype=float))
        - (1.0 - holder_gain(s, config.gain)) * s
        - np.atleast_1d(np.asarray(f_hat, dtype=float))
    )
    for i, c in enumerate(config.coefficients, start=1):
        rhs = rhs - c * forward_difference(hist, nu - i)[0]
    return rhs


def control_rhs_second_order(
    e_k, e_kp1, yd_k, yd_kp1, yd_kp2, f_hat, config: ControllerConfig
) -> np.ndarray:
    """Second-order specialization of the tracking law.

    Algebraically identical to ``control_rhs_general`` at nu = 2 (the
    reaching term is split across the error pair using the gain value).
    """
    if config.order_nu != 2:
        raise ValueError("second-order law requires exactly one coefficient")
    mu = config.mu
    e_k = np.atleast_1d(np.asarray(e_k, dtype=float))
    e_kp1 = np.atleast_1d(np.asarray(e_kp1, dtype=float))
    e1 = e_kp1 - e_k
    s = e1 + mu * e_k
    c_of_s = holder_gain(s, config.gain)
    reach = 1.0 - c_of_s
    return (
        np.atleast_1d(np.asarray(yd_kp2, dtype=float))
        - 2.0 * np.atleast_1d(np.asarray(yd_kp1, dtype=float))
        + np.atleast_1d(np.asarray(yd_k, dtype=float))
        - reach * e1
        + c_of_s * mu * e_k
        - mu * e_kp1
        - np.atleast_1d(np.asarray(f_hat, dtype=float))
    )


def influence_gain(policy: InfluencePolicy, feedback_total):
    """Influence gain for the step: the fixed matrix, or the adaptive
    scalar ``base * (1 + tanh(norm(E)))`` driven by the feedback total E."""
    if isinstance(policy, FixedInfluence):
        return policy.value
    e = np.atleast_1d(np.asarray(feedback_total, dtype=float))
    if e.size != 1:
        raise ValueError("adaptive influence is only defined for scalar outputs")
    return policy.base * (1.0 + math.tanh(float(np.linalg.norm(e))))


def solve_input(influence, rhs) -> np.ndarray:
    """Input u with ``G u = rhs``: exact solve when G is square, the
    minimum-norm solution when G is wide; raises on rank deficiency."""
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if np.isscalar(influence):
        g = float(influence)
        if g == 0.0:
            raise ValueError("influence scalar is zero")
        return rhs / g
    g_mat = np.asarray(influence, dtype=float)
    if g_mat.ndim != 2:
        raise ValueError(f"influence must be scalar or 2-D, got shape {g_mat.shape}")
    n_out, n_in = g_mat.shape
    if rhs.shape != (n_out,):
        raise ValueError(
            f"rhs shape {rhs.shape} does not match influence shape {g_mat.shape}"
        )
    if np.linalg.matrix_rank(g_mat) < n_out:
        raise ValueError("influence matrix is rank deficient")
    if n_out == n_in:
        return np.linalg.solve(g_mat, rhs)
    if n_in < n_out:
        raise ValueError("influence matrix needs at least as many inputs as outputs")
    return g_mat.T @ np.linalg.solve(g_mat @ g_mat.T, rhs)
