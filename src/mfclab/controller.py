"""Sliding-variable tracking controller for the ultra-local model.

The sliding variable combines tracking-error forward differences with
coefficients chosen so its zero set is a stable manifold; the control law
pushes the loop onto that manifold through the same Hölder gain the
observers use, and an influence policy maps the resulting right-hand side
to an actual input.  The laws are functions on floats; ``gain`` is a float
function of the sliding value, such as ``float_gain(*gain_args(config.gain))``.
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
    is_positive,
    require_finite,
    same_fields,
    scalar_or_1x1,
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
]


@dataclass(frozen=True, eq=False)
class FixedInfluence:
    """Constant designed influence: a nonzero scalar or 1x1 matrix
    (``scalar_or_1x1``), as the loop is SISO."""

    value: Union[float, np.ndarray]

    def __post_init__(self):
        g = scalar_or_1x1("value", self.value, "nonzero", lambda g: g != 0.0)
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


def schur_check(coefficients: Sequence[float]) -> bool:
    """True iff z^(nu-1) + c_1 z^(nu-2) + ... + c_(nu-1) has all roots in
    the open unit disc (empty coefficient list is vacuously stable)."""
    coeffs = [1.0] + [float(c) for c in coefficients]
    if len(coeffs) == 1:
        return True
    roots = np.roots(coeffs)
    return bool(np.max(np.abs(roots)) < 1.0)


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


def control_rhs_second_order(
    e_k: float, e_kp1: float, yd_k: float, yd_kp1: float, yd_kp2: float, f_hat: float, mu: float,
    gain,
):
    """The second-order tracking law on the error pair (e_k, e_kp1): the
    sliding value ``s``, the right-hand side G u, and the feedback total
    ``-(1 - gain(s)) s - mu (e_kp1 - e_k) - f_hat`` that drives the
    adaptive influence.

    The right-hand side equals ``control_rhs_general`` at nu = 2
    algebraically; the reaching term is split across the error pair using
    the gain value.
    """
    e_1 = e_kp1 - e_k
    s = e_1 + mu * e_k
    c = gain(s)
    rhs = yd_kp2 - 2.0 * yd_kp1 + yd_k - (1.0 - c) * e_1 + c * mu * e_k - mu * e_kp1 - f_hat
    return s, rhs, -(1.0 - c) * s - mu * e_1 - f_hat


def influence_gain(adaptive: bool, value: float, feedback_total: float) -> float:
    """Influence gain for the step: the fixed ``value``, or with
    ``adaptive`` the adaptive ``value * (1 + tanh(|E|))`` of base ``value``,
    driven by the feedback total E."""
    if adaptive:
        return value * (1.0 + math.tanh(math.sqrt(feedback_total * feedback_total)))
    return value
