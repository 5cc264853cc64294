"""Sliding-variable tracking controller for the second-order ultra-local model.

The sliding variable ``s = (e[k+1] - e[k]) + mu e[k]`` has, for
``0 < mu < 1``, a stable zero set; the control law pushes the loop onto
that manifold through the same Hölder gain the observers use, and an
influence policy maps the resulting right-hand side to an actual input.
The laws are functions on floats; ``gain`` is a float function of the
sliding value, such as ``float_gain(*gain_args(config.gain))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .core import HolderGainParams, is_positive, require_finite, require_instance

__all__ = [
    "FixedInfluence",
    "AdaptiveInfluence",
    "ControllerConfig",
    "control_rhs_second_order",
    "influence_gain",
]


@dataclass(frozen=True)
class FixedInfluence:
    """Constant designed influence: a nonzero number, as the loop is SISO."""

    value: float

    def __post_init__(self):
        require_finite(self, "value", ok=lambda g: g != 0.0, rule="be nonzero")


@dataclass(frozen=True)
class AdaptiveInfluence:
    """Scalar influence ``base * (1 + tanh(norm(E)))`` for SISO loops."""

    base: float

    def __post_init__(self):
        require_finite(self, "base", ok=is_positive, rule="be positive and finite")


InfluencePolicy = Union[FixedInfluence, AdaptiveInfluence]


@dataclass(frozen=True)
class ControllerConfig:
    """Gain (margin, exponent), manifold coefficient and influence policy.

    ``mu`` in (0, 1) weights the error in the sliding value.
    """

    margin: float
    exponent: float
    mu: float
    influence_policy: InfluencePolicy

    def __post_init__(self):
        require_instance(self, "influence_policy", FixedInfluence, AdaptiveInfluence)
        self.gain  # validates margin/exponent
        require_finite(self, "margin", "exponent")
        require_finite(self, "mu", ok=lambda mu: 0.0 < mu < 1.0, rule="lie in (0, 1)")

    @cached_property
    def gain(self) -> HolderGainParams:
        return HolderGainParams(weight=1.0, margin=self.margin, exponent=self.exponent)


def control_rhs_second_order(
    e_k: float, e_kp1: float, yd_k: float, yd_kp1: float, yd_kp2: float, f_hat: float, mu: float,
    gain,
):
    """The second-order tracking law on the error pair (e_k, e_kp1): the
    sliding value ``s``, the right-hand side G u, and the feedback total
    ``-(1 - gain(s)) s - mu (e_kp1 - e_k) - f_hat`` that drives the
    adaptive influence.

    The right-hand side equals, algebraically, the order-nu law of
    ``tests/oracle.py`` at nu = 2; the reaching term is split across the
    error pair using the gain value.
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
