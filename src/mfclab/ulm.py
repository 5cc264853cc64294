"""Ultra-local-model reconstruction and its first/second order observers.

The surrogate model ``y^(nu) = F + G u`` leaves everything unmodeled in
the signal F; the loop runs it at nu = 2.  F at time k is only computable
two steps later (its value needs outputs up to y[k+2]), so the estimators
here consume reconstructed values as they become available and the
controller runs on the latest estimate; the reconstruction lag is absorbed
by the observers as part of the first/second difference perturbation they
are robust to.  The steps
are functions on floats; ``gain`` is a float function of the error, such
as ``float_gain(*gain_args(config.gain))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import HolderGainParams, require_finite

__all__ = [
    "FIRST_ORDER",
    "SECOND_ORDER",
    "UlmConfig",
    "f_of_differences",
    "f_of_second_difference",
    "first_order_step",
    "second_order_step",
]

FIRST_ORDER = "first"
SECOND_ORDER = "second"


@dataclass(frozen=True)
class UlmConfig:
    """Gains of the observer of the second-order surrogate model.

    The observer gain always uses the plain squared norm of the error
    (unit weight), as opposed to the output observer's weighted form.
    """

    margin: float
    exponent: float
    observer_order: str = FIRST_ORDER

    def __post_init__(self):
        if self.observer_order not in (FIRST_ORDER, SECOND_ORDER):
            raise ValueError(
                f"observer_order must be '{FIRST_ORDER}' or '{SECOND_ORDER}', "
                f"got {self.observer_order!r}"
            )
        self.gain  # validates margin/exponent
        require_finite(self, "margin", "exponent")

    @cached_property
    def gain(self) -> HolderGainParams:
        return HolderGainParams(weight=1.0, margin=self.margin, exponent=self.exponent)


def f_of_differences(y0: float, y1: float, y2: float, input_effect: float) -> float:
    """F from the floats y[k..k+2] as a difference of differences, the
    pendulum's rounding: bit for bit the order-2 ``reconstruct_f`` of
    ``tests/oracle.py``."""
    return ((y2 - y1) - (y1 - y0)) - input_effect


def f_of_second_difference(y0: float, y1: float, y2: float, input_effect: float) -> float:
    """F from the floats y[k..k+2] as ``y2 - 2 y1 + y0``, the rounding of
    the synthetic plant's step ``y2 = 2 y1 - y0 + F + G u``."""
    return (y2 - 2.0 * y1 + y0) - input_effect


def first_order_step(f_hat: float, f_known: float, gain) -> float:
    """Next estimate from the newest known value of F.

    Computes ``D(e) e + f_known`` with ``e = f_hat - f_known``; on a
    constant signal the estimate error contracts through the gain every
    step.
    """
    err = f_hat - f_known
    return gain(err) * err + f_known


def second_order_step(f_hat: float, delta_hat: float, f_prev: float, f_known: float, gain):
    """The next estimates of F and of its first difference, from the newest
    known value of F and the one before it, ``f_prev``.

    Tracking the first difference of F alongside F itself removes the
    steady offset the first-order observer carries on ramp-like signals.
    """
    delta = f_known - f_prev
    err = delta_hat - delta
    delta_hat = gain(err) * err + delta
    err = f_hat - f_known
    return gain(err) * err + f_known + delta_hat, delta_hat
