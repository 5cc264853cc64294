"""Output observer that filters measurements before they reach feedback.

The nonlinear step contracts the estimate error through the Hölder gain;
the linear step with constant ratio ``(1 - beta) / (1 + beta)`` is kept as
a comparison baseline.  Because the gain tends to -1 as the error tends to
zero, the contraction factor approaches 1 near the origin and convergence
below a tolerance is what is actually observed and reported (see
``steps_to_tolerance``).

Every step is a function on floats; ``gain`` is a float function of the
error, such as ``float_gain(*gain_args(params))``.
"""

from __future__ import annotations

from typing import Optional

from .core import shown

__all__ = [
    "fts_observer_step",
    "asymptotic_observer_step",
    "steps_to_tolerance",
]


def fts_observer_step(measurement: float, error: float, gain):
    """The next estimate and its error against ``measurement``.

    The new estimate is ``measurement + gain(error) * error`` where
    ``error`` is the previous estimate minus the previous measurement, so
    under noiseless measurements the error obeys ``err_next = gain(err) *
    err`` and its weighted square strictly decreases while nonzero.
    """
    estimate = measurement + gain(error) * error
    return estimate, estimate - measurement


def asymptotic_observer_step(error: float, beta: float) -> float:
    """Linear baseline error update: ``(1 - beta) / (1 + beta) * error``."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {shown(beta)}")
    return ((1.0 - beta) / (1.0 + beta)) * error


def steps_to_tolerance(initial_error: float, gain, tol: float, cap: int) -> Optional[int]:
    """First step index at which the noiseless error map is within ``tol``.

    Iterates ``err <- gain(err) * err`` and returns the first k with
    ``|err| <= tol``, or None when the cap is exceeded.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {shown(tol)}")
    err = initial_error
    for k in range(cap + 1):
        if abs(err) <= tol:
            return k
        err = gain(err) * err
    return None
