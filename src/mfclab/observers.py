"""Output observer that filters measurements before they reach feedback.

The nonlinear step contracts the estimate error through the Hölder gain;
the linear step with constant ratio ``(1 - beta) / (1 + beta)`` is kept as
a comparison baseline.  Because the gain tends to -1 as the error tends to
zero, the contraction factor approaches 1 near the origin and convergence
below a tolerance is what is actually observed and reported (see
``steps_to_tolerance``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import HolderGainParams, holder_gain, shown

__all__ = [
    "OutputObserverState",
    "fts_observer_step",
    "asymptotic_observer_step",
    "steps_to_tolerance",
]


@dataclass(frozen=True)
class OutputObserverState:
    """Current estimate and the error against the latest measurement."""

    estimate: np.ndarray
    last_error: np.ndarray

    def __post_init__(self):
        est = np.atleast_1d(np.asarray(self.estimate, dtype=float))
        err = np.atleast_1d(np.asarray(self.last_error, dtype=float))
        if est.shape != err.shape:
            raise ValueError(
                f"estimate shape {est.shape} does not match error shape {err.shape}"
            )
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "last_error", err)

    @classmethod
    def initial(cls, estimate, first_measurement) -> "OutputObserverState":
        """State before the first step: error taken against measurement 0."""
        est = np.atleast_1d(np.asarray(estimate, dtype=float))
        meas = np.atleast_1d(np.asarray(first_measurement, dtype=float))
        return cls(estimate=est, last_error=est - meas)


def fts_observer_step(
    state: OutputObserverState, new_measurement, gain: HolderGainParams
) -> OutputObserverState:
    """Advance the observer with the next measurement.

    The new estimate is ``measurement + gain(err) * err`` where ``err`` is
    the previous estimate error, so under noiseless measurements the error
    obeys ``err_next = gain(err) * err`` and its weighted square strictly
    decreases while nonzero.
    """
    m = np.atleast_1d(np.asarray(new_measurement, dtype=float))
    err = state.last_error
    if m.shape != err.shape:
        raise ValueError(
            f"measurement shape {m.shape} does not match state shape {err.shape}"
        )
    estimate = m + holder_gain(err, gain) * err
    return OutputObserverState(estimate=estimate, last_error=estimate - m)


def asymptotic_observer_step(error, beta: float) -> np.ndarray:
    """Linear baseline error update: ``(1 - beta) / (1 + beta) * error``."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {shown(beta)}")
    return ((1.0 - beta) / (1.0 + beta)) * np.atleast_1d(
        np.asarray(error, dtype=float)
    )


def steps_to_tolerance(
    initial_error, gain: HolderGainParams, tol: float, cap: int
) -> Optional[int]:
    """First step index at which the noiseless error map is within ``tol``.

    Iterates ``err <- gain(err) * err`` and returns the first k with
    ``norm(err) <= tol``, or None when the cap is exceeded.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {shown(tol)}")
    err = np.atleast_1d(np.asarray(initial_error, dtype=float))
    for k in range(cap + 1):
        if float(np.linalg.norm(err)) <= tol:
            return k
        err = holder_gain(err, gain) * err
    return None
