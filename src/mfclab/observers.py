"""Output observer that filters measurements before they reach feedback.

The nonlinear step contracts the estimate error through the Hölder gain.
Because the gain tends to -1 as the error tends to zero, the contraction
factor approaches 1 near the origin and convergence below a tolerance is
what is actually observed and reported (see ``steps_to_tolerance`` in
``claims/analysis.py``, beside the linear comparison baseline).

Every step is a function on floats; ``gain`` is a float function of the
error, such as ``float_gain(*gain_args(params))``.
"""

from __future__ import annotations

__all__ = [
    "fts_observer_step",
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
