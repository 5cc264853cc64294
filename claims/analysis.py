"""The paper's finite-time analysis as executable functions, apart from
the loop that the commands run.

* ``lyapunov_recursion`` iterates the scalar recursion
  ``c_{k+1} = c_k - a_k * c_k**alpha`` that underlies the finite-time
  convergence argument, from a ``LyapunovRecursionSpec``;
* ``gamma_ratio_bound`` is the lower bound on the gain-ratio sequence
  used in that argument;
* ``steps_to_tolerance`` counts the steps of the noiseless observer error
  map ``err <- gain(err) * err`` to a tolerance, and
  ``asymptotic_observer_step`` is the linear observer it is compared with.

It imports ``mfclab`` (installed, or ``src/`` on ``PYTHONPATH``); nothing
in ``mfclab`` imports it.  The tests reach it through the ``pythonpath``
setting of ``pyproject.toml``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from mfclab.core import (
    check_finite,
    is_number,
    is_positive,
    require_finite,
    require_int,
    shown,
)


def as_tuple(name: str, value) -> tuple:
    """``value``, an iterable, as a tuple, or a ``ValueError`` that reads
    "<name> must be a sequence, got <value>".  A string is none: its items
    are characters, not numbers."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a sequence, got {shown(value)}")


@dataclass(frozen=True)
class LyapunovRecursionSpec:
    """Inputs of the finite-time recursion c_{k+1} = c_k - a_k * c_k**alpha.

    ``ratio_sequence`` is either a constant (every a_k equal) or an indexed
    sequence, of positive finite numbers; conventionally a_0 == 1.  ``c0``
    may be zero, in which case the recursion starts (and stays) at the
    fixed point.
    """

    alpha: float
    c0: float
    ratio_sequence: Union[float, Sequence[float]] = 1.0
    max_steps: int = 10_000

    def __post_init__(self):
        require_finite(self, "alpha", ok=lambda a: 0.0 < a < 1.0, rule="lie in (0, 1)")
        require_finite(self, "c0", ok=lambda c: c >= 0.0, rule="be non-negative")
        require_int(self, "max_steps", ok=lambda n: n >= 1, rule="be positive")
        ratios = self.ratio_sequence
        if not is_number(ratios):
            ratios = as_tuple("ratio_sequence", ratios)
        for a in ratios if isinstance(ratios, tuple) else (ratios,):
            # NaN passes the sign rule, to be reported as not finite
            check_finite("ratio_sequence", a, lambda a: not a <= 0.0, "be positive")
        if isinstance(ratios, tuple):
            object.__setattr__(self, "ratio_sequence", tuple(map(float, ratios)))

    def ratio(self, k: int) -> float:
        if not isinstance(self.ratio_sequence, tuple):
            return float(self.ratio_sequence)
        if k >= len(self.ratio_sequence):
            raise ValueError(
                f"ratio sequence of length {len(self.ratio_sequence)} exhausted "
                f"at step {k}"
            )
        return self.ratio_sequence[k]


def lyapunov_recursion(spec: LyapunovRecursionSpec):
    """Iterate the recursion, clamping the first non-positive update to 0.

    Returns ``(sequence, n_zero)`` where ``sequence[k] == c_k`` and
    ``n_zero`` is the first index with c_N == 0 (None when the recursion
    has not reached zero within ``max_steps`` updates).  The sequence is
    strictly decreasing until it hits zero.
    """
    c = spec.c0
    seq = [c]
    n_zero: Optional[int] = 0 if c == 0.0 else None
    k = 0
    while n_zero is None and k < spec.max_steps:
        nxt = c - spec.ratio(k) * math.pow(c, spec.alpha)
        if nxt <= 0.0:
            nxt = 0.0
            n_zero = k + 1
        seq.append(nxt)
        c = nxt
        k += 1
    return np.asarray(seq), n_zero


def gamma_ratio_bound(chi: float, mu: float, exponent: float):
    """Lower bound on the gain-ratio sequence over the band (chi*V0, V0).

    Returns ``(a_lower, epsilon)`` with a_lower = (1 - delta)**2 and
    epsilon = 2*delta - delta**2 for
    delta = mu*(1 - chi^(1-1/exponent)) / (chi^(1-1/exponent) + mu).
    Both outputs lie in (0, 1) for arguments in the stated open ranges.
    """
    if not 0.0 < chi < 1.0:
        raise ValueError(f"chi must lie in (0, 1), got {shown(chi)}")
    if not is_positive(mu):
        raise ValueError(f"mu must be positive, got {shown(mu)}")
    if not 1.0 < exponent < 2.0:
        raise ValueError(f"exponent must lie in (1, 2), got {shown(exponent)}")
    t = math.exp((1.0 - 1.0 / exponent) * math.log(chi))  # chi**(1 - 1/exponent)
    delta = mu * (1.0 - t) / (t + mu)
    epsilon = 2.0 * delta - delta * delta
    return (1.0 - delta) ** 2, epsilon


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
