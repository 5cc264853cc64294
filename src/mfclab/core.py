"""Shared numeric building blocks for the observers and the controller.

The central object is the Hölder-continuous gain

    ((x' W x)^(1 - 1/p) - margin) / ((x' W x)^(1 - 1/p) + margin)

which every observer and the tracking controller reuse with their own
weight/margin/exponent triple.  The module also provides discrete forward
differences and an executable oracle for the scalar recursion
``c_{k+1} = c_k - a_k * c_k**alpha`` that underlies the finite-time
convergence argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "HolderGainParams",
    "LyapunovRecursionSpec",
    "holder_gain",
    "forward_difference",
    "lyapunov_recursion",
    "gamma_ratio_bound",
]


def is_finite(value) -> bool:
    """``math.isfinite`` that reads an int too large for a float as not
    finite, where ``math.isfinite`` raises ``OverflowError``."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value) -> str:
    """``str(value)`` for an error message, or a description of an int
    past Python's 4,300-digit limit on ``str``, which raises there."""
    try:
        return str(value)
    except ValueError:
        return "an int too large for a float"


def fractional_power(x: float, a: float) -> float:
    """x**a computed as exp(a*ln(x)) with an explicit branch at x == 0.

    The branch avoids log(0) when the quadratic form underflows to zero.
    """
    if x == 0.0:
        return 0.0
    return math.exp(a * math.log(x))


@dataclass(frozen=True, eq=False)
class HolderGainParams:
    """Weight/margin/exponent triple of the Hölder gain.

    ``weight`` is either a positive scalar (that multiple of the identity,
    usable with vectors of any dimension) or a symmetric positive-definite
    matrix.  ``margin`` must be positive and ``exponent`` must lie in the
    open interval (1, 2).
    """

    weight: Union[float, np.ndarray]
    margin: float
    exponent: float

    def __post_init__(self):
        if isinstance(self.weight, numbers.Real):
            if not (is_finite(self.weight) and self.weight > 0.0):
                raise ValueError(
                    "scalar weight must be positive and finite, "
                    f"got {shown(self.weight)}"
                )
            object.__setattr__(self, "weight", float(self.weight))
        else:
            try:
                w = np.asarray(self.weight, dtype=float)
            except OverflowError:
                raise ValueError("weight matrix must be finite") from None
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError(f"weight matrix must be square, got shape {w.shape}")
            if not np.isfinite(w).all():
                raise ValueError("weight matrix must be finite")
            if not np.allclose(w, w.T, rtol=1e-12, atol=0.0):
                raise ValueError("weight matrix must be symmetric")
            if np.linalg.eigvalsh(w).min() <= 0.0:
                raise ValueError("weight matrix must be positive definite")
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "weight", w)
        if not (self.margin > 0.0 and is_finite(self.margin)):
            raise ValueError(f"margin must be positive, got {shown(self.margin)}")
        if not 1.0 < self.exponent < 2.0:
            raise ValueError(f"exponent must lie in (1, 2), got {shown(self.exponent)}")

    def __eq__(self, other):
        if not isinstance(other, HolderGainParams):
            return NotImplemented
        if isinstance(self.weight, float) != isinstance(other.weight, float):
            return False
        same_w = (
            self.weight == other.weight
            if isinstance(self.weight, float)
            else np.array_equal(self.weight, other.weight)
        )
        return same_w and self.margin == other.margin and self.exponent == other.exponent

    def quadratic_form(self, err: np.ndarray) -> float:
        """x' W x for the configured weight; never negative."""
        if isinstance(self.weight, float):
            x = self.weight * float(err @ err)
        else:
            if err.shape != (self.weight.shape[0],):
                raise ValueError(
                    f"error dimension {err.shape} does not match weight "
                    f"{self.weight.shape}"
                )
            x = float(err @ self.weight @ err)
        # guard against -0.0 / tiny negative round-off from the matrix form
        return x if x > 0.0 else 0.0


def holder_gain(err, params: HolderGainParams) -> float:
    """Evaluate the Hölder gain at ``err``.

    Returns a value in [-1, 1): exactly -1 iff err == 0, and strictly
    inside (-1, 1) otherwise, which is what makes the induced error maps
    contractions.
    """
    e = np.atleast_1d(np.asarray(err, dtype=float))
    x = params.quadratic_form(e)
    z = fractional_power(x, 1.0 - 1.0 / params.exponent)
    return (z - params.margin) / (z + params.margin)


def forward_difference(series, order: int):
    """Order-``order`` forward difference of a sequence of samples.

    Samples may be scalars or vectors (stacked along the first axis).
    Order 0 returns the series unchanged; each further order maps
    ``y[k] -> y[k+1] - y[k]`` elementwise, so the output is shorter than
    the input by ``order`` samples.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {shown(order)}")
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] <= order:
        raise ValueError(
            f"series of length {arr.shape[0]} is too short for order {order}"
        )
    for _ in range(order):
        arr = arr[1:] - arr[:-1]
    return arr


@dataclass(frozen=True)
class LyapunovRecursionSpec:
    """Inputs of the finite-time recursion c_{k+1} = c_k - a_k * c_k**alpha.

    ``ratio_sequence`` is either a constant (every a_k equal) or an indexed
    sequence; conventionally a_0 == 1.  ``c0`` may be zero, in which case
    the recursion starts (and stays) at the fixed point.
    """

    alpha: float
    c0: float
    ratio_sequence: Union[float, Sequence[float]] = 1.0
    max_steps: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {shown(self.alpha)}")
        if not (self.c0 >= 0.0 and is_finite(self.c0)):
            raise ValueError(f"c0 must be finite and non-negative, got {shown(self.c0)}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {shown(self.max_steps)}")
        if isinstance(self.ratio_sequence, numbers.Real):
            if float(self.ratio_sequence) <= 0.0:
                raise ValueError("ratio must be positive")
        else:
            seq = tuple(float(a) for a in self.ratio_sequence)
            if any(a <= 0.0 for a in seq):
                raise ValueError("every ratio a_k must be positive")
            object.__setattr__(self, "ratio_sequence", seq)

    def ratio(self, k: int) -> float:
        if isinstance(self.ratio_sequence, numbers.Real):
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
    if not (mu > 0.0 and is_finite(mu)):
        raise ValueError(f"mu must be positive, got {shown(mu)}")
    if not 1.0 < exponent < 2.0:
        raise ValueError(f"exponent must lie in (1, 2), got {shown(exponent)}")
    t = fractional_power(chi, 1.0 - 1.0 / exponent)
    delta = mu * (1.0 - t) / (t + mu)
    epsilon = 2.0 * delta - delta * delta
    return (1.0 - delta) ** 2, epsilon
