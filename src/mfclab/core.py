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
from dataclasses import dataclass, fields
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


def is_number(value) -> bool:
    """True for a real number: a bool, int or float, or a numpy scalar or
    0-d array of bool, int or float dtype.  A string is none, although
    ``float`` parses it."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.ndim == 0 and value.dtype.kind in "biuf"
    return isinstance(value, numbers.Real)


def is_finite(value) -> bool:
    """True for a finite number (see ``is_number``); an int too large for
    a float is not finite, where ``math.isfinite`` raises."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def is_positive(value) -> bool:
    """True for a positive finite number."""
    return is_finite(value) and value > 0.0


def shown(value) -> str:
    """``value`` for an error message: a string in quotes, and a
    description of an int past Python's 4,300-digit limit on ``str``,
    which raises there."""
    if isinstance(value, (str, bytes)):
        return repr(value)
    try:
        return str(value)
    except ValueError:
        return "an int too large for a float"


def require_finite(obj, *names: str, ok=None, rule: str = "be finite") -> None:
    """Raise a ``ValueError`` naming the first of the fields ``names`` of
    ``obj`` (a tuple field element by element) that is no finite number;
    see ``check_finite``."""
    for name in names:
        value = getattr(obj, name)
        for v in value if isinstance(value, tuple) else (value,):
            check_finite(name, v, ok, rule)


def check_finite(name: str, value, ok=None, rule: str = "be finite") -> None:
    """Raise a ``ValueError`` naming ``name`` when ``value`` is no finite
    number.

    No number, or one that fails ``ok``, reads "<name> must <rule>, got
    <value>"; a number that passes ``ok`` but is not finite reads "<name>
    must be finite".  So a sign rule reports ``-10**400`` by its sign.
    """
    if not (is_number(value) and (ok is None or ok(value))):
        raise ValueError(f"{name} must {rule}, got {shown(value)}")
    if not is_finite(value):
        raise ValueError(f"{name} must be finite, got {shown(value)}")


def require_int(obj, *names: str, ok, rule: str) -> None:
    """Raise a ``ValueError`` naming the first of the fields ``names`` of
    ``obj`` that is no integer, which reads "<name> must be an integer, got
    <value>", or that fails ``ok``, which reads "<name> must <rule>, got
    <value>".  An int or a numpy integer is an integer; a bool is none, nor
    is a float with an integral value."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {shown(value)}")
        if not ok(value):
            raise ValueError(f"{name} must {rule}, got {shown(value)}")


def scalar_or_matrix(value, scalar_rule: str, matrix: str, ok, square: bool):
    """``value`` as a float, or as a read-only copy of a 2-D float array.

    A 0-d value must be a finite number that passes ``ok``, else it fails
    with "<scalar_rule>, got <value>".  A matrix, named ``matrix`` in its
    errors, must be 2-D (square if ``square``) and hold finite numbers: a
    string array is rejected, although ``float`` parses its elements.
    """
    m = np.asarray(value)
    if m.ndim == 0:
        if not (is_finite(value) and ok(value)):
            raise ValueError(f"{scalar_rule}, got {shown(value)}")
        return float(value)
    kind = m.dtype.kind
    if not (kind in "biuf" or (kind == "O" and all(map(is_finite, m.flat)))):
        raise ValueError(f"{matrix} must be finite")
    if m.ndim != 2 or (square and m.shape[0] != m.shape[1]):
        shape = "square" if square else "2-D"
        raise ValueError(f"{matrix} must be {shape}, got shape {m.shape}")
    m = m.astype(float)  # a copy: the caller's array cannot change it
    if not np.isfinite(m).all():
        raise ValueError(f"{matrix} must be finite")
    m.flags.writeable = False
    return m


def same_fields(self, other):
    """``__eq__`` of a dataclass of number fields, where a matrix equals
    only an array of its shape and values, never a scalar."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) for a, b in pairs)


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
        rule = "scalar weight must be positive and finite"
        w = scalar_or_matrix(self.weight, rule, "weight matrix", is_positive, True)
        if isinstance(w, np.ndarray):
            if not np.allclose(w, w.T, rtol=1e-12, atol=0.0):
                raise ValueError("weight matrix must be symmetric")
            if np.linalg.eigvalsh(w).min() <= 0.0:
                raise ValueError("weight matrix must be positive definite")
        object.__setattr__(self, "weight", w)
        require_finite(self, "margin", ok=is_positive, rule="be positive")
        require_finite(
            self, "exponent", ok=lambda p: 1.0 < p < 2.0, rule="lie in (1, 2)"
        )

    __eq__ = same_fields

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
        require_finite(self, "alpha", ok=lambda a: 0.0 < a < 1.0, rule="lie in (0, 1)")
        require_finite(self, "c0", ok=lambda c: c >= 0.0, rule="be non-negative")
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
    if not is_positive(mu):
        raise ValueError(f"mu must be positive, got {shown(mu)}")
    if not 1.0 < exponent < 2.0:
        raise ValueError(f"exponent must lie in (1, 2), got {shown(exponent)}")
    t = fractional_power(chi, 1.0 - 1.0 / exponent)
    delta = mu * (1.0 - t) / (t + mu)
    epsilon = 2.0 * delta - delta * delta
    return (1.0 - delta) ** 2, epsilon
