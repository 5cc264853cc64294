"""Shared numeric building blocks for the observers and the controller.

The central object is the Hölder-continuous gain

    ((x' W x)^(1 - 1/p) - margin) / ((x' W x)^(1 - 1/p) + margin)

which every observer and the tracking controller reuse with their own
weight/margin/exponent triple; ``float_gain`` is it as a function on
floats, the one the loop and the library's steps call.  The module also
provides an executable oracle for the scalar recursion
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
    "float_gain",
    "gain_args",
    "holder_gain",
    "lyapunov_recursion",
    "gamma_ratio_bound",
]


def is_number(value) -> bool:
    """True for a real number: an int or float, or a numpy scalar or 0-d
    array of int or float dtype.  A bool is none, nor is a string,
    although ``float`` parses both."""
    if type(value) in (float, int):  # the common case, before the ABC check
        return True
    if isinstance(value, (np.ndarray, np.generic)):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    """``value`` for an error message, on one line: a string in quotes, a
    matrix with its rows on one line, and a description of an int too
    large for a float, or of a matrix holding an int past Python's
    4,300-digit limit on ``str``, which raises there."""
    if isinstance(value, (str, bytes)):
        return repr(value)
    try:
        if isinstance(value, int):
            float(value)
        text = str(value)
    except (OverflowError, ValueError):
        return "an int too large for a float"
    return " ".join(text.split()) if "\n" in text else text


def require_finite(obj, *names: str, ok=None, rule: str = "be finite") -> None:
    """Store ``float`` of each of the fields ``names`` of the frozen
    dataclass ``obj``, or raise a ``ValueError`` naming the first that is
    no finite number; see ``check_finite``."""
    for name in names:
        object.__setattr__(obj, name, check_finite(name, getattr(obj, name), ok, rule))


def check_finite(name: str, value, ok=None, rule: str = "be finite") -> float:
    """``value`` as a float, or a ``ValueError`` naming ``name`` when it is
    no finite number.

    No number, or one that fails ``ok``, reads "<name> must <rule>, got
    <value>"; a number that passes ``ok`` but is not finite reads "<name>
    must be finite".  So a sign rule reports ``-10**400`` by its sign.
    """
    if not (is_number(value) and (ok is None or ok(value))):
        raise ValueError(f"{name} must {rule}, got {shown(value)}")
    if not is_finite(value):
        raise ValueError(f"{name} must be finite, got {shown(value)}")
    return float(value)


def require_int(obj, *names: str, ok, rule: str) -> None:
    """Store ``int`` of each of the fields ``names`` of the frozen
    dataclass ``obj``, or raise a ``ValueError`` naming the first that is
    no integer or fails ``ok``; see ``check_int``."""
    for name in names:
        object.__setattr__(obj, name, check_int(name, getattr(obj, name), ok, rule))


def check_int(name: str, value, ok, rule: str) -> int:
    """``value`` as an int, or a ``ValueError`` naming ``name`` when it is
    no integer, which reads "<name> must be an integer, got <value>", or
    fails ``ok``, which reads "<name> must <rule>, got <value>".  An int or
    a numpy integer is an integer; a bool is none, nor is a float with an
    integral value."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if not ok(value):
        raise ValueError(f"{name} must {rule}, got {shown(value)}")
    return int(value)


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
class HolderGainParams:
    """Weight/margin/exponent triple of the Hölder gain.

    The loop is SISO, so ``weight`` is a number: it and ``margin`` must be
    positive, and ``exponent`` must lie in the open interval (1, 2).
    """

    weight: float
    margin: float
    exponent: float

    def __post_init__(self):
        require_finite(self, "weight", "margin", ok=is_positive, rule="be positive")
        require_finite(
            self, "exponent", ok=lambda p: 1.0 < p < 2.0, rule="lie in (1, 2)"
        )


def gain_args(params: HolderGainParams) -> tuple:
    """``params`` as the arguments ``(w, margin, a)`` of ``float_gain`` and
    of the kernels' ``run_loop``, with a = 1 - 1/exponent."""
    return params.weight, params.margin, 1.0 - 1.0 / params.exponent


def float_gain(w: float, margin: float, a: float):
    """The Hölder gain of a scalar error as a function on floats, for the
    weight ``w``, ``margin`` and ``a = 1 - 1/exponent``.

    The form rounds as w*(e*e), and a form that is not positive (zero or
    NaN) gives exactly -1.
    """
    exp, log = math.exp, math.log

    def gain(e):
        x = w * (e * e)
        if not x > 0.0:
            return -1.0
        z = exp(a * log(x))
        return (z - margin) / (z + margin)

    return gain


def holder_gain(err: float, params: HolderGainParams) -> float:
    """The Hölder gain of ``params`` at the scalar error ``err``.

    Returns a value in [-1, 1): exactly -1 iff err == 0, and strictly
    inside (-1, 1) otherwise, which is what makes the induced error maps
    contractions.
    """
    return float_gain(*gain_args(params))(err)


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
