"""Shared numeric building blocks for the observers and the controller.

The central object is the Hölder-continuous gain

    ((x' W x)^(1 - 1/p) - margin) / ((x' W x)^(1 - 1/p) + margin)

which every observer and the tracking controller reuse with their own
weight/margin/exponent triple; ``float_gain`` is it as a function on
floats, the one the loop and the library's steps call.  The module also
holds the checks that every config constructor stores its numbers with.
The scalar recursion ``c_{k+1} = c_k - a_k * c_k**alpha`` of the
finite-time convergence argument is in ``claims/analysis.py``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HolderGainParams",
    "float_gain",
    "gain_args",
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


def require_instance(obj, name: str, *classes) -> None:
    """Raise a ``ValueError`` naming the field ``name`` of ``obj`` unless it
    holds an instance of one of ``classes``, where None admits None.  It
    reads "<name> must be a <class> or <class>, got <value>", with
    "boolean" for ``bool``."""
    value = getattr(obj, name)
    if not isinstance(value, tuple(type(None) if c is None else c for c in classes)):
        names = {bool: "boolean", None: "None"}
        expected = " or ".join(names.get(c) or c.__name__ for c in classes)
        raise ValueError(f"{name} must be a {expected}, got {shown(value)}")


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
