"""Shared numeric building blocks for the observers and the controller.

The central object is the Hölder-continuous gain

    ((x' W x)^(1 - 1/p) - margin) / ((x' W x)^(1 - 1/p) + margin)

which every observer and the tracking controller reuse with their own
weight/margin/exponent triple; ``float_gain`` is it as a function on
floats, the one the loop and the library's steps call.  The module also
holds ``check_fields``, the one check of every config constructor,
which reads each field's rule off its annotation.
The scalar recursion ``c_{k+1} = c_k - a_k * c_k**alpha`` of the
finite-time convergence argument is in ``claims/analysis.py``.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass, fields, is_dataclass
from typing import Union

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


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


@functools.cache
def _kind(tp) -> tuple:
    """What the annotation ``tp`` is, as ``harness._decode`` reads it: its
    kind and the annotation or members it decodes through."""
    if tp in (float, int, str, bool):
        return "scalar", tp
    if is_dataclass(tp):
        return "dataclass", tp
    args = typing.get_args(tp)
    # a Union: an Optional, or one of the tagged dataclasses of harness._KINDS
    members = tuple(a for a in args if a is not type(None))
    if len(members) < len(args):
        return "optional", Union[members]
    return "tagged", members


@functools.cache
def _admitted(tp) -> tuple:
    """The classes the annotation ``tp`` admits, and the words "<class> or
    <class>" that name them, with "boolean" for ``bool``."""
    classes = typing.get_args(tp) or (tp,)
    names = {bool: "boolean", type(None): "None"}
    return classes, " or ".join(names.get(c) or c.__name__ for c in classes)


def check_fields(obj, **rules) -> None:
    """Check each field of the frozen dataclass ``obj`` by its annotation.

    A float field is stored as ``check_finite`` returns it and an int field
    as ``check_int`` does, each with the ``(ok, rule)`` pair that ``rules``
    gives its name (a float field without one need only be finite).  A
    bool, dataclass, Optional or Union field must hold an instance of the
    annotation's classes, or a ``ValueError`` reads "<name> must be a
    <class> or <class>, got <value>".  A str field is left to its class.
    """
    for name, (_, tp) in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if tp is float:
            object.__setattr__(obj, name, check_finite(name, value, *rules.get(name, ())))
        elif tp is int:
            object.__setattr__(obj, name, check_int(name, value, *rules[name]))
        elif tp is not str:
            classes, expected = _admitted(tp)
            if not isinstance(value, classes):
                raise ValueError(f"{name} must be a {expected}, got {shown(value)}")


# the rules of the Hölder gain's weight or margin and of its exponent
POSITIVE = (is_positive, "be positive")
HOLDER_EXPONENT = (lambda p: 1.0 < p < 2.0, "lie in (1, 2)")


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
        check_fields(self, weight=POSITIVE, margin=POSITIVE, exponent=HOLDER_EXPONENT)


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
