"""Discrete-time model-free control laboratory.

Finite-time stable output filtering, ultra-local-model estimation, a
sliding-manifold tracking controller, and a closed-loop simulation harness
around an inverted pendulum on a cart.  The package exports each module's
``__all__``.
"""

from . import controller, core, harness, observers, plants, ulm
from .controller import *
from .core import *
from .harness import *
from .observers import *
from .plants import *
from .ulm import *

__all__ = [
    *controller.__all__, *core.__all__, *harness.__all__,
    *observers.__all__, *plants.__all__, *ulm.__all__,
]

__version__ = "0.1.0"
