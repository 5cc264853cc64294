"""Ultra-local-model reconstruction and its first/second order observers.

The surrogate model ``y^(nu) = F + G u`` leaves everything unmodeled in
the signal F.  F at time k is only computable nu steps later (its value
needs outputs up to y[k+nu]), so the estimators here consume reconstructed
values as they become available and the controller runs on the resulting
prediction; the reconstruction lag is absorbed by the observers as part of
the first/second difference perturbation they are robust to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import HolderGainParams, forward_difference, holder_gain, require_int

__all__ = [
    "FIRST_ORDER",
    "SECOND_ORDER",
    "UlmConfig",
    "UlmObserverState",
    "reconstruct_f",
    "first_order_step",
    "second_order_step",
    "ulm_predict",
]

FIRST_ORDER = "first"
SECOND_ORDER = "second"


@dataclass(frozen=True)
class UlmConfig:
    """Order of the surrogate model and gains of its observer.

    The observer gain always uses the plain squared norm of the error
    (unit weight), as opposed to the output observer's weighted form.
    """

    order_nu: int
    margin: float
    exponent: float
    observer_order: str = FIRST_ORDER

    def __post_init__(self):
        require_int(self, "order_nu", ok=lambda n: n >= 1, rule="be >= 1")
        if self.observer_order not in (FIRST_ORDER, SECOND_ORDER):
            raise ValueError(
                f"observer_order must be '{FIRST_ORDER}' or '{SECOND_ORDER}', "
                f"got {self.observer_order!r}"
            )
        # delegate margin/exponent validation
        self.gain

    @cached_property
    def gain(self) -> HolderGainParams:
        return HolderGainParams(weight=1.0, margin=self.margin, exponent=self.exponent)


@dataclass(frozen=True)
class UlmObserverState:
    """Observer state; ``delta_f_hat`` is used by the second order only.

    ``consumed`` counts how many reconstructed values have been absorbed,
    which lets ``ulm_predict`` be called with a growing history.
    """

    f_hat: np.ndarray
    f_prev: Optional[np.ndarray] = None
    delta_f_hat: Optional[np.ndarray] = None
    consumed: int = 0

    @classmethod
    def initial(cls, dim: int, observer_order: str = FIRST_ORDER) -> "UlmObserverState":
        zero = np.zeros(dim)
        if observer_order == SECOND_ORDER:
            return cls(f_hat=zero, delta_f_hat=zero.copy())
        return cls(f_hat=zero)


def reconstruct_f(outputs, input_effect, order_nu: int) -> np.ndarray:
    """Recover F at the window start from nu+1 outputs and the input term.

    ``outputs`` are y[k..k+nu] (oldest first) and ``input_effect`` is the
    product G[k] u[k] that was applied at the window start; the result is
    the order-nu forward difference minus that input effect.
    """
    window = np.asarray(outputs, dtype=float)
    if window.ndim == 1:
        window = window[:, None]
    if window.shape[0] != order_nu + 1:
        raise ValueError(
            f"window of {window.shape[0]} samples does not match order "
            f"{order_nu} (need {order_nu + 1})"
        )
    diff = forward_difference(window, order_nu)[0]
    return diff - np.atleast_1d(np.asarray(input_effect, dtype=float))


def first_order_step(f_hat, f_known, gain: HolderGainParams) -> np.ndarray:
    """Next estimate from the newest known value of F.

    Computes ``D(e) e + f_known`` with ``e = f_hat - f_known``; on a
    constant signal the estimate error contracts through the gain every
    step.
    """
    f_hat = np.atleast_1d(np.asarray(f_hat, dtype=float))
    f_known = np.atleast_1d(np.asarray(f_known, dtype=float))
    if f_hat.shape != f_known.shape:
        raise ValueError(
            f"estimate shape {f_hat.shape} does not match value shape {f_known.shape}"
        )
    err = f_hat - f_known
    return holder_gain(err, gain) * err + f_known


def second_order_step(
    state: UlmObserverState, f_known, gain: HolderGainParams
) -> UlmObserverState:
    """Advance the second-order observer with the newest known F value.

    Tracks the first difference of F alongside F itself, which removes the
    steady offset the first-order observer carries on ramp-like signals.
    Requires one previously consumed value (``state.f_prev``).
    """
    if state.f_prev is None:
        raise ValueError("second-order step requires a previously consumed value")
    f_known = np.atleast_1d(np.asarray(f_known, dtype=float))
    delta_prev = f_known - state.f_prev
    err_delta = state.delta_f_hat - delta_prev
    new_delta_hat = holder_gain(err_delta, gain) * err_delta + delta_prev
    err_f = state.f_hat - f_known
    new_f_hat = holder_gain(err_f, gain) * err_f + f_known + new_delta_hat
    return UlmObserverState(
        f_hat=new_f_hat,
        f_prev=f_known,
        delta_f_hat=new_delta_hat,
        consumed=state.consumed + 1,
    )


def ulm_predict(
    state: UlmObserverState,
    reconstructed: Sequence[np.ndarray],
    config: UlmConfig,
) -> Tuple[np.ndarray, UlmObserverState]:
    """Prediction of F for the current control step, plus the new state.

    Absorbs any not-yet-consumed reconstructed values (normally exactly
    one per step) into the configured observer and returns its estimate.
    With no history yet the prediction is the zero vector; the second-order
    observer additionally spends its first value priming ``f_prev``.
    """
    new_state = state
    n = len(reconstructed)
    for i in range(state.consumed, n):
        value = np.atleast_1d(np.asarray(reconstructed[i], dtype=float))
        if config.observer_order == FIRST_ORDER:
            new_state = replace(
                new_state,
                f_hat=first_order_step(new_state.f_hat, value, config.gain),
                f_prev=value,
                consumed=new_state.consumed + 1,
            )
        else:
            if new_state.f_prev is None:
                new_state = replace(
                    new_state, f_prev=value, consumed=new_state.consumed + 1
                )
            else:
                new_state = second_order_step(new_state, value, config.gain)
    return new_state.f_hat.copy(), new_state
