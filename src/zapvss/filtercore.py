"""Per-sample adaptive update: error, sign vector, and the attracted step."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """A weight update produced a non-finite component."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


@dataclass(slots=True)
class FilterState:
    """Adaptive weight vector plus the index of the next sample to consume."""

    w: np.ndarray
    n: int = 0


def sign_vec(w) -> np.ndarray:
    """Component-wise sign: x/|x| for nonzero components, 0 at 0."""
    return np.sign(np.asarray(w, dtype=np.float64))


def predict_error(w_prev, x, d: float) -> float:
    """A-priori error d - x.w using the pre-update weights."""
    if len(w_prev) != len(x):
        raise ValueError(f"length mismatch: {len(w_prev)} vs {len(x)}")
    return float(d - np.dot(x, w_prev))


def apply_update(w_prev, x, e: float, mu: float, kappa: float) -> np.ndarray:
    """One weight update w + mu*e*x - kappa*sign(w).

    With kappa=0 this is exactly the plain LMS step. A non-finite result
    component raises DivergenceError instead of propagating silently.
    """
    if len(w_prev) != len(x):
        raise ValueError(f"length mismatch: {len(w_prev)} vs {len(x)}")
    if not (math.isfinite(mu) and math.isfinite(kappa)):
        raise ValueError("mu and kappa must be finite")
    w = w_prev + (mu * e) * np.asarray(x) - kappa * np.sign(w_prev)
    if not np.all(np.isfinite(w)):
        raise DivergenceError("weight update produced a non-finite component")
    return w


def step(state: FilterState, x, d: float, mu: float, controller):
    """Advance one sample: error, controller kappa, then the weight update.

    All three stages see the pre-update weights. The controller is advanced
    in place; returns (e, kappa, new FilterState). Overflow on the way to a
    divergence is silent: the update reports it as a DivergenceError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = predict_error(state.w, x, d)
        kappa = controller.update(e, x, state.w)
        try:
            w = apply_update(state.w, x, e, mu, kappa)
        except DivergenceError as err:
            err.sample_index = state.n
            raise
    return e, kappa, FilterState(w, state.n + 1)
