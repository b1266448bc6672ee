"""Per-sample adaptive update: error, sign vector, and the attracted step."""

from __future__ import annotations

import math

import numpy as np


class DivergenceError(RuntimeError):
    """A weight update produced a non-finite component."""


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


def step(w, x, d: float, mu: float, controller):
    """Advance one sample: error, controller kappa, then the weight update.

    All three stages see the pre-update weights ``w``. ``controller`` (from
    ``make_controller``, one row) is bound to the filter length, handed
    the reductions its kind reads and advanced in place; returns (e,
    kappa, new weights). Overflow on the way to a divergence is silent:
    the update reports it as a DivergenceError.
    """
    with np.errstate(all="ignore"):
        e = predict_error(w, x, d)
        x = np.asarray(x, dtype=np.float64)
        sgn = np.sign(w)
        reductions = {"xx": np.dot(x, x), "xs": np.dot(x, sgn),
                      "ww": np.dot(w, w), "ws": np.abs(w).sum()}
        controller.bind(len(x))
        controller.update(np.array([e]), *(np.array([reductions[r]])
                                           for r in controller.spec.reads))
        kappa = float(controller.kappa[0])
        return e, kappa, apply_update(w, x, e, mu, kappa)
