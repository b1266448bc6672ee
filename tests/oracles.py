"""Plain-Python references for the test suite.

The vector helpers (sign, regressor window, norms) restate by hand what
the vectorized engine computes with slices and reductions. The
ground-truth oracles need the true channel, which a running filter never
sees. The controller references recompute each kind's kappa one
sample at a time with scalar arithmetic, independently of the vectorized
updates in ``zapvss.stepsize``, so those updates have a reference that
shares none of their code.
"""

import math
from collections import deque

import numpy as np

from zapvss.channel import Channel
from zapvss.metrics import sparsity_xi


def sign_vec(w) -> np.ndarray:
    """Component-wise sign: x/|x| for nonzero components, 0 at 0."""
    return np.sign(np.asarray(w, dtype=np.float64))


def regressor_at(x, n: int, L: int) -> np.ndarray:
    """Window [x(n), x(n-1), ..., x(n-L+1)] with zeros before the start."""
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= n < x.size:
        raise ValueError(f"sample index {n} outside [0, {x.size})")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    out = np.zeros(L)
    k = min(L, n + 1)
    out[:k] = x[n - k + 1:n + 1][::-1]
    return out


def norms(w) -> tuple[float, float]:
    """l1 and l2 norms of a tap vector."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(np.abs(w))), float(np.linalg.norm(w))


def _taps(h) -> np.ndarray:
    return h.taps if isinstance(h, Channel) else np.asarray(h, dtype=np.float64)


def residual_error(h, w, x) -> float:
    """Ground-truth a-priori error (h - w).x of the noiseless system."""
    h = _taps(h)
    if len(h) != len(w) or len(h) != len(x):
        raise ValueError("h, w, x must share one length")
    return float(np.dot(h - np.asarray(w, dtype=np.float64), x))


def oracle_delta_projected(h, w, x) -> float:
    """Distance estimate computed from the true residual error instead of
    the observable error."""
    h = _taps(h)
    if len(h) != len(w) or len(h) != len(x):
        raise ValueError("h, w, x must share one length")
    den = float(np.dot(x, x))
    if den == 0.0:
        return 0.0
    eps = residual_error(h, w, x)
    return abs(eps * float(np.dot(x, np.sign(w)))) / den


def oracle_delta_l1(h, w) -> float:
    """True averaged l1 sparseness distance |  ||w||_1 - ||h||_1  | / L."""
    h = _taps(h)
    w = np.asarray(w, dtype=np.float64)
    if len(h) != len(w):
        raise ValueError("h and w must share one length")
    return abs(float(np.sum(np.abs(w))) - float(np.sum(np.abs(h)))) / len(h)


def kappa_smooth(kappa_prev: float, delta: float, alpha: float, gamma: float) -> float:
    """Long-term average (1-alpha)*kappa + alpha*gamma*delta, clamped at 0."""
    return max(0.0, (1.0 - alpha) * kappa_prev + alpha * gamma * delta)


def proposed_l1_delta(e: float, x, w_prev) -> float:
    """Estimated l1 sparseness distance |e * x.sign(w)| / (x.x).

    A zero regressor carries no sparseness information and yields 0.
    """
    if len(x) != len(w_prev):
        raise ValueError(f"length mismatch: {len(x)} vs {len(w_prev)}")
    den = float(np.dot(x, x))
    if den == 0.0:
        return 0.0
    return abs(e * float(np.dot(x, np.sign(w_prev)))) / den


def proposed_norm_delta(e: float, x, w_prev, w2_floor: float) -> float:
    """The l1 estimate divided by (sqrt(L)-1)*max(||w||, w2_floor)."""
    L = len(x)
    if L <= 1:
        raise ValueError("normalized delta needs L > 1")
    if w2_floor <= 0.0:
        raise ValueError(f"w2_floor must be > 0, got {w2_floor}")
    base = proposed_l1_delta(e, x, w_prev)
    scale = (math.sqrt(L) - 1.0) * max(float(np.linalg.norm(w_prev)), w2_floor)
    return base / scale


def liu_measure(w, measure: str) -> float:
    """Liu's sparseness measure J(w): the l1 norm or the xi sparsity (0 for
    the zero vector, whose sparsity is undefined)."""
    if measure == "l1":
        return float(np.sum(np.abs(w)))
    if not np.any(w):
        return 0.0
    return sparsity_xi(w)


class ScalarController:
    """One run of one controller kind, one sample at a time; ``p`` is the
    full parameter set from ``controller_params``. ``update(e, x, w)``
    returns kappa for the pre-update weights ``w``."""

    def __init__(self, kind: str, p: dict):
        self.kind = kind
        self.p = p
        self.kappa = p.get("kappa0", 0.0)
        self.phi = 0.0
        self.mse = 0.0
        self.history = deque(maxlen=p.get("window", 1))
        self.cooldown_left = 0

    def _plateau(self, e: float) -> bool:
        p = self.p
        full = len(self.history) == p["window"]
        m_old = self.history[0] if full else None
        self.mse = (1.0 - p["beta"]) * self.mse + p["beta"] * e * e
        event = False
        if self.cooldown_left > 0:
            self.cooldown_left -= 1
        elif m_old is not None and m_old > 0.0:
            if abs(self.mse - m_old) / m_old < p["tolerance"]:
                event = True
                self.cooldown_left = p["cooldown"]
        self.history.append(self.mse)
        return event

    def update(self, e: float, x, w) -> float:
        p = self.p
        if self.kind in ("lms", "fixed_zap"):
            return self.kappa
        if self.kind == "you":
            if self._plateau(e) and self.kappa > p["kappa_min"]:
                self.kappa *= p["eta"]
            return self.kappa
        if self.kind == "liu":
            j = liu_measure(w, p["measure"])
            delta = j - self.phi
            self.phi = (1.0 - p["lambda"]) * self.phi + p["lambda"] * j
        elif self.kind == "proposed_l1":
            delta = proposed_l1_delta(e, x, w)
        else:
            delta = proposed_norm_delta(e, x, w, p["w2_floor"])
        kappa = kappa_smooth(self.kappa, delta, p["alpha"], p["gamma"])
        self.kappa = min(kappa, p["kappa_max"])
        return self.kappa
