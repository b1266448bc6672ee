"""Zero-attractor step-size controllers.

Five interchangeable ways to produce the attractor step-size kappa(n) each
sample, all sharing the interface ``update(e, x, w) -> kappa`` where ``w``
is the pre-update weight vector:

* ``FixedKappa``     constant kappa (0 reduces the filter to plain LMS)
* ``YouVss``         start large, multiply by eta on detected convergence,
                     freeze once kappa <= kappa_min
* ``LiuVss``         smooth the gradient of the filter's own sparseness
                     measure (l1 norm or the xi sparsity) into kappa
* ``ProposedL1Vss``  kappa proportional to an estimate of the l1 sparseness
                     distance between the filter and the unknown response
* ``ProposedNormVss`` same estimate divided by (sqrt(L)-1)*||w||, which keeps
                     the attraction safe on dispersive responses

``batch_controller`` turns a fresh controller into its vectorized form over
many runs at once, for the batched grid engine.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .metrics import smoothed_mse, sparsity_xi

MEASURE_L1 = "l1"
MEASURE_XI = "xi"

CONTROLLER_KINDS = ("lms", "fixed_zap", "you", "liu", "proposed_l1", "proposed_norm")

# config keys accepted per controller kind and their scalar types
PARAM_SPECS: dict[str, dict[str, type]] = {
    "lms": {},
    "fixed_zap": {"kappa0": float},
    "you": {
        "kappa0": float,
        "eta": float,
        "kappa_min": float,
        "beta": float,
        "window": int,
        "tolerance": float,
        "cooldown": int,
    },
    "liu": {
        "kappa0": float,
        "lambda": float,
        "alpha": float,
        "gamma": float,
        "measure": str,
        "kappa_max": float,
    },
    "proposed_l1": {"kappa0": float, "alpha": float, "gamma": float, "kappa_max": float},
    "proposed_norm": {
        "kappa0": float,
        "alpha": float,
        "gamma": float,
        "w2_floor": float,
        "kappa_max": float,
    },
}


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
    """Gain-normalized distance estimate, usable on dispersive responses.

    Divides the l1 estimate by (sqrt(L)-1)*||w||, flooring ||w|| at
    ``w2_floor`` so the early near-zero filter cannot blow the ratio up.
    """
    L = len(x)
    if L <= 1:
        raise ValueError("normalized delta needs L > 1")
    if w2_floor <= 0.0:
        raise ValueError(f"w2_floor must be > 0, got {w2_floor}")
    base = proposed_l1_delta(e, x, w_prev)
    scale = (math.sqrt(L) - 1.0) * max(float(np.linalg.norm(w_prev)), w2_floor)
    return base / scale


class ConvergenceDetector:
    """Plateau detector on exponentially smoothed squared error.

    Emits an event when the smoothed error power changed by less than
    ``tolerance`` (relative) over the last ``window`` samples, at most once
    per ``cooldown`` samples. Needs a full window of history before it can
    fire, so the initial transient never triggers it.
    """

    def __init__(self, beta: float = 0.01, window: int = 200,
                 tolerance: float = 0.05, cooldown: int | None = None):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {beta}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be > 0, got {tolerance}")
        self.beta = beta
        self.window = window
        self.tolerance = tolerance
        self.cooldown = window if cooldown is None else cooldown
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        self.smoothed_mse = 0.0
        self._history: deque[float] = deque(maxlen=window)
        self._cooldown_left = 0

    def observe(self, e: float) -> bool:
        """Feed one error sample; True when a convergence event fires."""
        m_old = self._history[0] if len(self._history) == self.window else None
        self.smoothed_mse = smoothed_mse(self.smoothed_mse, e, self.beta)
        event = False
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
        elif m_old is not None and m_old > 0.0:
            if abs(self.smoothed_mse - m_old) / m_old < self.tolerance:
                event = True
                self._cooldown_left = self.cooldown
        self._history.append(self.smoothed_mse)
        return event


class FixedKappa:
    """Constant attractor step-size; kappa0=0 is plain LMS."""

    def __init__(self, kappa0: float):
        if not (kappa0 >= 0.0 and math.isfinite(kappa0)):
            raise ValueError(f"kappa0 must be >= 0 and finite, got {kappa0}")
        self.kappa = kappa0

    def update(self, e, x, w_prev) -> float:
        return self.kappa


class YouVss:
    """Decay-on-convergence schedule.

    kappa starts at kappa0 and is multiplied by eta each time the detector
    reports convergence, until kappa <= kappa_min freezes it for good. The
    frozen step-size is what makes this scheme blind to later path changes.
    """

    def __init__(self, kappa0: float, eta: float, kappa_min: float,
                 detector: ConvergenceDetector | None = None):
        if not (kappa0 >= 0.0 and math.isfinite(kappa0)):
            raise ValueError(f"kappa0 must be >= 0 and finite, got {kappa0}")
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta must be in (0,1), got {eta}")
        if kappa_min <= 0.0:
            raise ValueError(f"kappa_min must be > 0, got {kappa_min}")
        self.kappa = kappa0
        self.eta = eta
        self.kappa_min = kappa_min
        self.detector = ConvergenceDetector() if detector is None else detector

    def update(self, e, x, w_prev) -> float:
        event = self.detector.observe(e)
        if event and self.kappa > self.kappa_min:
            self.kappa *= self.eta
        return self.kappa


class LiuVss:
    """Sparseness-gradient schedule.

    Tracks a forgetting-factor average phi of the filter's own sparseness
    measure J(w); the difference J(w) - phi is smoothed into kappa. delta can
    be negative here, so the zero clamp in kappa_smooth is load-bearing.
    """

    def __init__(self, lam: float, alpha: float, gamma: float,
                 kappa0: float = 0.0, measure: str = MEASURE_XI,
                 kappa_max: float | None = None, phi0: float = 0.0):
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must be in (0,1), got {lam}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        if gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        if not (kappa0 >= 0.0 and math.isfinite(kappa0)):
            raise ValueError(f"kappa0 must be >= 0 and finite, got {kappa0}")
        if measure not in (MEASURE_L1, MEASURE_XI):
            raise ValueError(f"measure must be 'l1' or 'xi', got {measure!r}")
        if kappa_max is not None and kappa_max <= 0.0:
            raise ValueError(f"kappa_max must be > 0, got {kappa_max}")
        self.lam = lam
        self.alpha = alpha
        self.gamma = gamma
        self.measure = measure
        self.kappa_max = kappa_max
        self.kappa = kappa0
        self.phi = phi0

    def _measure(self, w) -> float:
        if self.measure == MEASURE_L1:
            return float(np.sum(np.abs(w)))
        if not np.any(w):
            return 0.0  # sparsity of the zero vector is undefined; no signal
        return sparsity_xi(w)

    def update(self, e, x, w_prev) -> float:
        j = self._measure(w_prev)
        delta = j - self.phi
        self.phi = (1.0 - self.lam) * self.phi + self.lam * j
        kappa = kappa_smooth(self.kappa, delta, self.alpha, self.gamma)
        if self.kappa_max is not None:
            kappa = min(kappa, self.kappa_max)
        self.kappa = kappa
        return kappa


class _SmoothedDeltaVss:
    """Shared smoothing shell for the distance-estimate controllers."""

    def __init__(self, alpha: float, gamma: float, kappa0: float,
                 kappa_max: float | None):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        if gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        if not (kappa0 >= 0.0 and math.isfinite(kappa0)):
            raise ValueError(f"kappa0 must be >= 0 and finite, got {kappa0}")
        if kappa_max is not None and kappa_max <= 0.0:
            raise ValueError(f"kappa_max must be > 0, got {kappa_max}")
        self.alpha = alpha
        self.gamma = gamma
        self.kappa = kappa0
        self.kappa_max = kappa_max

    def _delta(self, e, x, w_prev) -> float:
        raise NotImplementedError

    def update(self, e, x, w_prev) -> float:
        kappa = kappa_smooth(self.kappa, self._delta(e, x, w_prev),
                             self.alpha, self.gamma)
        if self.kappa_max is not None:
            kappa = min(kappa, self.kappa_max)
        self.kappa = kappa
        return kappa


class ProposedL1Vss(_SmoothedDeltaVss):
    """kappa proportional to the smoothed l1 sparseness-distance estimate."""

    def __init__(self, alpha: float, gamma: float, kappa0: float = 0.0,
                 kappa_max: float | None = None):
        super().__init__(alpha, gamma, kappa0, kappa_max)

    def _delta(self, e, x, w_prev) -> float:
        return proposed_l1_delta(e, x, w_prev)


class ProposedNormVss(_SmoothedDeltaVss):
    """kappa from the gain-normalized distance estimate; the variant meant
    to behave on both sparse and dispersive responses."""

    def __init__(self, alpha: float, gamma: float, w2_floor: float = 1e-2,
                 kappa0: float = 0.0, kappa_max: float | None = None):
        super().__init__(alpha, gamma, kappa0, kappa_max)
        if w2_floor <= 0.0:
            raise ValueError(f"w2_floor must be > 0, got {w2_floor}")
        self.w2_floor = w2_floor

    def _delta(self, e, x, w_prev) -> float:
        return proposed_norm_delta(e, x, w_prev, self.w2_floor)


def _require(params: dict, key: str, kind: str):
    if key not in params:
        raise ValueError(f"algorithm kind '{kind}' requires key '{key}'")
    return params[key]


def make_controller(kind: str, params: dict, mu: float):
    """Build a fresh controller from config parameters.

    Applies the documented defaults: kappa0=0 for the smoothed schemes,
    measure='xi' for liu, w2_floor=1e-2, and kappa_max=mu as the runaway
    guard for every smoothed controller unless overridden.
    """
    if kind not in PARAM_SPECS:
        raise ValueError(f"unknown algorithm kind {kind!r}")
    params = dict(params)
    unknown = sorted(set(params) - set(PARAM_SPECS[kind]))
    if unknown:
        raise ValueError(f"unknown key '{unknown[0]}' for algorithm kind '{kind}'")
    if kind == "lms":
        return FixedKappa(0.0)
    if kind == "fixed_zap":
        return FixedKappa(kappa0=_require(params, "kappa0", kind))
    if kind == "you":
        detector = ConvergenceDetector(
            beta=params.get("beta", 0.01),
            window=int(params.get("window", 200)),
            tolerance=params.get("tolerance", 0.05),
            cooldown=params.get("cooldown"),
        )
        return YouVss(
            kappa0=_require(params, "kappa0", kind),
            eta=_require(params, "eta", kind),
            kappa_min=_require(params, "kappa_min", kind),
            detector=detector,
        )
    if kind == "liu":
        return LiuVss(
            lam=_require(params, "lambda", kind),
            alpha=_require(params, "alpha", kind),
            gamma=_require(params, "gamma", kind),
            kappa0=params.get("kappa0", 0.0),
            measure=params.get("measure", MEASURE_XI),
            kappa_max=params.get("kappa_max", mu),
        )
    if kind == "proposed_l1":
        return ProposedL1Vss(
            alpha=_require(params, "alpha", kind),
            gamma=_require(params, "gamma", kind),
            kappa0=params.get("kappa0", 0.0),
            kappa_max=params.get("kappa_max", mu),
        )
    return ProposedNormVss(
        alpha=_require(params, "alpha", kind),
        gamma=_require(params, "gamma", kind),
        w2_floor=params.get("w2_floor", 1e-2),
        kappa0=params.get("kappa0", 0.0),
        kappa_max=params.get("kappa_max", mu),
    )


class _BatchYou:
    """YouVss over the seed rows of one algorithm; the detector's history
    deque becomes a (window, rows) ring buffer."""

    uses_xx = False

    def __init__(self, ctl: YouVss, kappa: np.ndarray):
        det = ctl.detector
        self.kappa = kappa
        self.eta = ctl.eta
        self.kappa_min = ctl.kappa_min
        self.beta = det.beta
        self.window = det.window
        self.tolerance = det.tolerance
        self.cooldown = det.cooldown
        self.mse = np.full(kappa.shape, det.smoothed_mse)
        self.history = np.zeros((det.window,) + kappa.shape)
        self.cooldown_left = np.zeros(kappa.shape, dtype=np.int64)
        self.t = 0

    def update(self, e, X, W, sgn, xx) -> None:
        slot = self.history[self.t % self.window]  # written window samples ago
        self.mse = (1.0 - self.beta) * self.mse + self.beta * e * e
        cooling = self.cooldown_left > 0
        self.cooldown_left -= cooling
        if self.t >= self.window:
            event = np.abs(self.mse - slot) / slot < self.tolerance
            event &= slot > 0.0
            event &= ~cooling
            if event.any():
                self.cooldown_left[event] = self.cooldown
                self.kappa[event & (self.kappa > self.kappa_min)] *= self.eta
        slot[...] = self.mse
        self.t += 1


class _BatchSmoothed:
    """LiuVss, ProposedL1Vss and ProposedNormVss over the seed rows of one
    algorithm: a per-row drive ``delta`` smoothed into kappa exactly as
    ``kappa_smooth`` does, then clamped at ``kappa_max``."""

    def __init__(self, ctl, kappa: np.ndarray, L: int):
        self.kappa = kappa
        self.L = L
        self.decay = 1.0 - ctl.alpha
        self.gain = ctl.alpha * ctl.gamma
        self.kappa_max = math.inf if ctl.kappa_max is None else ctl.kappa_max
        self.liu = ctl if isinstance(ctl, LiuVss) else None
        self.uses_xx = self.liu is None
        self.w2_floor = getattr(ctl, "w2_floor", None)  # ProposedNormVss only
        if self.liu is not None:
            self.phi = np.full(kappa.shape, ctl.phi)

    def _liu_delta(self, W) -> np.ndarray:
        liu, L = self.liu, self.L
        j = np.abs(W).sum(axis=-1)
        if liu.measure == MEASURE_XI:
            root = math.sqrt(L)
            l2 = np.sqrt(np.einsum("sl,sl->s", W, W))
            xi = L / (L - root) * (1.0 - j / (root * l2))
            # the zero vector has no sparsity; it drives nothing
            j = np.where(j == 0.0, 0.0, np.minimum(1.0, np.maximum(0.0, xi)))
        delta = j - self.phi
        self.phi = (1.0 - liu.lam) * self.phi + liu.lam * j
        return delta

    def _proposed_delta(self, e, X, W, sgn, xx) -> np.ndarray:
        delta = np.abs(e * np.einsum("sl,sl->s", X, sgn))
        delta /= xx
        if not xx.all():  # a zero regressor carries no information
            delta[xx == 0.0] = 0.0
        if self.w2_floor is not None:
            scale = np.sqrt(np.einsum("sl,sl->s", W, W))
            np.maximum(scale, self.w2_floor, out=scale)
            scale *= math.sqrt(self.L) - 1.0
            delta /= scale
        return delta

    def update(self, e, X, W, sgn, xx) -> None:
        delta = (self._liu_delta(W) if self.liu is not None
                 else self._proposed_delta(e, X, W, sgn, xx))
        delta *= self.gain
        kappa = self.decay * self.kappa
        kappa += delta
        np.minimum(np.maximum(0.0, kappa), self.kappa_max, out=self.kappa)


def batch_controller(ctl, kappa: np.ndarray, L: int):
    """Vectorized form of a fresh controller from ``make_controller`` over
    the seed rows of one algorithm.

    ``kappa`` is the algorithm's row of the engine's kappa array; it is set
    to the starting kappa here and rewritten in place by each
    ``update(e, X, W, sgn, xx)`` call, which sees the rows' a-priori errors,
    regressors, pre-update weights, their signs and the regressor energies
    x.x (None unless ``uses_xx``). Returns None for a constant kappa.
    Row for row, the floating-point operations are those of the scalar
    ``update``; only the dot products sum in a different order.
    """
    kappa[...] = ctl.kappa
    if isinstance(ctl, FixedKappa):
        return None
    if isinstance(ctl, YouVss):
        return _BatchYou(ctl, kappa)
    return _BatchSmoothed(ctl, kappa, L)
