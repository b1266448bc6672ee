"""Plain-Python references for the test suite.

The vector helpers (sign, regressor window, norms) restate by hand what
the vectorized engine computes with slices and reductions. The
ground-truth oracles need the true channel, which a running filter never
sees. The controller references recompute each kind's kappa one
sample at a time with scalar arithmetic, independently of the vectorized
updates in ``zapvss.stepsize``, so those updates have a reference that
shares none of their code. ``step`` and ``run_scenario`` are the scalar
reference of the batched engine ``zapvss.filtercore.run_rows``: one run,
one sample at a time, with the metrics recomputed from the weights.
"""

import math
from collections import deque

import numpy as np

from zapvss.channel import Channel
from zapvss.filtercore import MSE_BETA, SAMPLE_DTYPE
from zapvss.harness import RunTrace, build_schedule, derive_stream_seeds
from zapvss.signal import generate_input, synthesize_desired
from zapvss.stepsize import make_controller


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
    the reductions it reads and advanced in place; returns (e, kappa, new
    weights). Overflow on the way to a divergence is silent: the update
    reports it as a DivergenceError.
    """
    with np.errstate(all="ignore"):
        e = predict_error(w, x, d)
        x = np.asarray(x, dtype=np.float64)
        sgn = np.sign(w)
        reductions = {"xx": np.dot(x, x), "xs": np.dot(x, sgn),
                      "ww": np.dot(w, w), "ws": np.abs(w).sum()}
        controller.bind(len(x))
        controller.update(np.array([e]), *(np.array([reductions[r]])
                                           for r in controller.reads))
        kappa = float(controller.kappa[0])
        return e, kappa, apply_update(w, x, e, mu, kappa)


def misalignment_db(h, w) -> float:
    """Normalized misalignment 20*log10(||h - w|| / ||h||) in dB.

    Returns -inf when w equals h exactly, and +inf when ||h - w|| is
    beyond the float range (a diverging filter).
    """
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h.shape != w.shape:
        raise ValueError(f"length mismatch: {h.shape} vs {w.shape}")
    hn = float(np.linalg.norm(h))
    if hn == 0.0:
        raise ValueError("misalignment undefined for an all-zero reference")
    with np.errstate(over="ignore"):
        dn = float(np.linalg.norm(h - w))
    if dn == 0.0:
        return float("-inf")
    return 20.0 * math.log10(dn / hn)


def sparsity_xi(h) -> float:
    """Channel sparsity L/(L-sqrt(L)) * (1 - l1/(sqrt(L)*l2)), in [0, 1].

    1 for a single-tap vector, 0 when all taps share one magnitude.
    """
    h = np.asarray(h, dtype=np.float64)
    L = h.size
    if L <= 1:
        raise ValueError("sparsity needs at least 2 taps")
    l1, l2 = float(np.sum(np.abs(h))), float(np.linalg.norm(h))
    if l2 == 0.0:
        raise ValueError("sparsity undefined for the zero vector")
    root = math.sqrt(L)
    xi = L / (L - root) * (1.0 - l1 / (root * l2))
    # norm-ratio rounding can overshoot the exact extremes by an ulp
    return min(1.0, max(0.0, xi))


def sign_agreement(h, w) -> float:
    """Fraction of the nonzero taps of h where sign(w) matches sign(h)."""
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h.shape != w.shape:
        raise ValueError(f"length mismatch: {h.shape} vs {w.shape}")
    mask = h != 0.0
    if not mask.any():
        raise ValueError("sign agreement over an empty tap set")
    return float(np.mean(np.sign(w[mask]) == np.sign(h[mask])))


def smoothed_mse(prev: float, e: float, beta: float) -> float:
    """Exponentially smoothed squared error (1-beta)*prev + beta*e^2."""
    if prev < 0.0:
        raise ValueError(f"prev must be >= 0, got {prev}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0,1], got {beta}")
    return (1.0 - beta) * prev + beta * e * e


def run_scenario(cfg, algorithm: str, seed: int) -> RunTrace:
    """One deterministic run of one algorithm on one seed.

    Per sample: regressor, a-priori error, controller kappa, weight update,
    then metrics of the updated weights against the channel active at that
    sample, recorded every ``record_every`` samples. Weights start at zero.
    A divergence stops the run and is recorded in ``diverged_at``. The
    streams are those of ``zapvss.harness.run_seeds``, and the controller
    update is the engine's, here over one row.
    """
    alg = next((a for a in cfg.algorithms if a.name == algorithm), None)
    if alg is None:
        raise ValueError(f"unknown algorithm name {algorithm!r}")
    spans = build_schedule(cfg)
    input_seed, noise_seed = derive_stream_seeds(seed)
    x = generate_input(cfg.N, input_seed)
    desired = synthesize_desired(x, spans, cfg.snr_db, noise_seed)
    controller = make_controller(alg.kind, alg.params, cfg.mu)

    L, every = cfg.L, cfg.record_every
    xp = np.concatenate([np.zeros(L - 1), x])
    w = np.zeros(L)
    samples = np.zeros(-(-cfg.N // every), SAMPLE_DTYPE).view(np.recarray)
    mse = 0.0
    diverged_at = None
    for start, stop, h in spans:
        for n in range(start, stop):
            r = xp[n:n + L][::-1]
            try:
                e, kappa, w = step(w, r, desired.d[n], cfg.mu, controller)
            except DivergenceError:
                diverged_at = n
                break
            mse = smoothed_mse(mse, e, MSE_BETA)
            if n % every == 0:
                samples[n // every] = (n, misalignment_db(h, w), kappa, e,
                                       sign_agreement(h, w), mse)
        if diverged_at is not None:
            break
    if diverged_at is not None:  # keep the rows recorded before it
        samples = samples[:-(-diverged_at // every)]
    final = float(samples.misalignment_db[-1]) if samples.size else math.nan
    return RunTrace(algorithm=algorithm, seed=seed, samples=samples,
                    final_misalignment_db=final, diverged_at=diverged_at)


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
