"""References for the test suite.

The vector helpers (sign, regressor window, norms) restate by hand what
the engine computes with reductions. ``clean_echo`` is the clean echo in
the kernel's summation order, one numpy pass per tap. ``fma_run`` is the
kernel's tap pass in exact arithmetic rounded as the kernel rounds it: one
``fma`` per product-sum, in its two accumulators. The ground-truth oracles
need the true channel, which a running filter never sees.

Two references check the compiled kernel ``zapvss.filtercore.run_sequence``:

* the numpy engine, the batched per-sample loop that the kernel replaced:
  vectorized controller updates over many rows (``make_controller``) and
  ``numpy_run_sequence``/``numpy_run_all``, with the kernel's signature;
* the scalar reference ``step`` and ``run_scenario``: one run, one sample
  at a time, with the metrics recomputed from the weights.

The trace CSV rows that the compiled formatter writes
(``zapvss.filtercore.format_rows``) have ``trace_rows``: f-strings of
Python's ``repr``.

The block aggregate (``zapvss.harness.aggregate``) has ``aggregate_per_trace``:
one run at a time, each floor and recovery time from that run's own 1-D
columns (``tail_mean``, ``recovery_time``).

The controller references (``ScalarController``) recompute each kind's
kappa one sample at a time with scalar arithmetic, so the vectorized
updates have a reference that shares none of their code.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable
from unittest import mock

import numpy as np

from zapvss import harness
from zapvss.channel import Channel
from zapvss.cli import CSV_FIELDS
from zapvss.filtercore import MSE_BETA, SAMPLE_DTYPE
from zapvss.harness import (RECOVERY_HOLD, RECOVERY_MARGIN_DB,
                            AlgorithmAggregate, RunTrace, build_schedule,
                            derive_stream_seeds)
from zapvss.signal import generate_input, synthesize_desired
from zapvss.stepsize import KINDS, controller_params


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
    streams are those of ``zapvss.harness.run_all``, and the controller
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


def trace_rows(trace: RunTrace, scenario: str) -> str:
    """One run's trace CSV rows, each value as Python's repr writes it."""
    # tolist() yields Python floats, so the text is their shortest repr
    prefix = f"{scenario},{trace.algorithm},{trace.seed},"
    columns = [trace.column(name).tolist() for name in CSV_FIELDS]
    return "".join(f"{prefix}{n},{e!r},{k!r},{m!r},{a!r},{q!r}\n"
                   for n, e, k, m, a, q in zip(*columns))


def tail_mean(trace: RunTrace, name: str, end: int) -> float:
    """Mean of field ``name`` over the last 10% of the rows recorded
    before sample ``end`` (at least one row)."""
    pre = trace.column(name)[:np.searchsorted(trace.column("n"), end)]
    return float(np.mean(pre[-max(1, math.ceil(0.1 * pre.size)):]))


def recovery_time(trace: RunTrace, change_at: int) -> int | None:
    """Samples from change_at to the first recorded sample n from which the
    misalignment stays within the margin of its ``tail_mean`` before
    change_at at every recorded sample in [n, n + RECOVERY_HOLD), a span
    the rows must cover; None when it never recovers."""
    ns = trace.column("n")
    threshold = tail_mean(trace, "misalignment_db", change_at) + RECOVERY_MARGIN_DB
    post = ns >= change_at
    post_ns = ns[post]
    misses = np.concatenate(([0], np.cumsum(
        ~(trace.column("misalignment_db")[post] <= threshold))))
    window_end = np.searchsorted(post_ns, post_ns + RECOVERY_HOLD)
    covered = post_ns + RECOVERY_HOLD <= ns[-1] + (ns[1] - ns[0])
    held = (misses[window_end] == misses[:-1]) & covered
    hits = np.flatnonzero(held)
    return int(post_ns[hits[0]] - change_at) if hits.size else None


def aggregate_per_trace(cfg, traces) -> list[AlgorithmAggregate]:
    """``zapvss.harness.aggregate``, each run's floors and recovery time
    computed from its own columns."""
    def mean_or_nan(values):
        return float(np.mean(values)) if values else math.nan

    end = cfg.N if cfg.change_at is None else cfg.change_at
    out = []
    for alg in cfg.algorithms:
        runs = [t for t in traces if t.algorithm == alg.name]
        included = [t for t in runs if t.diverged_at is None]
        if included:
            ns = included[0].column("n")
            mean_curve = np.vstack([t.column("misalignment_db")
                                    for t in included]).mean(axis=0)
        else:
            ns, mean_curve = np.array([], dtype=np.int64), np.array([])
        times = ([] if cfg.change_at is None else
                 [recovery_time(t, cfg.change_at) for t in included])
        reached = [t for t in times if t is not None]
        out.append(AlgorithmAggregate(
            name=alg.name, n=ns, mean_misalignment_db=mean_curve,
            mean_final_misalignment_db=mean_or_nan(
                [t.final_misalignment_db for t in included]),
            mean_recovery_time=float(np.mean(reached)) if reached else None,
            not_recovered=len(times) - len(reached),
            included_seeds=[t.seed for t in included],
            diverged=[(t.seed, t.diverged_at) for t in runs
                      if t.diverged_at is not None],
            recovery_times=times,
            floor_db=mean_or_nan([tail_mean(t, "misalignment_db", end)
                                  for t in included]),
            floor_kappa=mean_or_nan([tail_mean(t, "kappa", end)
                                     for t in included]),
            floor_sign_agreement=mean_or_nan(
                [tail_mean(t, "sign_agreement", end) for t in included]),
            max_kappa=max((float(np.max(t.column("kappa")))
                           for t in included), default=math.nan)))
    return out


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


def clean_echo(x, h) -> np.ndarray:
    """The echo of x through the taps h, y[n] = sum of h[k] * x[n - k] with
    x[m] = 0 for m < 0, summed from +0.0 one nonzero tap at a time in
    ascending order of k, each product and each sum rounded on its own: the
    order of ``zapvss.filtercore.echo``, which must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    y = np.zeros(x.size)
    for k in np.flatnonzero(h[:x.size]):
        y[k:] += h[k] * x[:x.size - k]
    return y


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, to the nearest double with ties to even, as
    C's fma rounds it: the exact rational, then int division's correctly
    rounded float. An exact zero reads +0.0, as fma gives it unless a * b
    and c are both -0.0, which no sum of the kernel meets: its
    accumulators start at +0.0."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def kernel_sum(a, b) -> float:
    """The sum of a[k] * b[k] over the taps as the kernel's pass sums it:
    tap k into lane k % 8 of accumulator (k // 8) % 2, one fma each, from
    +0.0; the two accumulators added lane by lane, then the lanes in the
    tree of ``TREE``. The kernel's zero-padded lanes add fma(0, 0, acc) =
    acc, so they are left out."""
    acc = [[0.0] * 8, [0.0] * 8]
    for k, (p, q) in enumerate(zip(a, b)):
        lanes = acc[k // 8 % 2]
        lanes[k % 8] = fma(p, q, lanes[k % 8])
    s = [p + q for p, q in zip(*acc)]
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))


def fma_run(x, d, h, mu: float, kappa, count: int):
    """The a-priori errors and misalignments (dB) of the first ``count``
    samples of one row on the input ``x``, the desired signal ``d`` and one
    span of taps ``h``, in Python floats with the kernel's roundings: the
    update w + mu*e*x is one fma per tap, from which kappa*sign(w) is
    subtracted, and x.w, ||w - h||^2 and ||h||^2 are ``kernel_sum``s.
    ``kappa`` is a float, 0 for ``lms`` and kappa0 for ``fixed_zap``, or
    the kappa of each sample's update, such as a kernel row's recorded
    ``kappa``; no controller runs here. Returns two lists of floats."""
    x, d, h = ([float(v) for v in a] for a in (x, d, h))
    L = len(h)
    kappas = np.broadcast_to(kappa, count).tolist()

    def regressor(n):
        return [x[n - k] if n >= k else 0.0 for k in range(L)]

    hnorm = math.sqrt(kernel_sum(h, h))
    w = [0.0] * L
    errors, misalignments = [], []
    for n in range(count):
        xu = regressor(n)
        e = d[n] - kernel_sum(w, xu)
        mue = mu * e
        w = [fma(mue, xk, wk) - (math.copysign(kappas[n], wk) if wk else 0.0)
             for xk, wk in zip(xu, w)]
        r = [wk - hk for wk, hk in zip(w, h)]
        errors.append(e)
        misalignments.append(20.0 * math.log10(math.sqrt(kernel_sum(r, r))
                                               / hnorm))
    return errors, misalignments


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


# ---- the numpy engine --------------------------------------------------

def _constants(ctl, rows: int, **values: float) -> None:
    """Set each value as an attribute of ``rows`` copies: numpy charges
    less for an operation between two small arrays than for one with a
    Python float."""
    for name, value in values.items():
        setattr(ctl, name, np.full(rows, value))


def _you_init(ctl, rows: int) -> None:
    # the detector's smoothed error power and its last ``window`` values
    p = ctl.params
    ctl.mse = np.zeros(rows)
    ctl.history = np.zeros((p["window"], rows))
    ctl.cooldown_left = np.zeros(rows, dtype=np.int64)
    ctl.t = 0
    _constants(ctl, rows, forget=1.0 - p["beta"], beta=p["beta"],
               tolerance=p["tolerance"])


def _you(ctl, e) -> None:
    """Decay on convergence: a plateau of the smoothed error power over the
    last ``window`` samples (relative change below ``tolerance``, at most
    once per ``cooldown`` samples) multiplies kappa by eta until kappa <=
    kappa_min freezes it for good. The frozen step-size is what makes this
    scheme blind to later path changes."""
    p = ctl.params
    slot = ctl.history[ctl.t % p["window"]]  # written window samples ago
    ctl.mse = mse = ctl.forget * ctl.mse + ctl.beta * e * e
    cooling = ctl.cooldown_left > 0
    ctl.cooldown_left -= cooling
    if ctl.t >= p["window"]:  # a full window first: the transient never fires
        # a zero slot gives inf or NaN here, so it never fires either
        event = np.abs(mse - slot) / slot < ctl.tolerance
        event &= ~cooling
        if event.any():
            ctl.cooldown_left[event] = p["cooldown"]
            ctl.kappa[event & (ctl.kappa > p["kappa_min"])] *= p["eta"]
    slot[...] = mse
    ctl.t += 1


def _smooth_init(ctl, rows: int) -> None:
    p = ctl.params
    _constants(ctl, rows, keep=1.0 - p["alpha"], gain=p["alpha"] * p["gamma"],
               kappa_max=p["kappa_max"])


def _smooth(ctl, delta) -> None:
    """kappa <- (1-alpha)*kappa + alpha*gamma*delta, clamped to
    [0, kappa_max]; a NaN drive leaves kappa at 0 rather than NaN."""
    kappa = ctl.keep * ctl.kappa + ctl.gain * delta
    np.fmin(np.fmax(0.0, kappa), ctl.kappa_max, out=ctl.kappa)


def _liu_init(ctl, rows: int) -> None:
    _smooth_init(ctl, rows)
    ctl.phi = np.zeros(rows)  # forgetting-factor average of the measure
    lam = ctl.params["lambda"]
    _constants(ctl, rows, forget=1.0 - lam, lam=lam)
    if ctl.params["measure"] == "l1":
        ctl.reads = ("ws",)


def _liu(ctl, e, ws, ww=None) -> None:
    """Sparseness gradient: delta = J(w) - phi, where J is the l1 norm
    ``ws`` or the xi sparsity of the weights and phi its running average.
    delta can be negative, so the zero clamp is load-bearing."""
    j = ws
    if ctl.params["measure"] == "xi":
        xi = ctl.xi_scale * (1.0 - j / (ctl.root * np.sqrt(ww)))
        # the zero vector's xi is 0/0: it has no sparsity and drives nothing
        j = np.fmin(1.0, np.fmax(0.0, xi))
    delta = j - ctl.phi
    ctl.phi = ctl.forget * ctl.phi + ctl.lam * j
    _smooth(ctl, delta)


def _l1_delta(e, xx, xs) -> np.ndarray:
    """Estimated l1 sparseness distance |e * x.sign(w)| / (x.x). A zero
    regressor carries no information: its 0/0 (x.sign(w) is 0 too) yields
    0."""
    return np.fmax(np.abs(e * xs) / xx, 0.0)


def _proposed_l1(ctl, e, xx, xs) -> None:
    _smooth(ctl, _l1_delta(e, xx, xs))


def _norm_init(ctl, rows: int) -> None:
    _smooth_init(ctl, rows)
    _constants(ctl, rows, w2_floor=ctl.params["w2_floor"])


def _proposed_norm(ctl, e, xx, xs, ww) -> None:
    """The l1 estimate divided by (sqrt(L)-1)*||w||, with ||w|| floored at
    ``w2_floor`` so the early near-zero filter cannot blow the ratio up."""
    scale = np.maximum(np.sqrt(ww), ctl.w2_floor) * ctl.norm_scale
    _smooth(ctl, _l1_delta(e, xx, xs) / scale)


@dataclass(frozen=True)
class NumpyKind:
    """A kind's vectorized update (None: kappa stays at kappa0), an
    ``init(ctl, rows)`` that adds the state arrays and constants the update
    keeps, and the per-row reductions the update may read after the
    a-priori errors e, in its argument order: ``xx`` = x.x, ``xs`` =
    x.sign(w), ``ww`` = w.w and ``ws`` = w.sign(w) = ||w||_1, of the
    regressor x and the pre-update weights w. The init may drop trailing
    ones that the controller's parameters leave unread
    (``NumpyController.reads``)."""

    update: Callable | None = None
    init: Callable | None = None
    reads: tuple[str, ...] = ()


NUMPY_KINDS = {
    "lms": NumpyKind(),
    "fixed_zap": NumpyKind(),
    "you": NumpyKind(_you, _you_init),
    "liu": NumpyKind(_liu, _liu_init, ("ws", "ww")),
    "proposed_l1": NumpyKind(_proposed_l1, _smooth_init, ("xx", "xs")),
    "proposed_norm": NumpyKind(_proposed_norm, _norm_init, ("xx", "xs", "ww")),
}


def _hold(ctl, e) -> None:
    """The update of a constant kappa."""


class NumpyController:
    """The state of one controller over ``rows`` runs at once.

    ``kappa`` holds the rows' attractor step-sizes. Each
    ``update(e, *reductions)`` call takes the rows' a-priori errors (R,)
    and, in the order of ``reads`` (the kind's reads, or the leading ones
    its parameters use), the rows' reductions (R,) of the regressor and
    the pre-update weights (see ``NumpyKind``), and rewrites ``kappa`` in
    place. It never sees a tap vector. Every state array has the rows on
    its last axis, and no row reads another's.
    Callers update under ``np.errstate(all="ignore")``: a zero filter or
    regressor, and a diverging row, pass through inf and NaN on the way.
    The xi measure and proposed_norm's scale depend on the filter length:
    ``bind(L)`` before the first update.
    """

    def __init__(self, kind: str, params: dict, rows: int):
        self.kind = kind
        self.spec = NUMPY_KINDS[kind]
        self.params = params
        self.kappa = np.full(rows, params.get("kappa0", 0.0), dtype=np.float64)
        self.reads = self.spec.reads
        if self.spec.init is not None:
            self.spec.init(self, rows)
        self.update = partial(self.spec.update or _hold, self)

    @property
    def attracts(self) -> bool:
        """Whether the attractor can ever act: false only for a constant
        kappa of 0 (lms, or fixed_zap with kappa0=0)."""
        return self.spec.update is not None or bool(self.kappa.any())

    def bind(self, L: int) -> None:
        """Resolve the constants that depend on the filter length L."""
        root = math.sqrt(L)
        # no configured run has one tap, where xi is undefined
        _constants(self, self.kappa.size, root=root,
                   xi_scale=L / (L - root) if L > 1 else math.nan,
                   norm_scale=root - 1.0)


def make_controller(kind: str, params: dict, mu: float,
                    rows: int = 1) -> NumpyController:
    """A fresh controller of ``kind`` over ``rows`` runs, from config
    parameters (see ``controller_params``)."""
    return NumpyController(kind, controller_params(kind, params, mu), rows)


def numpy_run_all(cfg):
    """``zapvss.harness.run_all`` with the numpy engine in place of the
    kernel."""
    with mock.patch.object(harness, "run_sequence", numpy_run_sequence):
        return harness.run_all(cfg)


def numpy_run_sequence(x, d, spans, mu: float, ctls, every: int):
    """``zapvss.filtercore.run_sequence`` in numpy: every controller of
    ``ctls``, ``(kind, params)`` pairs completed by ``controller_params``,
    on the input ``x`` (N,) and the desired signal ``d`` (N,), in one
    per-sample loop over (sequence, controller, tap) arrays of S = 1
    sequence. Each controller advances one row. ``spans`` is the echo path
    as ``(start, stop, taps)`` slices covering [0, N). Per sample:
    regressor, a-priori error, controller kappa, the update
    w + mu*e*x - kappa*sign(w) from zero weights, then the metrics of the
    updated weights against the taps of the span, every ``every`` samples.
    Returns the rows' records (A, ceil(N / every)) of SAMPLE_DTYPE and the
    sample (A,) of each row's diverging update, N for a row that never
    diverged.

    The update of a sequence's rows is one BLAS product, which accumulates
    mu*e*x - kappa*sign(w) before adding it to w; its last digits depend on
    the BLAS kernel. Rows never interact: a row's records do not depend on
    which other rows share the batch or where. Each sample computes every
    row reduction a controller reads once, over the rows whose controllers
    read it. The rows whose kappa is a constant 0 skip the attractor and
    take their signs only at the recorded samples. A diverged row rests at
    zero from then on.
    """
    S, N = 1, d.size
    L, A = spans[0][2].size, len(ctls)
    ctls = [make_controller(kind, params, mu, S) for kind, params in ctls]
    # the regressor [x(n), ..., x(n-L+1)] of sample n is the slice
    # xpad[:, N-n:N-n+L]
    xpad = np.zeros((S, N + L))
    xpad[0, 1:N + 1] = x[::-1]
    d = d.reshape(S, N).T[:, :, None]
    # engine order: the rows that attract lead, in the order of KINDS so
    # that the readers of a reduction sit together; the others follow
    kinds = list(KINDS)
    order = sorted(range(A), key=lambda a: (not ctls[a].attracts,
                                            kinds.index(ctls[a].kind)))
    ctls = [ctls[a] for a in order]
    R = sum(c.attracts for c in ctls)

    w = np.zeros((S, A, L))
    # per sequence Z = [x; sign(w) of each row] and C = [mu*e, -kappa on
    # the diagonal of the attracting rows]: every row's update is
    # C @ Z[:1+R]. numpy hands a one-row product to gemv, which rounds
    # unlike gemm: a spare zero row keeps a lone row's trace what it is in
    # a larger grid
    Z = np.zeros((S, 1 + A, L))
    reg, sgn, z_att = Z[:, :1], Z[:, 1:], Z[:, :1 + R]
    C = np.zeros((S, max(A, 2), 1 + R))
    c_mue, c_kappa = C[:, :A, 0], np.einsum("sii->si", C[:, :R, 1:])
    upd = np.empty((S, max(A, 2), L))
    tmp = upd[:, :A]
    kappa, e, e2, mse = (np.zeros((S, A)) for _ in range(4))
    # numpy charges less for an operation between two small arrays than
    # for one with a Python float
    mu_rows, beta_rows, forget_rows = (np.full((S, A), c) for c in
                                       (mu, MSE_BETA, 1.0 - MSE_BETA))
    e_flat, ones = e.reshape(-1), np.ones(A * S)
    # the reductions the controllers read, each computed once per sample:
    # x.x and x.sign(w) up to the last reader in one vecdot against Z,
    # w.w and w.sign(w) over the rows from the first reader to the last
    xz = np.zeros((S, 1 + A))
    red = {"xx": xz[:, 0], "xs": xz[:, 1:], "ww": np.zeros((S, A)),
           "ws": np.zeros((S, A))}
    readers = {r: [i for i, c in enumerate(ctls) if r in c.reads] for r in red}
    xz_rows = (2 + readers["xs"][-1] if readers["xs"] else
               1 if readers["xx"] else 0)
    reduce = []
    for name, right in (("ww", w), ("ws", sgn)):
        if readers[name]:
            rows = slice(readers[name][0], readers[name][-1] + 1)
            reduce.append((w[:, rows], right[:, rows], red[name][:, rows]))
    updates = []
    for i, ctl in enumerate(ctls):
        kappa[:, i] = ctl.kappa
        ctl.kappa = kappa[:, i]  # updates rewrite it in place: the engine reads it
        ctl.bind(L)
        if ctl.spec.update is not None:  # a constant kappa costs nothing
            updates.append((ctl.update, (e[:, i],) + tuple(
                red[r] if r == "xx" else red[r][:, i] for r in ctl.reads)))
    live = np.ones((S, A), dtype=bool)
    stop_at = np.full((S, A), N)
    rec = np.zeros((-(-N // every), S, A), dtype=SAMPLE_DTYPE)
    rec["n"] = np.arange(0, N, every)[:, None, None]
    # the recorded squared distance ||w - h||^2 and twice the sign-match
    # count become dB and a fraction after the loop, with the span's ||h||
    # and active-tap count
    rec_dist, rec_kappa, rec_e, rec_agree, rec_mse = (
        rec[f] for f in SAMPLE_DTYPE.names[1:])
    w_att, sgn_att, kappa_att = w[:, :R], sgn[:, :R], kappa[:, :R]
    w_hold, sgn_hold = w[:, R:], sgn[:, R:]

    # a diverging row passes through inf and NaN on its own until its stop
    # leaves it at rest: a NaN sign would reach every row of its sequence
    # through the product's zero coefficients
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, stop, h in spans:
            # h on every row: a same-shape subtraction beats a broadcast one
            h_rows = np.broadcast_to(h, w.shape).copy()
            active = np.flatnonzero(h)
            h_sign = np.sign(h[active])
            for n in range(start, stop):
                reg[:, 0] = xpad[:, N - n:N - n + L]
                np.vecdot(w, reg, out=e)
                np.subtract(d[n], e, out=e)
                if not math.isfinite(e_flat.dot(ones)):  # inf and NaN propagate
                    _stop_diverged(w, live & ~np.isfinite(e), live, stop_at,
                                   n - 1, sgn, e, mu_rows)
                if xz_rows:
                    np.vecdot(Z[:, :xz_rows], reg, out=xz[:, :xz_rows])
                for left, right, out in reduce:
                    np.vecdot(left, right, out=out)
                for update, args in updates:
                    update(*args)
                np.multiply(mu_rows, e, out=c_mue)
                np.negative(kappa_att, out=c_kappa)
                np.matmul(C, z_att, out=upd)
                w += tmp
                np.sign(w_att, out=sgn_att)
                np.multiply(beta_rows, e, out=e2)
                e2 *= e
                mse *= forget_rows
                mse += e2
                if n % every == 0:
                    i = n // every
                    np.sign(w_hold, out=sgn_hold)
                    np.subtract(w, h_rows, out=tmp)
                    np.vecdot(tmp, tmp, out=rec_dist[i])
                    rec_kappa[i] = kappa
                    rec_e[i] = e
                    # on the active taps, sgn.sign(h) + sgn.sgn counts
                    # each match twice and each mismatch or zero not at all
                    s = sgn if active.size == L else sgn[:, :, active]
                    np.add(np.vecdot(s, h_sign), np.vecdot(s, s), out=rec_agree[i])
                    rec_mse[i] = mse
        _stop_diverged(w, live, live, stop_at, N - 1)
        for start, stop, h in spans:
            rows = slice(-(-start // every), -(-stop // every))
            mis = rec_dist[rows]
            np.sqrt(mis, out=mis)
            mis /= float(np.linalg.norm(h))
            np.log10(mis, out=mis)
            mis *= 20.0
            rec_agree[rows] /= 2 * np.count_nonzero(h)
    rows = [order.index(a) for a in range(A)]
    return rec[:, 0, rows].T, stop_at[0, rows]


def _stop_diverged(w, suspect, live, stop_at, n, *rest) -> None:
    """Stop the ``suspect`` rows whose weights are non-finite after the
    update of sample n, and zero their rows of ``w`` and of each of
    ``rest``.

    A non-finite error only makes a row suspect: a finite w whose dot
    product overflowed gives one too, and diverges one update later.
    """
    rows = np.nonzero(suspect)
    bad = ~np.isfinite(w[rows]).all(axis=-1)
    rows = tuple(r[bad] for r in rows)
    stop_at[rows] = n
    live[rows] = False
    for a in (w,) + rest:
        a[rows] = 0.0
