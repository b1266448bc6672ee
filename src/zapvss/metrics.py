"""Norms, misalignment, channel sparsity, and sign-agreement diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

ACTIVE_TAPS = "active_taps"
ALL_TAPS = "all_taps"


@dataclass(slots=True)
class MetricSample:
    """One recorded row of a run trace."""

    n: int
    misalignment_db: float
    kappa: float
    error: float
    sign_agreement: float
    smoothed_mse: float


# MetricSample's fields as one numpy record; the batched engine stores a
# run's trace as an array of these
SAMPLE_DTYPE = np.dtype([(f.name, np.int64 if f.name == "n" else np.float64)
                         for f in fields(MetricSample)])


def norms(w) -> tuple[float, float]:
    """l1 and l2 norms of a tap vector."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(np.abs(w))), float(np.linalg.norm(w))


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
    l1, l2 = norms(h)
    if l2 == 0.0:
        raise ValueError("sparsity undefined for the zero vector")
    root = math.sqrt(L)
    xi = L / (L - root) * (1.0 - l1 / (root * l2))
    # norm-ratio rounding can overshoot the exact extremes by an ulp
    return min(1.0, max(0.0, xi))


def sign_agreement(h, w, scope: str = ACTIVE_TAPS) -> float:
    """Fraction of in-scope taps where sign(w) matches sign(h).

    ``active_taps`` restricts the count to the nonzero taps of h.
    """
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h.shape != w.shape:
        raise ValueError(f"length mismatch: {h.shape} vs {w.shape}")
    if scope == ACTIVE_TAPS:
        mask = h != 0.0
    elif scope == ALL_TAPS:
        mask = np.ones(h.shape, dtype=bool)
    else:
        raise ValueError(f"unknown scope {scope!r}")
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
