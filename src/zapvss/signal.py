"""White Gaussian input and the SNR-calibrated desired signal with an
abrupt echo-path change."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtercore import echo


@dataclass(frozen=True, eq=False)
class DesiredSignal:
    """Observed signal d = clean + noise and the calibrated noise power."""

    d: np.ndarray
    clean: np.ndarray
    noise_variance: float


def generate_input(N: int, seed: int) -> np.ndarray:
    """N i.i.d. standard normal samples, deterministic in (N, seed). The
    input has unit power: ``mu`` carries the only power scale. An N past
    numpy's largest array, for which numpy raises ValueError, raises
    MemoryError as any other N that does not fit in memory does."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    try:
        return np.random.default_rng(seed).standard_normal(N)
    except ValueError:
        raise MemoryError(f"{N} samples exceed the largest array") from None


def synthesize_desired(x, spans, snr_db: float,
                       noise_seed: int) -> DesiredSignal:
    """Filter x through the echo path and add white Gaussian noise.

    ``spans`` is the echo path as ``(start, stop, taps)`` slices covering
    [0, len(x)), as ``harness.build_schedule`` returns it: sample n of the
    clean echo is the output of the taps whose span holds n, the products
    ``taps[k] * x[n - k]`` summed over the nonzero taps k in ascending
    order (``filtercore.echo``, a compiled loop that uses no BLAS).

    The noise power is calibrated against the empirical power of the full
    clean sequence, mean(clean^2) / 10^(snr_db/10), so the realized SNR of
    each run matches the configured one. snr_db=inf disables the noise.
    Deterministic in all arguments.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 1:
        raise ValueError("input sequence must be non-empty")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a real value or +inf, got {snr_db}")
    N = x.size
    clean = echo(x, spans)
    if math.isinf(snr_db):
        return DesiredSignal(d=clean.copy(), clean=clean, noise_variance=0.0)
    noise_variance = float(np.mean(clean**2)) / 10.0 ** (snr_db / 10.0)
    # d = clean + sqrt(var) * noise, built in the noise buffer
    d = np.random.default_rng(noise_seed).standard_normal(N)
    d *= math.sqrt(noise_variance)
    d += clean
    return DesiredSignal(d=d, clean=clean, noise_variance=noise_variance)
