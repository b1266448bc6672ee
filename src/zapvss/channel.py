"""Generation and file I/O for the unknown impulse responses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ChannelFormatError(ValueError):
    """A channel file failed to parse; the message names the offending line."""


@dataclass(frozen=True, eq=False)
class Channel:
    """An impulse response: its taps, stored as a read-only float64 copy so
    channels can be shared freely between runs."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size <= 1:
            raise ValueError("a channel needs at least 2 taps")
        if not np.all(np.isfinite(taps)):
            raise ValueError("channel taps must be finite")
        if not np.any(taps):
            raise ValueError("a channel must have at least one nonzero tap")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def L(self) -> int:
        return self.taps.size


def generate_sparse(L: int, active_count: int, seed: int) -> Channel:
    """Sparse response: ``active_count`` standard-normal taps at seed-chosen
    distinct positions, zeros elsewhere. Deterministic in its arguments."""
    if L <= 1:
        raise ValueError(f"L must be > 1, got {L}")
    if not 1 <= active_count <= L:
        raise ValueError(f"active_count must be in [1, {L}], got {active_count}")
    rng = np.random.default_rng(seed)
    positions = rng.choice(L, size=active_count, replace=False)
    amps = rng.standard_normal(active_count)
    while np.any(amps == 0.0):  # keep the nonzero count exact
        zeros = amps == 0.0
        amps[zeros] = rng.standard_normal(int(np.count_nonzero(zeros)))
    taps = np.zeros(L)
    taps[positions] = amps
    return Channel(taps)


def generate_dispersive(L: int, seed: int, decay: float = 0.0) -> Channel:
    """Dispersive response: L i.i.d. standard-normal taps, optionally shaped
    by an exponential envelope exp(-decay*i/L). Deterministic."""
    if L <= 1:
        raise ValueError(f"L must be > 1, got {L}")
    if not (decay >= 0.0 and math.isfinite(decay)):
        raise ValueError(f"decay must be >= 0, got {decay}")
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(L) * np.exp(-decay * np.arange(L) / L)
    return Channel(taps)


def save_channel(ch: Channel, destination) -> None:
    """Write ``L=<int>`` then one decimal tap per line (17 significant digits,
    so the round trip through load_channel is exact)."""
    lines = [f"L={ch.L}"]
    lines.extend(f"{v:.17g}" for v in ch.taps)
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)


def load_channel(source) -> Channel:
    """Read a channel file written by save_channel."""
    if hasattr(source, "read"):
        name = getattr(source, "name", "<channel>")
        text = source.read()
    else:
        name = str(source)
        text = Path(source).read_text()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("L="):
        raise ChannelFormatError(f"{name}: line 1: expected 'L=<int>' header")
    try:
        L = int(lines[0][2:])
    except ValueError:
        raise ChannelFormatError(
            f"{name}: line 1: malformed header {lines[0]!r}"
        ) from None
    tap_lines = lines[1:]
    if len(tap_lines) < L:
        raise ChannelFormatError(
            f"{name}: line {len(lines) + 1}: expected {L} tap lines, "
            f"file ends after {len(tap_lines)}"
        )
    if len(tap_lines) > L:
        raise ChannelFormatError(
            f"{name}: line {L + 2}: expected {L} tap lines, found {len(tap_lines)}"
        )
    taps = np.empty(L)
    for i, raw in enumerate(tap_lines):
        try:
            v = float(raw)
        except ValueError:
            raise ChannelFormatError(
                f"{name}: line {i + 2}: not a decimal tap value: {raw!r}"
            ) from None
        if not math.isfinite(v):
            raise ChannelFormatError(
                f"{name}: line {i + 2}: tap must be finite, got {raw!r}"
            )
        taps[i] = v
    return Channel(taps)
