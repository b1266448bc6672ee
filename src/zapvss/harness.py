"""Scenario config, the grid runner, multi-seed aggregation and
recovery-time measurement. The per-sample recursion is ``filtercore``'s:
one kernel call per seed, the seeds side by side on this module's thread
pool."""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import Channel, generate_dispersive, generate_sparse, load_channel
from .filtercore import run_sequence
from .signal import generate_input, synthesize_desired
from .stepsize import controller_params

RECOVERY_MARGIN_DB = 3.0  # recovered: back within this of the pre-change floor
RECOVERY_HOLD = 100      # samples the recovery margin must hold
# algorithm names go into CSV rows and config text unquoted
_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


class ConfigError(ValueError):
    """A scenario config, a channel spec or an environment setting is invalid."""


def _check_int(name: str, value) -> None:
    """ConfigError unless value is an integer that operator.index takes (an
    int or a numpy integer), not a bool: the config text writes it as an
    integer, and the kernel takes an int64."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


# the ChannelSpec fields each kind uses, with their types (all required but
# decay); its config text carries no other
CHANNEL_FIELDS: dict[str, tuple[tuple[str, type], ...]] = {
    "sparse": (("active_count", int), ("seed", int)),
    "dispersive": (("seed", int), ("decay", float)),
    "file": (("path", str),),
}


@dataclass
class ChannelSpec:
    """How to obtain a channel: generator parameters or a file path. A
    field its kind does not use must keep its default, else ConfigError."""

    kind: str  # 'sparse' | 'dispersive' | 'file'
    active_count: int | None = None
    seed: int | None = None
    decay: float = 0.0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in CHANNEL_FIELDS:
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        used = dict(CHANNEL_FIELDS[self.kind])
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in used and value is None:
                raise ConfigError(f"a {self.kind} channel requires {f.name}")
            if used.get(f.name) is int:
                _check_int(f"{self.kind} channel {f.name}", value)
            if f.name not in used and value != f.default:
                raise ConfigError(f"a {self.kind} channel takes no {f.name}, "
                                  f"got {value!r}")
        # the config text could not carry such a path back
        if self.path is not None and (self.path != self.path.strip()
                                      or len(self.path.splitlines()) > 1):
            raise ConfigError(f"channel file path {self.path!r} must be one "
                              f"line without leading or trailing whitespace")

    def realize(self, L: int) -> Channel:
        """The channel for filter length L. Generator arguments it cannot
        use, an L whose taps do not fit in memory, and a channel file that
        does not decode or parse or has another length raise ConfigError; a
        channel file that cannot be opened raises OSError."""
        try:
            if self.kind == "sparse":
                ch = generate_sparse(L, self.active_count, self.seed)
            elif self.kind == "dispersive":
                ch = generate_dispersive(L, self.seed, self.decay)
            else:
                ch = load_channel(self.path)
        except ValueError as err:
            raise ConfigError(f"{self.kind} channel: {err}") from None
        except MemoryError:
            raise ConfigError(f"{self.kind} channel: L={L} taps do not fit "
                              f"in memory") from None
        if ch.L != L:
            raise ConfigError(
                f"channel file {self.path} has L={ch.L}, scenario expects L={L}")
        return ch


@dataclass
class AlgorithmConfig:
    """Named controller configuration; params hold the kind-specific keys."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    """Full experiment description for one comparison grid; a value that
    breaks a rule raises ConfigError."""

    L: int
    N: int
    snr_db: float
    mu: float
    channel_before: ChannelSpec
    algorithms: list[AlgorithmConfig]
    seeds: list[int]
    channel_after: ChannelSpec | None = None
    change_at: int | None = None
    record_every: int = 1

    def __post_init__(self):
        for name in ("L", "N", "record_every", "change_at"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name))
        for seed in self.seeds:
            _check_int("seed", seed)
        # both reach the kernel as int64
        if not 1 < self.L < 2**63:
            raise ConfigError(f"L must be > 1 and < 2**63, got {self.L}")
        if not 1 <= self.N < 2**63:
            raise ConfigError(f"N must be >= 1 and < 2**63, got {self.N}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ConfigError(f"mu must be > 0 and finite, got {self.mu}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError(f"snr_db must be real or +inf, got {self.snr_db}")
        if self.change_at is not None:
            if not 0 < self.change_at < self.N:
                raise ConfigError(
                    f"change_at must be in (0, N={self.N}), got {self.change_at}")
            if self.channel_after is None:
                raise ConfigError("change_at requires a channel_after spec")
            # recovery is measured on the samples recorded from change_at on
            every = self.record_every
            if -(-self.change_at // every) * every >= self.N:
                raise ConfigError(
                    f"record_every={self.record_every} records no sample in "
                    f"[change_at={self.change_at}, N={self.N})")
        elif self.channel_after is not None:
            raise ConfigError("channel_after requires change_at")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"duplicate seed in {self.seeds}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        names = [a.name for a in self.algorithms]
        for alg in self.algorithms:
            if not _NAME_RE.fullmatch(alg.name):
                raise ConfigError(f"algorithm name {alg.name!r} may only use "
                                  f"letters, digits, '_', '.', '-'")
            if names.count(alg.name) > 1:
                raise ConfigError(f"duplicate algorithm name '{alg.name}'")
            try:
                controller_params(alg.kind, alg.params, self.mu)
            except ValueError as err:
                raise ConfigError(f"[algorithm] '{alg.name}': {err}") from None


@dataclass
class RunTrace:
    """Recorded time series for one (algorithm, seed) run.

    ``samples`` is a record array of ``filtercore.SAMPLE_DTYPE`` (what
    ``run_all`` returns) or a hand-built sequence of rows with those fields
    as attributes.
    """

    algorithm: str
    seed: int
    samples: np.ndarray | list
    final_misalignment_db: float
    diverged_at: int | None = None

    def column(self, name: str) -> np.ndarray:
        """One recorded field over the run, e.g. ``column("kappa")``. Plain
        rows are read too: perfbench's recovery test builds them, until the
        benchmark change of ROADMAP item 1 rewrites it."""
        if isinstance(self.samples, np.ndarray):
            return self.samples[name]
        return np.array([getattr(s, name) for s in self.samples])


@dataclass
class AlgorithmAggregate:
    """Multi-seed summary for one algorithm of a comparison grid.

    Every field but ``diverged`` is taken over the included (non-diverged)
    seeds; a mean over no included seed is NaN. The floor fields are means
    over the last 10% of the rows recorded before the change, or before N
    without one.
    ``recovery_times`` holds one entry per included seed (None: never
    recovered), none without a change.
    """

    name: str
    n: np.ndarray
    mean_misalignment_db: np.ndarray
    mean_final_misalignment_db: float
    mean_recovery_time: float | None
    not_recovered: int
    included_seeds: list[int]
    diverged: list[tuple[int, int]]
    recovery_times: list[int | None]
    floor_db: float
    floor_kappa: float
    floor_sign_agreement: float
    max_kappa: float


def build_schedule(cfg: ScenarioConfig) -> list[tuple[int, int, np.ndarray]]:
    """The echo path as ``(start, stop, taps)`` spans covering [0, N): one
    span, or two split at ``change_at``."""
    before = cfg.channel_before.realize(cfg.L).taps
    if cfg.change_at is None:
        return [(0, cfg.N, before)]
    after = cfg.channel_after.realize(cfg.L).taps
    return [(0, cfg.change_at, before), (cfg.change_at, cfg.N, after)]


def derive_stream_seeds(seed: int) -> tuple[int, int]:
    """Deterministic (input_seed, noise_seed) pair for one run seed."""
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _tail(ns: np.ndarray, end: int) -> slice:
    """The last 10% of the rows recorded at the samples ``ns`` before
    sample ``end`` (at least one row)."""
    # ns is sorted: the rows before end are a leading slice
    pre = int(np.searchsorted(ns, end))
    return slice(pre - max(1, math.ceil(0.1 * pre)), pre)


def _tail_means(columns, tail: slice) -> np.ndarray:
    """The mean of each of ``columns``, one field of each run (the rows of
    a (runs, rows) block, or a list of arrays), over the rows ``tail``."""
    return np.vstack([column[tail] for column in columns]).mean(axis=1)


def _recovery_times(ns: np.ndarray, mis: np.ndarray,
                    change_at: int) -> np.ndarray:
    """Per run of the misalignment block ``mis`` (runs, rows), its rows
    recorded at the samples ``ns``: the ``recovery_time``, -1 for a run
    that never recovers."""
    threshold = _tail_means(mis, _tail(ns, change_at)) + RECOVERY_MARGIN_DB
    first = int(np.searchsorted(ns, change_at))
    post_ns = ns[first:]
    # misses[:, i]: how many of a run's first i post-change rows miss the
    # margin
    misses = np.zeros((mis.shape[0], post_ns.size + 1), dtype=np.int64)
    np.cumsum(~(mis[:, first:] <= threshold[:, None]), axis=1,
              out=misses[:, 1:])
    window_end = np.searchsorted(post_ns, post_ns + RECOVERY_HOLD)
    covered = post_ns + RECOVERY_HOLD <= ns[-1] + (ns[1] - ns[0])
    held = (misses[:, window_end] == misses[:, :-1]) & covered
    return np.where(held.any(axis=1), post_ns[held.argmax(axis=1)] - change_at,
                    -1)


def recovery_time(trace: RunTrace, change_at: int | None) -> int | None:
    """Samples from change_at to the first recorded sample n from which the
    trace stays within ``RECOVERY_MARGIN_DB`` of its pre-change floor (the
    mean misalignment over the last 10% of the rows recorded before
    change_at) at every recorded sample in [n, n + RECOVERY_HOLD). The
    rows, one per ``n[1] - n[0]`` samples, must cover that span. None when
    it never recovers.
    """
    if change_at is None:
        raise ValueError("change_at is required")
    ns = trace.column("n")
    if not (ns.size and ns[0] < change_at <= ns[-1]):
        raise ValueError(f"change_at={change_at} outside the recorded trace")
    found = int(_recovery_times(ns, trace.column("misalignment_db")[None],
                                change_at)[0])
    return found if found >= 0 else None


@contextmanager
def timed(timings: dict, stage: str):
    """Add the seconds the block takes to ``timings[stage]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start


def run_all(cfg: ScenarioConfig, max_workers: int | None = None,
            timings: dict | None = None) -> list[RunTrace]:
    """Every (algorithm, seed) run of the grid, in config order, in one call
    of the kernel per seed (``filtercore.run_sequence``), the seeds on
    ``resolve_workers`` threads, each seed's streams synthesized on the
    thread of its call. A trace does not depend on which seeds share the
    grid, nor on the thread count or on scheduling:
    ``run_all(dataclasses.replace(cfg, seeds=[seed]))`` is that seed's run
    of each algorithm. Adds the seconds of stream synthesis and of the
    kernel calls, each summed over the seeds' threads, to ``timings`` under
    "synthesis_s" and "engine_s". A seed that raises raises here once every
    seed has run; one whose streams, records or kernel scratch do not fit in
    memory raises ConfigError naming N, L and record_every."""
    timings = {} if timings is None else timings
    workers = resolve_workers(len(cfg.seeds), max_workers)
    spans = build_schedule(cfg)
    ctls = [(alg.kind, alg.params) for alg in cfg.algorithms]
    every = cfg.record_every

    def run_seed(seed):
        start = time.perf_counter()
        input_seed, noise_seed = derive_stream_seeds(seed)
        try:
            x = generate_input(cfg.N, input_seed)
            d = synthesize_desired(x, spans, cfg.snr_db, noise_seed).d
            synthesized = time.perf_counter()
            rec, stop_at = run_sequence(x, d, spans, cfg.mu, ctls, every)
        except MemoryError:
            raise ConfigError(f"N={cfg.N} samples do not fit in memory "
                              f"(L={cfg.L}, record_every={every})") from None
        end = time.perf_counter()
        return rec, stop_at, synthesized - start, end - synthesized

    # submit, then read: a failed seed cancels none of the others, and the
    # pool joins every thread before the failure is raised
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run_seed, seed) for seed in cfg.seeds]
        recs, stops, synthesis, engine = zip(*[f.result() for f in futures])
    for stage, seconds in (("synthesis_s", synthesis), ("engine_s", engine)):
        timings[stage] = timings.get(stage, 0.0) + sum(seconds)
    traces = []
    for a, alg in enumerate(cfg.algorithms):
        for seed, rec, stop_at in zip(cfg.seeds, recs, stops):
            stop = int(stop_at[a])
            # a view: the runs share their seed's records, not copies
            samples = rec[a, :-(-stop // every)].view(np.recarray)
            final = float(samples.misalignment_db[-1]) if samples.size else math.nan
            traces.append(RunTrace(
                algorithm=alg.name, seed=seed, samples=samples,
                final_misalignment_db=final,
                diverged_at=stop if stop < cfg.N else None))
    return traces


def resolve_workers(n_tasks: int, max_workers: int | None = None) -> int:
    """Worker count for ``n_tasks`` independent tasks; the ZAPVSS_THREADS
    env var caps it, else the CPU count does."""
    if max_workers is None:
        env = os.environ.get("ZAPVSS_THREADS")
        if env is not None:
            try:
                max_workers = int(env)
            except ValueError:
                max_workers = 0  # reported with the counts below 1
            if max_workers < 1:
                raise ConfigError(
                    f"ZAPVSS_THREADS must be an integer >= 1, got {env!r}")
        else:
            max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, n_tasks))


def aggregate(cfg: ScenarioConfig, traces: list[RunTrace]) -> list[AlgorithmAggregate]:
    """Per-algorithm pointwise dB-mean curves, floors and recovery
    summaries (see ``AlgorithmAggregate``), each a few whole-array passes
    over the algorithm's (runs, rows) block of its included runs, which
    all record the same samples up to N.

    Diverged runs are excluded from every mean and reported in ``diverged``.
    """
    end = cfg.N if cfg.change_at is None else cfg.change_at
    out = []
    for alg in cfg.algorithms:
        runs = [t for t in traces if t.algorithm == alg.name]
        included = [t for t in runs if t.diverged_at is None]
        diverged = [(t.seed, t.diverged_at) for t in runs
                    if t.diverged_at is not None]
        if not included:
            out.append(AlgorithmAggregate(
                name=alg.name, n=np.array([], dtype=np.int64),
                mean_misalignment_db=np.array([]),
                mean_final_misalignment_db=math.nan, mean_recovery_time=None,
                not_recovered=0, included_seeds=[], diverged=diverged,
                recovery_times=[], floor_db=math.nan, floor_kappa=math.nan,
                floor_sign_agreement=math.nan, max_kappa=math.nan))
            continue
        ns = included[0].column("n")
        tail = _tail(ns, end)
        mis, kappa = (np.vstack([t.column(name) for t in included])
                      for name in ("misalignment_db", "kappa"))
        times = (np.array([], dtype=np.int64) if cfg.change_at is None
                 else _recovery_times(ns, mis, cfg.change_at))
        recovered = times >= 0
        # of the sign agreement only the tail rows are copied
        floor_db, floor_kappa, floor_sign_agreement = (
            float(_tail_means(columns, tail).mean()) for columns in (
                mis, kappa, [t.column("sign_agreement") for t in included]))
        out.append(AlgorithmAggregate(
            name=alg.name, n=ns, mean_misalignment_db=mis.mean(axis=0),
            mean_final_misalignment_db=float(np.mean(
                [t.final_misalignment_db for t in included])),
            mean_recovery_time=(float(times[recovered].mean())
                                if recovered.any() else None),
            not_recovered=int(times.size - recovered.sum()),
            included_seeds=[t.seed for t in included], diverged=diverged,
            recovery_times=np.where(recovered, times.astype(object),
                                    None).tolist(),
            floor_db=floor_db, floor_kappa=floor_kappa,
            floor_sign_agreement=floor_sign_agreement,
            max_kappa=float(kappa.max())))
    return out
