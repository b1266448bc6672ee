"""Scenario runner: the batched grid engine, the scalar single-run
reference, multi-seed aggregation and recovery-time measurement."""

from __future__ import annotations

import math
import os
import re
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import Channel, generate_dispersive, generate_sparse, load_channel
from .filtercore import DivergenceError, step
from .metrics import (SAMPLE_DTYPE, misalignment_db, sign_agreement,
                      smoothed_mse)
from .signal import ChannelSchedule, generate_input, synthesize_desired
from .stepsize import controller_params, make_controller

MSE_BETA = 0.01      # smoothing constant for the recorded error power
RECOVERY_HOLD = 100  # samples the recovery margin must hold
# algorithm names go into CSV rows and config text unquoted
_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


class ConfigError(ValueError):
    """A scenario config, a channel spec or an environment setting is invalid."""


@dataclass
class ChannelSpec:
    """How to obtain a channel: generator parameters or a file path."""

    kind: str  # 'sparse' | 'dispersive' | 'file'
    active_count: int | None = None
    seed: int | None = None
    decay: float = 0.0
    path: str | None = None

    def __post_init__(self):
        if self.kind == "sparse":
            if self.active_count is None or self.seed is None:
                raise ValueError("sparse channel spec requires active_count and seed")
        elif self.kind == "dispersive":
            if self.seed is None:
                raise ValueError("dispersive channel spec requires seed")
        elif self.kind == "file":
            if self.path is None:
                raise ValueError("file channel spec requires file=<path>")
            # the config text could not carry such a path back
            if self.path != self.path.strip() or len(self.path.splitlines()) > 1:
                raise ValueError(f"channel file path {self.path!r} must be one "
                                 f"line without leading or trailing whitespace")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")

    def realize(self, L: int) -> Channel:
        """The channel for filter length L. Generator arguments it cannot
        use, an unreadable channel file or one of another length raise
        ConfigError."""
        try:
            if self.kind == "sparse":
                ch = generate_sparse(L, self.active_count, self.seed)
            elif self.kind == "dispersive":
                ch = generate_dispersive(L, self.seed, self.decay)
            else:
                ch = load_channel(self.path)
        except ValueError as err:
            raise ConfigError(f"{self.kind} channel: {err}") from None
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
    """Full experiment description for one comparison grid."""

    L: int
    N: int
    snr_db: float
    mu: float
    channel_before: ChannelSpec
    algorithms: list[AlgorithmConfig]
    seeds: list[int]
    channel_after: ChannelSpec | None = None
    change_at: int | None = None
    sigma_x: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if self.L <= 1:
            raise ValueError(f"L must be > 1, got {self.L}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be > 0 and finite, got {self.mu}")
        if not (self.sigma_x > 0.0 and math.isfinite(self.sigma_x)):
            raise ValueError(f"sigma_x must be > 0, got {self.sigma_x}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be real or +inf, got {self.snr_db}")
        if self.change_at is not None:
            if not 0 < self.change_at < self.N:
                raise ValueError(
                    f"change_at must be in (0, N={self.N}), got {self.change_at}")
            if self.channel_after is None:
                raise ValueError("change_at requires a channel_after spec")
            # recovery is measured on the samples recorded from change_at on
            every = self.record_every
            if -(-self.change_at // every) * every >= self.N:
                raise ValueError(
                    f"record_every={self.record_every} records no sample in "
                    f"[change_at={self.change_at}, N={self.N})")
        elif self.channel_after is not None:
            raise ValueError("channel_after requires change_at")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"duplicate seed in {self.seeds}")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        names = [a.name for a in self.algorithms]
        for alg in self.algorithms:
            if not _NAME_RE.fullmatch(alg.name):
                raise ValueError(f"algorithm name {alg.name!r} may only use "
                                 f"letters, digits, '_', '.', '-'")
            if names.count(alg.name) > 1:
                raise ValueError(f"duplicate algorithm name '{alg.name}'")
            try:
                controller_params(alg.kind, alg.params, self.mu)
            except ValueError as err:
                raise ValueError(f"[algorithm] '{alg.name}': {err}") from None


@dataclass
class RunTrace:
    """Recorded time series for one (algorithm, seed) run.

    ``samples`` is a record array of SAMPLE_DTYPE (what ``run_all`` and
    ``run_scenario`` return) or a hand-built sequence of rows with those
    fields as attributes.
    """

    algorithm: str
    seed: int
    samples: np.ndarray | list
    final_misalignment_db: float
    diverged_at: int | None = None

    def column(self, name: str) -> np.ndarray:
        """One recorded field over the run, e.g. ``column("kappa")``."""
        if isinstance(self.samples, np.ndarray):
            return self.samples[name]
        return np.array([getattr(s, name) for s in self.samples])

    def sample_indices(self) -> np.ndarray:
        return self.column("n").astype(np.int64, copy=False)

    def misalignment_curve(self) -> np.ndarray:
        return self.column("misalignment_db")

    def kappa_curve(self) -> np.ndarray:
        return self.column("kappa")


@dataclass
class AlgorithmAggregate:
    """Multi-seed summary for one algorithm of a comparison grid.

    Every field but ``diverged`` is taken over the included (non-diverged)
    seeds; a mean over no included seed is NaN. The floor fields are tail
    means before the change (``tail_mean``), or before N without one.
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


def build_schedule(cfg: ScenarioConfig) -> ChannelSchedule:
    before = cfg.channel_before.realize(cfg.L)
    if cfg.change_at is None:
        return ChannelSchedule(((0, before),))
    after = cfg.channel_after.realize(cfg.L)
    return ChannelSchedule(((0, before), (cfg.change_at, after)))


def derive_stream_seeds(seed: int) -> tuple[int, int]:
    """Deterministic (input_seed, noise_seed) pair for one run seed."""
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def run_scenario(cfg: ScenarioConfig, algorithm: str, seed: int) -> RunTrace:
    """One deterministic run of one algorithm on one seed.

    Per sample: regressor, a-priori error, controller kappa, weight update,
    then metrics of the updated weights against the channel active at that
    sample, recorded every ``record_every`` samples. Weights start at zero.
    A divergence stops the run and is recorded in ``diverged_at``. This is
    the plain reference that the batched ``run_seeds`` is tested against;
    both drive the same controller update, here over one row.
    """
    alg = next((a for a in cfg.algorithms if a.name == algorithm), None)
    if alg is None:
        raise ValueError(f"unknown algorithm name {algorithm!r}")
    schedule = build_schedule(cfg)
    input_seed, noise_seed = derive_stream_seeds(seed)
    x = generate_input(cfg.N, input_seed, cfg.sigma_x)
    desired = synthesize_desired(x, schedule, cfg.snr_db, noise_seed)
    controller = make_controller(alg.kind, alg.params, cfg.mu)

    L, every = cfg.L, cfg.record_every
    xp = np.concatenate([np.zeros(L - 1), x])
    w = np.zeros(L)
    samples = np.zeros(-(-cfg.N // every), SAMPLE_DTYPE).view(np.recarray)
    mse = 0.0
    diverged_at = None
    for n in range(cfg.N):
        r = xp[n:n + L][::-1]
        try:
            e, kappa, w = step(w, r, desired.d[n], cfg.mu, controller)
        except DivergenceError:
            diverged_at = n
            break
        mse = smoothed_mse(mse, e, MSE_BETA)
        if n % every == 0:
            h = schedule.channel_at(n).taps
            samples[n // every] = (n, misalignment_db(h, w), kappa, e,
                                   sign_agreement(h, w), mse)
    if diverged_at is not None:  # keep the rows recorded before it
        samples = samples[:-(-diverged_at // every)]
    final = float(samples.misalignment_db[-1]) if samples.size else math.nan
    return RunTrace(algorithm=algorithm, seed=seed, samples=samples,
                    final_misalignment_db=final, diverged_at=diverged_at)


def tail_mean(trace: RunTrace, name: str, end: int) -> float:
    """Mean of field ``name`` over the last 10% of the rows recorded
    before sample ``end`` (at least one row)."""
    ns = trace.sample_indices()
    pre = trace.column(name)[ns < end]
    return float(np.mean(pre[-max(1, math.ceil(0.1 * pre.size)):]))


def recovery_time(trace: RunTrace, change_at: int | None,
                  margin_db: float = 3.0) -> int | None:
    """Samples from change_at to the first recorded sample n from which the
    trace stays within ``margin_db`` of its pre-change floor
    (``tail_mean`` of the misalignment before change_at) at every recorded
    sample in [n, n + RECOVERY_HOLD). The rows, one per ``n[1] - n[0]``
    samples, must cover that span. None when it never recovers.
    """
    if change_at is None:
        raise ValueError("change_at is required")
    if not margin_db > 0.0:
        raise ValueError(f"margin_db must be > 0, got {margin_db}")
    ns = trace.sample_indices()
    if not (ns.size and ns[0] < change_at <= ns[-1]):
        raise ValueError(f"change_at={change_at} outside the recorded trace")
    threshold = tail_mean(trace, "misalignment_db", change_at) + margin_db
    post = ns >= change_at
    post_ns = ns[post]
    # misses[i]: how many of the first i post-change rows miss the margin
    misses = np.concatenate(([0], np.cumsum(
        ~(trace.misalignment_curve()[post] <= threshold))))
    window_end = np.searchsorted(post_ns, post_ns + RECOVERY_HOLD)
    covered = post_ns + RECOVERY_HOLD <= ns[-1] + (ns[1] - ns[0])
    held = (misses[window_end] == misses[:-1]) & covered
    hits = np.flatnonzero(held)
    return int(post_ns[hits[0]] - change_at) if hits.size else None


def run_seeds(cfg: ScenarioConfig, seeds: list[int]) -> list[list[RunTrace]]:
    """Every algorithm of the grid on ``seeds`` in one batched per-sample
    loop over (algorithm, seed, tap) arrays; returns ``traces[a][i]`` for
    algorithm ``a`` and ``seeds[i]``.

    Each row computes what ``run_scenario`` computes, with the same
    floating-point operations in the same order except for the sums of the
    dot products and norms, so its curves match the scalar path to rounding.
    Rows never interact: a row's trace does not depend on which other rows
    share the batch. Metrics are computed only at the recorded samples.
    """
    schedule = build_schedule(cfg)
    L, N, mu, every = cfg.L, cfg.N, cfg.mu, cfg.record_every
    A, S = len(cfg.algorithms), len(seeds)
    # each seed's input, reversed and zero-padded: the regressor
    # [x(n), ..., x(n-L+1)] of sample n is the slice xrev[:, N-1-n:N-1-n+L]
    xrev = np.zeros((S, N + L - 1))
    d = np.empty((N, S))
    for i, seed in enumerate(seeds):
        input_seed, noise_seed = derive_stream_seeds(seed)
        x = generate_input(N, input_seed, cfg.sigma_x)
        d[:, i] = synthesize_desired(x, schedule, cfg.snr_db, noise_seed).d
        xrev[i, :N] = x[::-1]

    w = np.zeros((A, S, L))
    sgn = np.zeros((A, S, L))  # sign(w): read by the next update and the metrics
    tmp = np.empty((A, S, L))
    kappa = np.empty((A, S))
    controllers = []
    for a, alg in enumerate(cfg.algorithms):
        ctl = make_controller(alg.kind, alg.params, mu, rows=S)
        kappa[a] = ctl.kappa
        ctl.kappa = kappa[a]  # updates rewrite it in place: the engine reads it
        if ctl.spec.update is not None:  # a constant kappa costs nothing
            controllers.append((a, ctl))
    need_xx = any(ctl.spec.uses_xx for _, ctl in controllers)
    mse = np.zeros((A, S))
    live = np.ones((A, S), dtype=bool)
    stop_at = np.full((A, S), N)
    rec = np.zeros((-(-N // every), A, S), dtype=SAMPLE_DTYPE)
    rec["n"] = np.arange(0, N, every)[:, None, None]

    # a diverged row runs on as inf/nan, harmlessly: rows never mix
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, stop, ch in schedule.spans(N):
            # h on every row: a same-shape subtraction beats a broadcast one
            h_rows = np.broadcast_to(ch.taps, w.shape).copy()
            hn = float(np.linalg.norm(ch.taps))
            active = np.flatnonzero(ch.taps)
            h_sign = np.sign(ch.taps[active])
            for n in range(start, stop):
                X = xrev[:, N - 1 - n:N - 1 - n + L]
                e = d[n] - np.einsum("asl,sl->as", w, X)
                if not np.isfinite(e).all():
                    _stop_diverged(w, live & ~np.isfinite(e), live, stop_at, n - 1)
                xx = np.einsum("sl,sl->s", X, X) if need_xx else None
                for a, ctl in controllers:
                    ctl.update(e[a], X, w[a], sgn[a], xx)
                # (w + (mu*e)*x) - kappa*sign(w), rounded as apply_update
                # rounds it; einsum broadcasts these products faster
                w += np.einsum("as,sl->asl", mu * e, X, out=tmp)
                w -= np.einsum("as,asl->asl", kappa, sgn, out=tmp)
                np.sign(w, out=sgn)
                mse = (1.0 - MSE_BETA) * mse + MSE_BETA * e * e
                if n % every == 0:
                    row = rec[n // every]
                    np.subtract(w, h_rows, out=tmp)
                    dn = np.sqrt(np.einsum("asl,asl->as", tmp, tmp))
                    row["misalignment_db"] = 20.0 * np.log10(dn / hn)
                    row["kappa"] = kappa
                    row["error"] = e
                    agree = (sgn == h_sign if active.size == L
                             else sgn[:, :, active] == h_sign)
                    row["sign_agreement"] = agree.sum(axis=-1) / active.size
                    row["smoothed_mse"] = mse
        _stop_diverged(w, live, live, stop_at, N - 1)

    traces = []
    for a, alg in enumerate(cfg.algorithms):
        runs = []
        for i, seed in enumerate(seeds):
            samples = rec[:-(-stop_at[a, i] // every), a, i].copy()
            samples = samples.view(np.recarray)
            final = float(samples.misalignment_db[-1]) if samples.size else math.nan
            runs.append(RunTrace(
                algorithm=alg.name, seed=seed, samples=samples,
                final_misalignment_db=final,
                diverged_at=None if live[a, i] else int(stop_at[a, i])))
        traces.append(runs)
    return traces


def _stop_diverged(w, suspect, live, stop_at, n) -> None:
    """Stop the ``suspect`` rows whose weights are non-finite after the
    update of sample n, as ``run_scenario`` stops at its DivergenceError.

    A non-finite error only makes a row suspect: a finite w whose dot
    product overflowed gives one too, and diverges one update later.
    """
    rows = np.nonzero(suspect)
    bad = ~np.isfinite(w[rows]).all(axis=-1)
    rows = tuple(r[bad] for r in rows)
    stop_at[rows] = n
    live[rows] = False


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


def fan_out(fn, items: list, max_workers: int | None = None):
    """Yield ``fn(item)`` for each of ``items``, in input order.

    The calls run on ``resolve_workers(len(items), max_workers)`` worker
    processes, at most two per worker ahead of the caller, so only a few
    results wait in memory at once; ``fn``, the items and the results must
    pickle. With one worker this is a plain ``map`` in this process. The
    pool shuts down when the generator is exhausted or closed or a call
    raises, cancelling the calls not yet started.
    """
    k = resolve_workers(len(items), max_workers)
    if k == 1:
        yield from map(fn, items)
        return
    pool = ProcessPoolExecutor(max_workers=k)
    try:
        pending = deque()
        for item in items:
            if len(pending) == 2 * k:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_all(cfg: ScenarioConfig, max_workers: int | None = None) -> list[RunTrace]:
    """Every (algorithm, seed) run of the grid, in config order.

    The seed list is split into one contiguous chunk per worker; each chunk
    runs every algorithm in one batched loop (``run_seeds``), the chunks
    side by side through ``fan_out``. No trace depends on the chunking or
    on scheduling.
    """
    seeds = cfg.seeds
    k = resolve_workers(len(seeds), max_workers)
    chunks = [seeds[i * len(seeds) // k:(i + 1) * len(seeds) // k]
              for i in range(k)]
    results = list(fan_out(partial(run_seeds, cfg), chunks, k))
    return [t for a in range(len(cfg.algorithms))
            for chunk in results for t in chunk[a]]


def aggregate(cfg: ScenarioConfig, traces: list[RunTrace],
              margin_db: float = 3.0) -> list[AlgorithmAggregate]:
    """Per-algorithm pointwise dB-mean curves, floors and recovery
    summaries (see ``AlgorithmAggregate``).

    Diverged runs are excluded from every mean and reported in ``diverged``.
    """
    end = cfg.N if cfg.change_at is None else cfg.change_at
    out = []
    for alg in cfg.algorithms:
        runs = [t for t in traces if t.algorithm == alg.name]
        included = [t for t in runs if t.diverged_at is None]
        diverged = [(t.seed, t.diverged_at) for t in runs
                    if t.diverged_at is not None]
        if included:
            ns = included[0].sample_indices()
            curves = np.vstack([t.misalignment_curve() for t in included])
            mean_curve = curves.mean(axis=0)
        else:
            ns = np.array([], dtype=np.int64)
            mean_curve = np.array([])
        times = ([] if cfg.change_at is None else
                 [recovery_time(t, cfg.change_at, margin_db)
                  for t in included])
        reached = [t for t in times if t is not None]
        out.append(AlgorithmAggregate(
            name=alg.name, n=ns, mean_misalignment_db=mean_curve,
            mean_final_misalignment_db=_mean_or_nan(
                [t.final_misalignment_db for t in included]),
            mean_recovery_time=float(np.mean(reached)) if reached else None,
            not_recovered=len(times) - len(reached),
            included_seeds=[t.seed for t in included], diverged=diverged,
            recovery_times=times,
            floor_db=_mean_or_nan([tail_mean(t, "misalignment_db", end)
                                   for t in included]),
            floor_kappa=_mean_or_nan([tail_mean(t, "kappa", end)
                                      for t in included]),
            floor_sign_agreement=_mean_or_nan(
                [tail_mean(t, "sign_agreement", end) for t in included]),
            max_kappa=max((float(np.max(t.kappa_curve())) for t in included),
                          default=math.nan)))
    return out


def _mean_or_nan(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def compare(cfg: ScenarioConfig, margin_db: float = 3.0,
            max_workers: int | None = None) -> list[AlgorithmAggregate]:
    """Run the whole grid and aggregate per algorithm."""
    return aggregate(cfg, run_all(cfg, max_workers), margin_db)
