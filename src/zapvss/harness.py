"""Scenario runner: the batched grid engine, the scalar single-run
reference, multi-seed aggregation and recovery-time measurement."""

from __future__ import annotations

import math
import os
import re
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .channel import Channel, generate_dispersive, generate_sparse, load_channel
from .filtercore import DivergenceError, step
from .metrics import (SAMPLE_DTYPE, misalignment_db, sign_agreement,
                      smoothed_mse)
from .signal import generate_input, synthesize_desired
from .stepsize import KINDS, controller_params, make_controller

MSE_BETA = 0.01          # smoothing constant for the recorded error power
RECOVERY_MARGIN_DB = 3.0  # recovered: back within this of the pre-change floor
RECOVERY_HOLD = 100      # samples the recovery margin must hold
# algorithm names go into CSV rows and config text unquoted
_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


class ConfigError(ValueError):
    """A scenario config, a channel spec or an environment setting is invalid."""


# the ChannelSpec fields each kind uses (all required but decay); its
# config text carries no other
_CHANNEL_FIELDS = {"sparse": ("active_count", "seed"),
                   "dispersive": ("seed", "decay"), "file": ("path",)}


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
        used = _CHANNEL_FIELDS.get(self.kind)
        if used is None:
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in used and value is None:
                raise ConfigError(f"a {self.kind} channel requires {f.name}")
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
        if self.L <= 1:
            raise ConfigError(f"L must be > 1, got {self.L}")
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
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


def tail_mean(trace: RunTrace, name: str, end: int) -> float:
    """Mean of field ``name`` over the last 10% of the rows recorded
    before sample ``end`` (at least one row)."""
    ns = trace.column("n")
    pre = trace.column(name)[ns < end]
    return float(np.mean(pre[-max(1, math.ceil(0.1 * pre.size)):]))


def recovery_time(trace: RunTrace, change_at: int | None) -> int | None:
    """Samples from change_at to the first recorded sample n from which the
    trace stays within ``RECOVERY_MARGIN_DB`` of its pre-change floor
    (``tail_mean`` of the misalignment before change_at) at every recorded
    sample in [n, n + RECOVERY_HOLD). The rows, one per ``n[1] - n[0]``
    samples, must cover that span. None when it never recovers.
    """
    if change_at is None:
        raise ValueError("change_at is required")
    ns = trace.column("n")
    if not (ns.size and ns[0] < change_at <= ns[-1]):
        raise ValueError(f"change_at={change_at} outside the recorded trace")
    threshold = tail_mean(trace, "misalignment_db", change_at) + RECOVERY_MARGIN_DB
    post = ns >= change_at
    post_ns = ns[post]
    # misses[i]: how many of the first i post-change rows miss the margin
    misses = np.concatenate(([0], np.cumsum(
        ~(trace.column("misalignment_db")[post] <= threshold))))
    window_end = np.searchsorted(post_ns, post_ns + RECOVERY_HOLD)
    covered = post_ns + RECOVERY_HOLD <= ns[-1] + (ns[1] - ns[0])
    held = (misses[window_end] == misses[:-1]) & covered
    hits = np.flatnonzero(held)
    return int(post_ns[hits[0]] - change_at) if hits.size else None


def run_seeds(cfg: ScenarioConfig, seeds: list[int]) -> list[list[RunTrace]]:
    """Every algorithm of the grid on ``seeds`` in one batched per-sample
    loop over (seed, algorithm, tap) arrays; returns ``traces[a][i]`` for
    algorithm ``a`` and ``seeds[i]``.

    Each row computes what ``run_scenario`` computes, with the same
    floating-point operations except for the sums of the dot products and
    norms and the weight update, so its curves match the scalar path to
    rounding. The update w + mu*e*x - kappa*sign(w) of a seed's rows is one
    BLAS product, which accumulates mu*e*x - kappa*sign(w) before adding
    it to w, where ``apply_update`` adds mu*e*x to w first; its last digits
    depend on the BLAS kernel. Rows never interact: a row's trace does not
    depend on which other rows share the batch or where. Each sample
    computes every row reduction a controller reads once, over the rows
    whose controllers read it. The rows whose kappa is a constant 0 skip
    the attractor and take their signs only at the recorded samples, where
    the metrics are computed. A diverged row rests at zero from then on.
    """
    spans = build_schedule(cfg)
    L, N, mu, every = cfg.L, cfg.N, cfg.mu, cfg.record_every
    A, S = len(cfg.algorithms), len(seeds)
    # each seed's input, reversed and zero-padded: the regressor
    # [x(n), ..., x(n-L+1)] of sample n is the slice xrev[:, N-1-n:N-1-n+L]
    xrev = np.zeros((S, N + L - 1))
    d = np.empty((N, S, 1))
    for i, seed in enumerate(seeds):
        input_seed, noise_seed = derive_stream_seeds(seed)
        x = generate_input(N, input_seed)
        d[:, i, 0] = synthesize_desired(x, spans, cfg.snr_db, noise_seed).d
        xrev[i, :N] = x[::-1]

    ctls = [make_controller(alg.kind, alg.params, mu, rows=S)
            for alg in cfg.algorithms]
    # engine order: the rows that attract lead, in the order of KINDS so
    # that the readers of a reduction sit together; the others follow
    kinds = list(KINDS)
    order = sorted(range(A), key=lambda a: (not ctls[a].attracts,
                                            kinds.index(ctls[a].kind)))
    ctls = [ctls[a] for a in order]
    R = sum(c.attracts for c in ctls)

    w = np.zeros((S, A, L))
    # per seed Z = [x; sign(w) of each row] and C = [mu*e, -kappa on the
    # diagonal of the attracting rows]: every row's update is C @ Z[:1+R].
    # numpy hands a one-row product to gemv, which rounds unlike gemm: a
    # spare zero row keeps a lone row's trace what it is in a larger grid
    Z = np.zeros((S, 1 + A, L))
    x, sgn, z_att = Z[:, :1], Z[:, 1:], Z[:, :1 + R]
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
    # leaves it at rest: a NaN sign would reach every row of its seed
    # through the product's zero coefficients
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, stop, h in spans:
            # h on every row: a same-shape subtraction beats a broadcast one
            h_rows = np.broadcast_to(h, w.shape).copy()
            active = np.flatnonzero(h)
            h_sign = np.sign(h[active])
            for n in range(start, stop):
                x[:, 0] = xrev[:, N - 1 - n:N - 1 - n + L]
                np.vecdot(w, x, out=e)
                np.subtract(d[n], e, out=e)
                if not math.isfinite(e_flat.dot(ones)):  # inf and NaN propagate
                    _stop_diverged(w, live & ~np.isfinite(e), live, stop_at,
                                   n - 1, sgn, e, mu_rows)
                if xz_rows:
                    np.vecdot(Z[:, :xz_rows], x, out=xz[:, :xz_rows])
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

    traces = []
    for a, alg in enumerate(cfg.algorithms):
        i = order.index(a)
        runs = []
        for s, seed in enumerate(seeds):
            samples = rec[:-(-stop_at[s, i] // every), s, i].copy()
            samples = samples.view(np.recarray)
            final = float(samples.misalignment_db[-1]) if samples.size else math.nan
            runs.append(RunTrace(
                algorithm=alg.name, seed=seed, samples=samples,
                final_misalignment_db=final,
                diverged_at=None if live[s, i] else int(stop_at[s, i])))
        traces.append(runs)
    return traces


def _stop_diverged(w, suspect, live, stop_at, n, *rest) -> None:
    """Stop the ``suspect`` rows whose weights are non-finite after the
    update of sample n, as ``run_scenario`` stops at its DivergenceError,
    and zero their rows of ``w`` and of each of ``rest``.

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


def aggregate(cfg: ScenarioConfig, traces: list[RunTrace]) -> list[AlgorithmAggregate]:
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
            ns = included[0].column("n")
            curves = np.vstack([t.column("misalignment_db") for t in included])
            mean_curve = curves.mean(axis=0)
        else:
            ns = np.array([], dtype=np.int64)
            mean_curve = np.array([])
        times = ([] if cfg.change_at is None else
                 [recovery_time(t, cfg.change_at) for t in included])
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
            max_kappa=max((float(np.max(t.column("kappa"))) for t in included),
                          default=math.nan)))
    return out


def _mean_or_nan(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan
