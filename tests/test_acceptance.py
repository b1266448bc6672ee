"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Criteria 4-6 run the shipped comparison grids (configs/sparse.cfg and
configs/dispersive.cfg) at full scale; the whole module takes a couple of
minutes on one core.
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (make_controller, misalignment_db, oracle_delta_projected,
                     predict_error, proposed_l1_delta, sparsity_xi, step,
                     trace_rows)
from zapvss.channel import generate_sparse
from zapvss.cli import CSV_HEADER, emit_csv, parse_config
from zapvss.harness import (AlgorithmConfig, ChannelSpec, ScenarioConfig,
                            aggregate, build_schedule, derive_stream_seeds,
                            recovery_time, run_all)
from zapvss.signal import generate_input, synthesize_desired

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _steady_db(trace, change_at):
    ns = trace.column("n")
    mis = trace.column("misalignment_db")
    pre = mis[ns < change_at]
    tail = max(1, math.ceil(0.1 * pre.size))
    return float(np.mean(pre[-tail:]))


def _sign_tail(trace, change_at):
    ns = trace.column("n")
    sig = np.array([s.sign_agreement for s in trace.samples])
    pre = sig[ns < change_at]
    tail = max(1, math.ceil(0.1 * pre.size))
    return float(np.mean(pre[-tail:]))


@pytest.fixture(scope="module")
def sparse_grid():
    cfg = parse_config(CONFIG_DIR / "sparse.cfg")
    start = time.perf_counter()
    traces = run_all(cfg)
    return cfg, traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def dispersive_grid():
    cfg = parse_config(CONFIG_DIR / "dispersive.cfg")
    return cfg, run_all(cfg)


def _mean_recovery(cfg, traces, name):
    times = [recovery_time(t, cfg.change_at)
             for t in traces if t.algorithm == name]
    assert all(t is not None for t in times), f"{name} did not recover"
    return float(np.mean(times))


def _plain_recursion(regressors, ds, mu, kappa):
    """The error/update recursion with plain python floats: yields the
    a-priori error and the updated weights of each sample."""
    L = len(regressors[0])
    w_ref = [0.0] * L
    for x, d in zip(regressors, ds):
        e_ref = d - sum(x[i] * w_ref[i] for i in range(L))
        sgn = [0.0 if v == 0.0 else (1.0 if v > 0.0 else -1.0) for v in w_ref]
        w_ref = [w_ref[i] + mu * x[i] * e_ref - kappa * sgn[i]
                 for i in range(L)]
        yield e_ref, w_ref


def test_criterion_1_trajectory_oracle():
    # library trajectories must match a plain-python recomputation of the
    # error/update recursion, written independently of the numpy path:
    # the scalar oracle step by step, then the shipped batched engine
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    steps, L, mu, kappa = 100, 4, 0.05, 0.01
    xs = rng.standard_normal((steps, L))
    ds = rng.standard_normal(steps)

    w = np.zeros(L)
    ctl = make_controller("fixed_zap", {"kappa0": kappa}, mu)
    worst = 0.0
    for n, (e_ref, w_ref) in enumerate(
            _plain_recursion(xs.tolist(), ds.tolist(), mu, kappa)):
        e, _, w = step(w, xs[n], ds[n], mu, ctl)
        worst = max(worst, abs(e - e_ref) / max(1.0, abs(e_ref)))
        num = float(np.linalg.norm(w - np.array(w_ref)))
        den = max(1.0, float(np.linalg.norm(w_ref)))
        worst = max(worst, num / den)
    elapsed = time.perf_counter() - start

    # run_all records every sample's error and misalignment; recompute
    # both from the same input and desired streams
    cfg = ScenarioConfig(
        L=L, N=steps, snr_db=30.0, mu=mu,
        channel_before=ChannelSpec(kind="sparse", active_count=2, seed=5),
        algorithms=[AlgorithmConfig("zap", "fixed_zap", {"kappa0": kappa})],
        seeds=[3])
    [trace] = run_all(cfg)
    spans = build_schedule(cfg)
    h = spans[0][2].tolist()
    input_seed, noise_seed = derive_stream_seeds(cfg.seeds[0])
    x = generate_input(steps, input_seed)
    d = synthesize_desired(x, spans, cfg.snr_db, noise_seed).d.tolist()
    x = x.tolist()
    windows = [[x[n - i] if n >= i else 0.0 for i in range(L)]
               for n in range(steps)]
    assert trace.diverged_at is None and len(trace.samples) == steps
    worst_db = 0.0
    for row, (e_ref, w_ref) in zip(trace.samples,
                                   _plain_recursion(windows, d, mu, kappa)):
        worst = max(worst, abs(row.error - e_ref) / max(1.0, abs(e_ref)))
        dist = math.sqrt(sum((h[i] - w_ref[i]) ** 2 for i in range(L)))
        mis_ref = 20.0 * math.log10(dist / math.sqrt(sum(v * v for v in h)))
        worst_db = max(worst_db, abs(row.misalignment_db - mis_ref))
    ok = worst <= 1e-12 and worst_db <= 1e-9 and elapsed < 1.0
    _report("1", ok, f"max rel err {worst:.2e}, engine misalignment "
            f"{worst_db:.2e} dB, {elapsed:.3f} s")


def test_criterion_2_closed_form_metrics():
    one_sparse = np.zeros(8)
    one_sparse[3] = 2.5
    checks = [
        ("xi 1-sparse", sparsity_xi(one_sparse), 1.0),
        ("xi uniform", sparsity_xi([0.5, -0.5, 0.5, 0.5]), 0.0),
        ("xi [1,1,0,0]", sparsity_xi([1.0, 1.0, 0.0, 0.0]),
         2.0 * (1.0 - 1.0 / math.sqrt(2.0))),
        ("misalignment", misalignment_db([1.0, 0.0], [0.0, 1.0]),
         20.0 * math.log10(math.sqrt(2.0))),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    _report("2", worst <= 1e-9, f"max abs err {worst:.2e}")


def test_criterion_3_substitution_validity():
    # noise-free sparse run: the estimate computed from the observable error
    # must equal the oracle computed from the true residual, every sample
    L, K, N, mu = 64, 4, 400, 0.005
    ch = generate_sparse(L, K, 7)
    input_seed, noise_seed = derive_stream_seeds(0)
    x = generate_input(N, input_seed)
    des = synthesize_desired(x, [(0, N, ch.taps)], math.inf, noise_seed)
    xp = np.concatenate([np.zeros(L - 1), x])
    w = np.zeros(L)
    ctl = make_controller("proposed_l1", {"alpha": 0.05, "gamma": 1e-3,
                                          "kappa_max": mu}, mu)
    worst = 0.0
    for n in range(N):
        r = xp[n:n + L][::-1]
        e = predict_error(w, r, des.d[n])
        observable = proposed_l1_delta(e, r, w)
        truth = oracle_delta_projected(ch, w, r)
        if truth == 0.0:
            assert observable == 0.0
        else:
            worst = max(worst, abs(observable - truth) / truth)
        _, _, w = step(w, r, des.d[n], mu, ctl)
    _report("3", worst <= 1e-12, f"max rel err {worst:.2e} over {N} samples")


def test_criterion_4_sparse_tracking(sparse_grid):
    cfg, traces, grid_seconds = sparse_grid
    assert all(t.diverged_at is None for t in traces)

    rec_pn = _mean_recovery(cfg, traces, "proposed_norm")
    rec_you = _mean_recovery(cfg, traces, "you")
    rec_zap = _mean_recovery(cfg, traces, "fixed_zap")

    # calibration evidence: the distance-estimate controllers sit within
    # 1 dB of fixed_zap before the change
    steadies = {}
    for name in ("fixed_zap", "proposed_norm", "proposed_l1"):
        runs = [t for t in traces if t.algorithm == name]
        steadies[name] = float(np.mean([_steady_db(t, cfg.change_at)
                                        for t in runs]))
    cal_pn = abs(steadies["proposed_norm"] - steadies["fixed_zap"])
    cal_pl1 = abs(steadies["proposed_l1"] - steadies["fixed_zap"])

    ok = (rec_pn <= 0.8 * rec_you and rec_you >= rec_zap
          and cal_pn <= 1.0 and cal_pl1 <= 1.0 and grid_seconds < 60.0)
    _report("4", ok,
            f"recovery proposed_norm {rec_pn:.0f} <= 0.8*you "
            f"{0.8 * rec_you:.0f}; you {rec_you:.0f} >= fixed "
            f"{rec_zap:.0f}; steady offsets {cal_pn:.2f}/{cal_pl1:.2f} dB; "
            f"grid ran in {grid_seconds:.0f} s")


def test_criterion_5_dispersive_safety(dispersive_grid):
    cfg, traces = dispersive_grid
    assert all(t.diverged_at is None for t in traces)
    finals = {}
    for name in ("proposed_norm", "fixed_zap"):
        runs = [t for t in traces if t.algorithm == name]
        finals[name] = float(np.mean([t.final_misalignment_db for t in runs]))
    gap = finals["proposed_norm"] - finals["fixed_zap"]
    _report("5", gap <= 0.5,
            f"dispersive final proposed_norm {finals['proposed_norm']:.2f} dB "
            f"vs fixed_zap {finals['fixed_zap']:.2f} dB (gap {gap:+.2f} dB)")


def test_criterion_6_sign_diagnostic(sparse_grid):
    cfg, traces, _ = sparse_grid
    runs = [t for t in traces if t.algorithm == "proposed_norm"]
    per_seed = [_sign_tail(t, cfg.change_at) for t in runs]
    mean_sign = float(np.mean(per_seed))
    _report("6", mean_sign > 0.9,
            f"mean active-tap sign agreement {mean_sign:.4f} over "
            f"{len(per_seed)} seeds")


def test_criterion_7_robustness(sparse_grid, dispersive_grid):
    problems = []
    for label, (cfg, traces) in (("sparse", sparse_grid[:2]),
                                 ("dispersive", dispersive_grid)):
        # kappa sanity over every run of criteria 4-6
        for t in traces:
            kappas = t.column("kappa")
            if not (np.all(kappas >= 0.0) and np.all(np.isfinite(kappas))):
                problems.append(f"{label}:{t.algorithm}:{t.seed} bad kappa")

        # realized SNR within +-0.2 dB of the configured 30 dB
        sched = build_schedule(cfg)
        for seed in cfg.seeds:
            input_seed, noise_seed = derive_stream_seeds(seed)
            x = generate_input(cfg.N, input_seed)
            des = synthesize_desired(x, sched, cfg.snr_db, noise_seed)
            noise = des.d - des.clean
            realized = 10.0 * math.log10(
                float(np.mean(des.clean**2)) / float(np.mean(noise**2)))
            if abs(realized - cfg.snr_db) > 0.2:
                problems.append(f"{label}:seed {seed} snr {realized:.3f}")

        # re-running the whole grid must reproduce the CSV byte for byte
        rerun = run_all(cfg)
        first, second = io.BytesIO(), io.BytesIO()
        emit_csv(traces, first, scenario=label)
        emit_csv(rerun, second, scenario=label)
        if first.getvalue() != second.getvalue():
            problems.append(f"{label}: rerun CSV differs")
    _report("7", not problems,
            "kappa bounds, realized SNR, rerun determinism"
            + (f"; problems: {problems}" if problems else ""))


def test_aggregate_reports_the_criteria_tails(sparse_grid, dispersive_grid):
    # the floors and recoveries written to *_meta.json are the quantities
    # criteria 4 and 6 compute by hand
    for cfg, traces in (sparse_grid[:2], dispersive_grid):
        for agg in aggregate(cfg, traces):
            runs = [t for t in traces if t.algorithm == agg.name]
            assert agg.floor_db == np.mean(
                [_steady_db(t, cfg.change_at) for t in runs])
            assert agg.recovery_times == [
                recovery_time(t, cfg.change_at) for t in runs]
    cfg, traces, _ = sparse_grid
    pn = next(a for a in aggregate(cfg, traces) if a.name == "proposed_norm")
    assert pn.floor_sign_agreement == np.mean(
        [_sign_tail(t, cfg.change_at) for t in traces
         if t.algorithm == "proposed_norm"])


def test_trace_csv_equals_the_repr_oracle(sparse_grid, dispersive_grid,
                                          tmp_path):
    # the compiled formatter writes each shipped grid's CSV as the f-string
    # and repr rows of the oracle would, compared one run at a time
    for label, (cfg, traces) in (("sparse", sparse_grid[:2]),
                                 ("dispersive", dispersive_grid)):
        path = tmp_path / f"{label}_trace.csv"
        emit_csv(traces, path, scenario=label)
        with open(path) as f:
            assert f.readline() == CSV_HEADER + "\n"
            for trace in sorted(traces, key=lambda t: (t.algorithm, t.seed)):
                want = trace_rows(trace, label)
                assert f.read(len(want)) == want, (trace.algorithm, trace.seed)
            assert f.read() == ""
