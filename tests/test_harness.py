import dataclasses
import itertools
import math
import struct
import sys
import threading
import time

import numpy as np
import pytest

import oracles
from zapvss.channel import generate_sparse, save_channel
from oracles import (DivergenceError, aggregate_per_trace, make_controller,
                     oracle_delta_l1, oracle_delta_projected, predict_error,
                     proposed_l1_delta, residual_error, run_scenario, step)
from test_batched import ALL_KINDS, grid
from zapvss import filtercore, harness
from zapvss.filtercore import SAMPLE_DTYPE
from zapvss.harness import (AlgorithmAggregate, AlgorithmConfig,
                            ChannelSpec, ConfigError, RunTrace,
                            ScenarioConfig, aggregate, build_schedule,
                            derive_stream_seeds, recovery_time, run_all)
from zapvss.signal import generate_input, synthesize_desired


def small_config(**overrides):
    base = dict(
        L=16, N=200, snr_db=30.0, mu=0.01,
        channel_before=ChannelSpec(kind="sparse", active_count=4, seed=21),
        algorithms=[AlgorithmConfig("lms", "lms")],
        seeds=[1],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def make_trace(mis, algorithm="a", seed=0, start=0, step_n=1):
    samples = np.rec.array(
        [(start + i * step_n, float(v), 0.0, 0.0, 1.0, 0.0)
         for i, v in enumerate(mis)], dtype=SAMPLE_DTYPE)
    return RunTrace(algorithm=algorithm, seed=seed, samples=samples,
                    final_misalignment_db=float(mis[-1]))


class TestScenarioConfig:
    def test_change_requires_after_channel(self):
        with pytest.raises(ValueError):
            small_config(change_at=100)

    def test_after_channel_requires_change(self):
        with pytest.raises(ValueError):
            small_config(
                channel_after=ChannelSpec(kind="sparse", active_count=4, seed=3))

    def test_change_within_run(self):
        with pytest.raises(ValueError):
            small_config(
                change_at=200,
                channel_after=ChannelSpec(kind="sparse", active_count=4, seed=3))

    def test_duplicate_algorithm_names(self):
        with pytest.raises(ValueError):
            small_config(algorithms=[AlgorithmConfig("a", "lms"),
                                     AlgorithmConfig("a", "lms")])

    def test_duplicate_seeds(self):
        with pytest.raises(ValueError, match="duplicate seed"):
            small_config(seeds=[1, 1, 2])

    @pytest.mark.parametrize("every", [100, 60])
    def test_change_needs_a_recorded_sample_after_it(self, every):
        # no multiple of 60 or 100 lies in [change_at, N) = [61, 100)
        after = ChannelSpec(kind="sparse", active_count=4, seed=3)
        with pytest.raises(ValueError, match="record_every"):
            small_config(L=8, N=100, change_at=61, record_every=every,
                         channel_after=after)
        # sample 60 is recorded, so recovery can be measured from it
        small_config(L=8, N=100, change_at=60, record_every=60,
                     channel_after=after)

    @pytest.mark.parametrize("name", ["a,b", "a b", "", "lms\n"])
    def test_algorithm_name_rule(self, name):
        # a comma would add a CSV column and a line break would not survive
        # the config text
        with pytest.raises(ValueError, match="may only use"):
            small_config(algorithms=[AlgorithmConfig(name, "lms")])

    @pytest.mark.parametrize("path", [" h.txt", "h.txt ", "h.txt\n", "a\nb"])
    def test_file_path_must_survive_config_text(self, path):
        with pytest.raises(ValueError, match="whitespace"):
            ChannelSpec(kind="file", path=path)

    @pytest.mark.parametrize("build", [
        lambda: small_config(mu=0.0),
        lambda: small_config(algorithms=[AlgorithmConfig("a", "nlms")]),
        lambda: ChannelSpec(kind="sparse", seed=3)])
    def test_rules_raise_config_error(self, build):
        # a rule raises ConfigError where it lives, so no caller re-wraps it
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda: small_config(L=16.0), "L"),
        (lambda: small_config(L=True), "L"),
        (lambda: small_config(L="16"), "L"),
        (lambda: small_config(N=50.0), "N"),
        (lambda: small_config(record_every=2.0), "record_every"),
        (lambda: small_config(change_at=100.0, channel_after=ChannelSpec(
            kind="sparse", active_count=4, seed=3)), "change_at"),
        (lambda: small_config(seeds=[1, 2.0]), "seed"),
        (lambda: small_config(seeds=[True]), "seed"),
        (lambda: ChannelSpec("sparse", active_count=4.0, seed=1),
         "sparse channel active_count"),
        (lambda: ChannelSpec("sparse", active_count=4, seed=1.5),
         "sparse channel seed"),
        (lambda: ChannelSpec("dispersive", seed=1.0), "dispersive channel seed")],
        ids=["L-float", "L-bool", "L-str", "N-float", "record_every-float",
             "change_at-float", "seed-float", "seed-bool",
             "active_count-float", "channel_seed-float",
             "dispersive_seed-float"])
    def test_integer_fields_take_integers(self, build, name):
        # a field the config text writes as an integer: a float or a bool
        # written back would not parse, and the run would fail as a fault
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer"):
            build()

    def test_numpy_integers_round_trip_and_run(self):
        from zapvss.cli import canonical_config_text, parse_config_text
        cfg = small_config(
            L=np.int64(16), N=np.int64(200), record_every=np.int64(2),
            change_at=np.int64(100), seeds=[np.int64(1)],
            channel_after=ChannelSpec("sparse", active_count=np.int64(4),
                                      seed=np.int64(3)))
        assert parse_config_text(canonical_config_text(cfg)) == cfg
        [trace] = run_all(cfg, max_workers=1)
        assert trace.samples.size == 100

    def test_bad_controller_params_fail_fast(self):
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            small_config(algorithms=[AlgorithmConfig(
                "liu", "liu", {"lambda": 0.5, "alpha": 1.5, "gamma": 1.0})])

    def test_file_channel_spec(self, tmp_path):
        from zapvss.channel import save_channel
        path = tmp_path / "h.txt"
        save_channel(generate_sparse(16, 4, 21), path)
        cfg = small_config(
            channel_before=ChannelSpec(kind="file", path=str(path)))
        [(_, _, taps)] = build_schedule(cfg)
        assert np.array_equal(taps, generate_sparse(16, 4, 21).taps)

    def test_file_channel_length_mismatch(self, tmp_path):
        from zapvss.channel import save_channel
        path = tmp_path / "h.txt"
        save_channel(generate_sparse(8, 2, 21), path)
        cfg = small_config(
            channel_before=ChannelSpec(kind="file", path=str(path)))
        with pytest.raises(ValueError, match="L=8"):
            build_schedule(cfg)

    @pytest.mark.parametrize("change_at", [None, 70])
    def test_schedule_spans_cover_the_run(self, change_at):
        after = ChannelSpec(kind="sparse", active_count=4, seed=3)
        cfg = small_config(change_at=change_at,
                           channel_after=after if change_at else None)
        spans = build_schedule(cfg)
        # contiguous spans from 0 to N, split at the change if there is one
        bounds = [0, cfg.N] if change_at is None else [0, change_at, cfg.N]
        assert ([(start, stop) for start, stop, _ in spans]
                == list(zip(bounds, bounds[1:])))
        for (_, _, taps), spec in zip(spans, [cfg.channel_before, after]):
            assert np.array_equal(taps, spec.realize(cfg.L).taps)


class TestRunScenario:
    def test_trace_length(self):
        trace = run_scenario(small_config(N=100), "lms", 1)
        assert len(trace.samples) == 100
        assert [s.n for s in trace.samples] == list(range(100))

    def test_record_every_decimates(self):
        trace = run_scenario(small_config(N=100, record_every=3), "lms", 1)
        assert len(trace.samples) == math.ceil(100 / 3)
        assert trace.samples[1].n == 3

    def test_first_sample_near_zero_db(self):
        # one tiny update leaves the zero-initialized filter essentially at 0
        trace = run_scenario(small_config(mu=1e-7), "lms", 1)
        assert abs(trace.samples[0].misalignment_db) < 1e-3

    def test_deterministic(self):
        cfg = small_config(
            algorithms=[AlgorithmConfig(
                "pn", "proposed_norm", {"alpha": 0.05, "gamma": 0.1})])
        a = run_scenario(cfg, "pn", 1)
        b = run_scenario(cfg, "pn", 1)
        assert np.array_equal(a.column("misalignment_db"),
                              b.column("misalignment_db"))
        assert np.array_equal(a.column("kappa"), b.column("kappa"))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_scenario(small_config(), "nlms", 1)

    def test_divergence_recorded_not_raised(self):
        trace = run_scenario(small_config(mu=10.0, N=400), "lms", 1)
        assert trace.diverged_at is not None
        assert len(trace.samples) < 400

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_diverged_at_is_the_first_failing_step(self, record_every):
        # at mu=2.5 seed 4 diverges inside the run
        cfg = small_config(mu=2.5, N=400, seeds=[4], record_every=record_every)
        spans = build_schedule(cfg)
        input_seed, noise_seed = derive_stream_seeds(4)
        x = generate_input(cfg.N, input_seed)
        des = synthesize_desired(x, spans, cfg.snr_db, noise_seed)
        xp = np.concatenate([np.zeros(cfg.L - 1), x])
        w = np.zeros(cfg.L)
        ctl = make_controller("lms", {}, cfg.mu)
        for n in range(cfg.N):
            try:
                _, _, w = step(w, xp[n:n + cfg.L][::-1], des.d[n], cfg.mu, ctl)
            except DivergenceError:
                break
        else:
            pytest.fail("the run did not diverge")
        trace = run_scenario(cfg, "lms", 4)
        assert trace.diverged_at == n
        # the rows recorded before the failing sample, and no more
        assert list(trace.samples.n) == list(range(0, n, record_every))

    def test_kappa_nonnegative_finite_all_kinds(self):
        cfg = small_config(
            N=400,
            change_at=200,
            channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33),
            algorithms=[
                AlgorithmConfig("lms", "lms"),
                AlgorithmConfig("zap", "fixed_zap", {"kappa0": 1e-4}),
                AlgorithmConfig("you", "you", {"kappa0": 1e-3, "eta": 0.5,
                                               "kappa_min": 1e-5,
                                               "window": 50, "cooldown": 50}),
                AlgorithmConfig("liu", "liu", {"lambda": 0.05, "alpha": 0.05,
                                               "gamma": 1e-3}),
                AlgorithmConfig("pl1", "proposed_l1", {"alpha": 0.05,
                                                       "gamma": 1e-2}),
                AlgorithmConfig("pn", "proposed_norm", {"alpha": 0.05,
                                                        "gamma": 0.5}),
            ])
        for alg in cfg.algorithms:
            trace = run_scenario(cfg, alg.name, 1)
            kappas = trace.column("kappa")
            assert np.all(kappas >= 0.0)
            assert np.all(np.isfinite(kappas))
            assert trace.diverged_at is None

    def test_misalignment_tracks_active_channel(self):
        cfg = small_config(
            N=400, snr_db=math.inf, mu=0.05,
            change_at=200,
            channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33))
        trace = run_scenario(cfg, "lms", 1)
        curve = trace.column("misalignment_db")
        # converged to the first channel, then the change resets the mismatch
        assert curve[199] < -20.0
        assert curve[200] > curve[199] + 10.0


class TestOracles:
    def test_residual_zero_at_match(self):
        h = generate_sparse(8, 2, 1)
        assert residual_error(h, h.taps, np.ones(8)) == 0.0

    def test_residual_hand_value(self):
        assert residual_error([1.0, 0.0], [0.0, 0.0], [2.0, 3.0]) == 2.0

    def test_residual_linear_in_x(self):
        h = np.array([0.5, -1.0, 0.25])
        w = np.array([0.1, 0.2, 0.3])
        x = np.array([1.0, 2.0, -1.0])
        assert residual_error(h, w, 2.0 * x) == pytest.approx(
            2.0 * residual_error(h, w, x), rel=1e-15)

    def test_projected_zero_at_match(self):
        h = generate_sparse(8, 2, 1)
        assert oracle_delta_projected(h, h.taps, np.ones(8)) == 0.0

    def test_projected_hand_value(self):
        got = oracle_delta_projected([1.0, 0.0], [0.5, 0.0], [2.0, 3.0])
        assert got == pytest.approx(2.0 / 13.0)

    def test_projected_zero_regressor(self):
        assert oracle_delta_projected([1.0, 0.0], [0.5, 0.0], [0.0, 0.0]) == 0.0

    def test_l1_distance_values(self):
        assert oracle_delta_l1([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert oracle_delta_l1([1.0, 0.0], [0.0, 0.0]) == 0.5
        # equal l1 norms hide a real mismatch; the proxy is blind to it
        assert oracle_delta_l1([1.0, 0.0], [0.5, 0.5]) == 0.0


class TestNoiseFreeEquivalence:
    def test_observable_delta_equals_oracle(self):
        # noise-free: the filter error equals the true residual, so the
        # observable estimate must reproduce the oracle at every sample
        L, K, N, mu = 64, 4, 400, 0.005
        ch = generate_sparse(L, K, 7)
        input_seed, noise_seed = derive_stream_seeds(0)
        x = generate_input(N, input_seed)
        des = synthesize_desired(x, [(0, N, ch.taps)], math.inf, noise_seed)
        xp = np.concatenate([np.zeros(L - 1), x])
        w = np.zeros(L)
        ctl = make_controller("proposed_l1", {"alpha": 0.05, "gamma": 1e-3,
                                              "kappa_max": mu}, mu)
        for n in range(N):
            r = xp[n:n + L][::-1]
            e = predict_error(w, r, des.d[n])
            observable = proposed_l1_delta(e, r, w)
            truth = oracle_delta_projected(ch, w, r)
            if truth == 0.0:
                assert observable == 0.0
            else:
                assert abs(observable - truth) / truth <= 1e-12
            _, _, w = step(w, r, des.d[n], mu, ctl)


class TestRecoveryTime:
    def test_immediate_recovery(self):
        mis = [-30.0] * 200 + [-29.5] * 200
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=200) == 0

    def test_never_recovered(self):
        mis = [-30.0] * 200 + [0.0] * 200
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=200) is None

    def test_hand_built_crossing(self):
        mis = [-30.0] * 2000 + [-10.0] * 1234 + [-28.0] * 800
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=2000) == 1234

    def test_short_dips_do_not_count(self):
        # a 50-sample dip below threshold is not a recovery; the real one
        # starts at relative index 300
        mis = [-30.0] * 500 + [-10.0] * 100 + [-29.0] * 50 + [-10.0] * 150 \
            + [-29.0] * 400
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=500) == 300

    def test_respects_recorded_indices(self):
        mis = [-30.0] * 100 + [-10.0] * 10 + [-29.0] * 200
        trace = make_trace(mis, step_n=5)  # record_every=5 style trace
        assert recovery_time(trace, change_at=500) == 50

    @pytest.mark.parametrize("every", [1, 10, 20])
    def test_hold_counts_samples_not_rows(self, every):
        # 100 post-change rows at record_every=10 still hold for 100 samples
        cfg = small_config(
            L=8, N=2000, mu=0.05, change_at=1000, record_every=every,
            channel_before=ChannelSpec(kind="sparse", active_count=2, seed=3),
            channel_after=ChannelSpec(kind="sparse", active_count=2, seed=4),
            seeds=[1, 2])
        agg = aggregate(cfg, run_all(cfg, max_workers=1))[0]
        assert agg.not_recovered == 0
        assert None not in agg.recovery_times
        if every == 1:
            assert agg.mean_recovery_time == 63.5

    def test_hold_must_be_covered_by_the_rows(self):
        # recovered from n=550 on, but the rows end before n=650
        trace = make_trace([-30.0] * 100 + [-10.0] * 10 + [-29.0] * 19,
                           step_n=5)
        assert recovery_time(trace, change_at=500) is None
        trace = make_trace([-30.0] * 100 + [-10.0] * 10 + [-29.0] * 20,
                           step_n=5)
        assert recovery_time(trace, change_at=500) == 50

    def test_missing_change_rejected(self):
        trace = make_trace([-30.0] * 100)
        with pytest.raises(ValueError):
            recovery_time(trace, None)
        with pytest.raises(ValueError):
            recovery_time(trace, 100)  # nothing recorded after change


def same_bits(a, b) -> bool:
    """Equal values of equal types; floats and arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and \
            a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


class TestAggregation:
    @pytest.mark.parametrize("mu, record_every, change_at", [
        (0.01, 1, 300),  # some runs never recover
        (0.01, 3, 300),
        (1.0, 3, 300),  # one run of each algorithm diverges
        (0.01, 4, None),
    ])
    def test_the_block_equals_the_per_trace_reference(self, mu, record_every,
                                                      change_at):
        # "wild" diverges on every seed: an algorithm with no included run
        wild = AlgorithmConfig("wild", "fixed_zap", {"kappa0": 1e308})
        cfg = grid(mu=mu, N=600, change_at=change_at, seeds=[1, 2, 3, 4],
                   record_every=record_every, algorithms=ALL_KINDS + [wild],
                   channel_after=None if change_at is None else ChannelSpec(
                       kind="sparse", active_count=4, seed=33))
        traces = run_all(cfg, max_workers=1)
        got, want = aggregate(cfg, traces), aggregate_per_trace(cfg, traces)
        assert [a.name for a in got] == [a.name for a in want]
        for block, per_trace in zip(got, want):
            for f in dataclasses.fields(AlgorithmAggregate):
                assert same_bits(getattr(block, f.name),
                                 getattr(per_trace, f.name)), (block.name,
                                                               f.name)
        if change_at is not None:
            for trace in (t for t in traces if t.diverged_at is None):
                assert same_bits(recovery_time(trace, change_at),
                                 oracles.recovery_time(trace, change_at))
        # the cases the parameters promise
        included = [a for a in got if a.name != "wild"]
        assert [len(a.diverged) for a in got][-1] == 4
        if mu == 1.0:
            assert all(len(a.diverged) == 1 for a in included)
        elif change_at is not None:
            assert 0 < sum(a.not_recovered for a in included) < sum(
                len(a.recovery_times) for a in included)
    def test_single_seed_equals_run(self):
        cfg = small_config(seeds=[5])
        traces = run_all(cfg, max_workers=1)
        aggs = aggregate(cfg, traces)
        assert np.array_equal(aggs[0].mean_misalignment_db,
                              traces[0].column("misalignment_db"))

    def test_duplicate_seeds_equal_single(self):
        # a config rejects a repeated seed, so repeat the run by hand
        cfg_one = small_config(seeds=[7])
        traces = run_all(cfg_one, max_workers=1)
        agg_two = aggregate(cfg_one, traces + traces)
        agg_one = aggregate(cfg_one, traces)
        assert np.array_equal(agg_two[0].mean_misalignment_db,
                              agg_one[0].mean_misalignment_db)

    def test_hand_built_mean(self):
        cfg = small_config(seeds=[0, 1], N=3)
        traces = [make_trace([0.0, 0.0, 0.0], algorithm="lms", seed=0),
                  make_trace([2.0, 2.0, 2.0], algorithm="lms", seed=1)]
        aggs = aggregate(cfg, traces)
        assert np.array_equal(aggs[0].mean_misalignment_db, [1.0, 1.0, 1.0])

    def test_seed_permutation_commutes(self):
        cfg_a = small_config(seeds=[3, 5])
        cfg_b = small_config(seeds=[5, 3])
        agg_a = aggregate(cfg_a, run_all(cfg_a, max_workers=1))
        agg_b = aggregate(cfg_b, run_all(cfg_b, max_workers=1))
        assert np.array_equal(agg_a[0].mean_misalignment_db,
                              agg_b[0].mean_misalignment_db)

    def test_diverged_runs_excluded_and_flagged(self):
        cfg = small_config(N=50)
        good = make_trace([-1.0] * 50, algorithm="lms", seed=1)
        bad = RunTrace(algorithm="lms", seed=2, samples=good.samples[:10],
                       final_misalignment_db=-1.0, diverged_at=10)
        aggs = aggregate(cfg, [good, bad])
        assert aggs[0].included_seeds == [1]
        assert aggs[0].diverged == [(2, 10)]
        assert np.array_equal(aggs[0].mean_misalignment_db,
                              good.column("misalignment_db"))

    def test_floor_covers_whole_run_without_change(self):
        cfg = small_config(
            algorithms=[AlgorithmConfig("zap", "fixed_zap", {"kappa0": 1e-3})],
            seeds=[1, 2])
        traces = run_all(cfg, max_workers=1)
        agg = aggregate(cfg, traces)[0]
        for field, value in (("misalignment_db", agg.floor_db),
                             ("kappa", agg.floor_kappa),
                             ("sign_agreement", agg.floor_sign_agreement)):
            # the last 10% of 200 rows
            assert value == np.mean([np.mean(t.column(field)[-20:])
                                     for t in traces])
        assert agg.max_kappa == 1e-3
        assert agg.recovery_times == [] and agg.not_recovered == 0

    def test_all_diverged_fields_are_nan(self):
        cfg = small_config(mu=50.0, N=300, seeds=[1, 2])
        agg = aggregate(cfg, run_all(cfg, max_workers=1))[0]
        assert [seed for seed, _ in agg.diverged] == [1, 2]
        assert agg.included_seeds == [] and agg.recovery_times == []
        for value in (agg.mean_final_misalignment_db, agg.floor_db,
                      agg.floor_kappa, agg.floor_sign_agreement,
                      agg.max_kappa):
            assert math.isnan(value)

    def test_compare_orders_algorithms_like_config(self):
        cfg = small_config(
            algorithms=[AlgorithmConfig("b", "lms"),
                        AlgorithmConfig("a", "fixed_zap", {"kappa0": 1e-5})],
            seeds=[1, 2])
        aggs = aggregate(cfg, run_all(cfg, max_workers=1))
        assert [a.name for a in aggs] == ["b", "a"]

    def test_recovery_aggregation(self):
        cfg = small_config(
            N=2000, change_at=1000,
            channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33),
            seeds=[1, 2])
        aggs = aggregate(cfg, run_all(cfg, max_workers=1))
        assert aggs[0].mean_recovery_time is not None
        assert aggs[0].not_recovered == 0


class TestParallelism:
    def test_env_capped_workers_match_serial(self, monkeypatch):
        # six seeds on two threads, each running several kernel calls, and
        # on more threads than this machine is likely to have cores, with
        # the interpreter switching threads as often as it can
        cfg = small_config(
            seeds=[1, 2, 3, 4, 5, 6], N=100,
            algorithms=[AlgorithmConfig("lms", "lms"),
                        AlgorithmConfig("pn", "proposed_norm",
                                        {"alpha": 0.05, "gamma": 0.5})])
        order = [(a.name, s) for a in cfg.algorithms for s in cfg.seeds]
        serial = run_all(cfg, max_workers=1)
        assert [(t.algorithm, t.seed) for t in serial] == order
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in ("2", "6"):
                monkeypatch.setenv("ZAPVSS_THREADS", threads)
                threaded = run_all(cfg)
                assert [(t.algorithm, t.seed) for t in threaded] == order
                for a, b in zip(serial, threaded):
                    assert a.samples.tobytes() == b.samples.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_a_failing_grid_leaves_no_thread_running(self, tmp_path):
        # the channel file changes length after the config was made: the
        # grid raises, and no thread outlives it
        path = tmp_path / "h.txt"
        save_channel(generate_sparse(16, 4, 21), path)
        cfg = small_config(seeds=[1, 2, 3, 4], N=50, channel_before=ChannelSpec(
            kind="file", path=str(path)))
        save_channel(generate_sparse(8, 4, 21), path)
        threads = threading.active_count()
        with pytest.raises(ConfigError, match="L=8"):
            run_all(cfg, max_workers=2)
        assert threading.active_count() == threads

    def test_a_kernel_failure_raises_and_joins_its_threads(self, monkeypatch):
        # on 2 threads the first of 4 seeds fails at once and the next two
        # hold both threads, so the fourth is still queued when the failure
        # is read: it must run all the same
        seed_of, ran = {}, []

        def recording(seed):
            seed_of[threading.get_ident()] = seed
            return derive_stream_seeds(seed)

        class FailingKernel:
            # the real echo: only the filter's call fails
            zap_echo = filtercore._library().zap_echo

            @staticmethod
            def zap_run(*args):
                seed = seed_of[threading.get_ident()]
                ran.append(seed)
                if seed in (2, 3):
                    time.sleep(0.3)
                return -1 if seed == 1 else 0

        monkeypatch.setattr(harness, "derive_stream_seeds", recording)
        monkeypatch.setattr(filtercore, "_kernel", FailingKernel())
        threads = threading.active_count()
        with pytest.raises(ConfigError, match="do not fit in memory"):
            run_all(small_config(seeds=[1, 2, 3, 4], N=50), max_workers=2)
        assert sorted(ran) == [1, 2, 3, 4]  # every call ran
        assert threading.active_count() == threads

    def test_streams_are_synthesized_on_the_kernel_threads(self, monkeypatch):
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return synthesize_desired(*args, **kwargs)

        monkeypatch.setattr(harness, "synthesize_desired", recording)
        run_all(small_config(seeds=[1, 2, 3, 4], N=50), max_workers=2)
        assert len(threads) == 4
        assert threading.get_ident() not in threads

    def test_a_synthesis_failure_raises_and_joins_its_threads(
            self, monkeypatch):
        # the second of three seeds fails in its synthesis; a seed not yet
        # started may be dropped, but no thread outlives the grid
        calls = itertools.count()

        def failing(*args, **kwargs):
            if next(calls) == 1:
                raise RuntimeError("synthesis failed")
            return synthesize_desired(*args, **kwargs)

        monkeypatch.setattr(harness, "synthesize_desired", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="synthesis failed"):
            run_all(small_config(seeds=[1, 2, 3], N=50), max_workers=2)
        assert threading.active_count() == threads

    def test_bad_env_value_rejected(self, monkeypatch):
        for value in ("lots", "0", "-1"):
            monkeypatch.setenv("ZAPVSS_THREADS", value)
            with pytest.raises(ValueError, match="ZAPVSS_THREADS"):
                run_all(small_config(N=10))


class TestStreamSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_stream_seeds(1)
        assert a == derive_stream_seeds(1)
        assert a[0] != a[1]
        assert derive_stream_seeds(2) != a
