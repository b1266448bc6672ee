import math

import numpy as np
import pytest

from zapvss.channel import generate_sparse
from zapvss.filtercore import DivergenceError, predict_error, step
from oracles import (oracle_delta_l1, oracle_delta_projected,
                     proposed_l1_delta, residual_error)
from zapvss.harness import (AlgorithmConfig, ChannelSpec, RunTrace,
                            ScenarioConfig, aggregate, build_schedule, compare,
                            derive_stream_seeds, recovery_time, run_all,
                            run_scenario)
from zapvss.metrics import SAMPLE_DTYPE
from zapvss.signal import ChannelSchedule, generate_input, synthesize_desired
from zapvss.stepsize import make_controller


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
        sched = build_schedule(cfg)
        assert sched.L == 16

    def test_file_channel_length_mismatch(self, tmp_path):
        from zapvss.channel import save_channel
        path = tmp_path / "h.txt"
        save_channel(generate_sparse(8, 2, 21), path)
        cfg = small_config(
            channel_before=ChannelSpec(kind="file", path=str(path)))
        with pytest.raises(ValueError, match="L=8"):
            build_schedule(cfg)


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
        assert np.array_equal(a.misalignment_curve(), b.misalignment_curve())
        assert np.array_equal(a.kappa_curve(), b.kappa_curve())

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
        schedule = build_schedule(cfg)
        input_seed, noise_seed = derive_stream_seeds(4)
        x = generate_input(cfg.N, input_seed)
        des = synthesize_desired(x, schedule, cfg.snr_db, noise_seed)
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
            kappas = trace.kappa_curve()
            assert np.all(kappas >= 0.0)
            assert np.all(np.isfinite(kappas))
            assert trace.diverged_at is None

    def test_misalignment_tracks_active_channel(self):
        cfg = small_config(
            N=400, snr_db=math.inf, mu=0.05,
            change_at=200,
            channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33))
        trace = run_scenario(cfg, "lms", 1)
        curve = trace.misalignment_curve()
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
        sched = ChannelSchedule(((0, ch),))
        input_seed, noise_seed = derive_stream_seeds(0)
        x = generate_input(N, input_seed)
        des = synthesize_desired(x, sched, math.inf, noise_seed)
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
        assert recovery_time(trace, change_at=200, margin_db=3.0) == 0

    def test_never_recovered(self):
        mis = [-30.0] * 200 + [0.0] * 200
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=200, margin_db=3.0) is None

    def test_hand_built_crossing(self):
        mis = [-30.0] * 2000 + [-10.0] * 1234 + [-28.0] * 800
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=2000, margin_db=3.0) == 1234

    def test_short_dips_do_not_count(self):
        # a 50-sample dip below threshold is not a recovery; the real one
        # starts at relative index 300
        mis = [-30.0] * 500 + [-10.0] * 100 + [-29.0] * 50 + [-10.0] * 150 \
            + [-29.0] * 400
        trace = make_trace(mis)
        assert recovery_time(trace, change_at=500, margin_db=3.0) == 300

    def test_respects_recorded_indices(self):
        mis = [-30.0] * 100 + [-10.0] * 10 + [-29.0] * 200
        trace = make_trace(mis, step_n=5)  # record_every=5 style trace
        assert recovery_time(trace, change_at=500, margin_db=3.0) == 50

    @pytest.mark.parametrize("every", [1, 10, 20])
    def test_hold_counts_samples_not_rows(self, every):
        # 100 post-change rows at record_every=10 still hold for 100 samples
        cfg = small_config(
            L=8, N=2000, mu=0.05, change_at=1000, record_every=every,
            channel_before=ChannelSpec(kind="sparse", active_count=2, seed=3),
            channel_after=ChannelSpec(kind="sparse", active_count=2, seed=4),
            seeds=[1, 2])
        agg = compare(cfg, max_workers=1)[0]
        assert agg.not_recovered == 0
        assert None not in agg.recovery_times
        if every == 1:
            assert agg.mean_recovery_time == 63.5

    def test_hold_must_be_covered_by_the_rows(self):
        # recovered from n=550 on, but the rows end before n=650
        trace = make_trace([-30.0] * 100 + [-10.0] * 10 + [-29.0] * 19,
                           step_n=5)
        assert recovery_time(trace, change_at=500, margin_db=3.0) is None
        trace = make_trace([-30.0] * 100 + [-10.0] * 10 + [-29.0] * 20,
                           step_n=5)
        assert recovery_time(trace, change_at=500, margin_db=3.0) == 50

    def test_missing_change_rejected(self):
        trace = make_trace([-30.0] * 100)
        with pytest.raises(ValueError):
            recovery_time(trace, None, 3.0)
        with pytest.raises(ValueError):
            recovery_time(trace, 100, 3.0)  # nothing recorded after change

    @pytest.mark.parametrize("margin", [0.0, -1.0, math.nan])
    def test_margin_must_be_positive(self, margin):
        trace = make_trace([-30.0] * 200)
        with pytest.raises(ValueError, match="margin_db"):
            recovery_time(trace, 100, margin_db=margin)


class TestAggregation:
    def test_single_seed_equals_run(self):
        cfg = small_config(seeds=[5])
        traces = run_all(cfg, max_workers=1)
        aggs = aggregate(cfg, traces)
        assert np.array_equal(aggs[0].mean_misalignment_db,
                              traces[0].misalignment_curve())

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
                              good.misalignment_curve())

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
        aggs = compare(cfg, max_workers=1)
        assert [a.name for a in aggs] == ["b", "a"]

    def test_recovery_aggregation(self):
        cfg = small_config(
            N=2000, change_at=1000,
            channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33),
            seeds=[1, 2])
        aggs = compare(cfg, margin_db=3.0, max_workers=1)
        assert aggs[0].mean_recovery_time is not None
        assert aggs[0].not_recovered == 0


class TestParallelism:
    def test_env_capped_workers_match_serial(self, monkeypatch):
        # two chunks of three seeds: a chunk boundary falls mid-grid
        cfg = small_config(
            seeds=[1, 2, 3, 4, 5, 6], N=100,
            algorithms=[AlgorithmConfig("lms", "lms"),
                        AlgorithmConfig("pn", "proposed_norm",
                                        {"alpha": 0.05, "gamma": 0.5})])
        serial = run_all(cfg, max_workers=1)
        monkeypatch.setenv("ZAPVSS_THREADS", "2")
        pooled = run_all(cfg)
        assert [(t.algorithm, t.seed) for t in pooled] == \
            [(a.name, s) for a in cfg.algorithms for s in cfg.seeds]
        assert [(t.algorithm, t.seed) for t in pooled] == \
            [(t.algorithm, t.seed) for t in serial]
        for a, b in zip(serial, pooled):
            assert a.samples.tobytes() == b.samples.tobytes()

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
