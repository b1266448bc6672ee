"""The batched grid engine against the scalar ``run_scenario`` reference,
and the invariance of its output under chunking and seed order."""

import copy
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from zapvss.cli import emit_csv
from zapvss.harness import (AlgorithmConfig, ChannelSpec, RunTrace,
                            ScenarioConfig, aggregate, recovery_time, run_all,
                            run_scenario, run_seeds)
from zapvss.metrics import MetricSample

MIS_TOL_DB = 1e-9
# kappa, error and smoothed MSE: relative, with an absolute floor for
# values that cross zero; measured differences stay below 1e-11
REL_TOL = 1e-9
ABS_TOL = 1e-12

ALL_KINDS = [
    AlgorithmConfig("lms", "lms"),
    AlgorithmConfig("zap", "fixed_zap", {"kappa0": 1e-4}),
    AlgorithmConfig("you", "you", {"kappa0": 1e-3, "eta": 0.5,
                                   "kappa_min": 1e-5, "window": 50,
                                   "cooldown": 50}),
    AlgorithmConfig("liu", "liu", {"lambda": 0.05, "alpha": 0.05,
                                   "gamma": 1e-3}),
    AlgorithmConfig("liu_l1", "liu", {"lambda": 0.05, "alpha": 0.05,
                                      "gamma": 1e-3, "measure": "l1"}),
    AlgorithmConfig("pl1", "proposed_l1", {"alpha": 0.05, "gamma": 1e-2}),
    AlgorithmConfig("pn", "proposed_norm", {"alpha": 0.05, "gamma": 0.5}),
]


def grid(**overrides):
    base = dict(
        L=16, N=400, snr_db=30.0, mu=0.01,
        channel_before=ChannelSpec(kind="sparse", active_count=4, seed=21),
        channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33),
        change_at=200, algorithms=ALL_KINDS, seeds=[1, 2, 3])
    base.update(overrides)
    return ScenarioConfig(**base)


def assert_matches_scalar(cfg, trace):
    ref = run_scenario(cfg, trace.algorithm, trace.seed)
    assert trace.diverged_at == ref.diverged_at
    assert len(trace.samples) == len(ref.samples)
    assert np.array_equal(trace.sample_indices(), ref.sample_indices())
    np.testing.assert_allclose(trace.misalignment_curve(),
                               ref.misalignment_curve(),
                               rtol=0.0, atol=MIS_TOL_DB)
    for name in ("kappa", "error", "smoothed_mse"):
        np.testing.assert_allclose(trace.column(name), ref.column(name),
                                   rtol=REL_TOL, atol=ABS_TOL, err_msg=name)
    np.testing.assert_array_equal(trace.column("sign_agreement"),
                                  ref.column("sign_agreement"))
    np.testing.assert_allclose(trace.final_misalignment_db,
                               ref.final_misalignment_db,
                               rtol=0.0, atol=MIS_TOL_DB)


def trace_key(traces):
    return [(t.algorithm, t.seed, t.diverged_at, t.samples.tobytes())
            for t in traces]


class TestAgainstScalar:
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_all_kinds_with_path_change(self, record_every):
        cfg = grid(record_every=record_every)
        for trace in run_all(cfg, max_workers=1):
            assert_matches_scalar(cfg, trace)

    def test_dispersive_path_and_noise_free(self):
        cfg = grid(snr_db=math.inf, mu=0.02,
                   channel_before=ChannelSpec(kind="dispersive", seed=3),
                   channel_after=ChannelSpec(kind="dispersive", seed=4,
                                             decay=2.0))
        for trace in run_all(cfg, max_workers=1):
            assert_matches_scalar(cfg, trace)

    def test_diverging_row_stops_where_scalar_stops(self):
        # at mu=2.5 seed 4 diverges inside the run and seeds 1 and 2 do not
        cfg = grid(mu=2.5, seeds=[1, 2, 4], record_every=3)
        traces = run_all(cfg, max_workers=1)
        stopped = {t.seed for t in traces if t.diverged_at is not None}
        assert stopped == {4}
        for trace in traces:
            assert_matches_scalar(cfg, trace)
        # the rows that did not diverge are bit for bit those of a batch
        # without the diverging seed
        alone = [t for runs in run_seeds(cfg, [1, 2]) for t in runs]
        kept = [t for t in traces if t.seed != 4]
        assert trace_key(alone) == trace_key(kept)

    def test_every_row_diverged(self):
        cfg = grid(mu=10.0, algorithms=ALL_KINDS[:2])
        traces = run_all(cfg, max_workers=1)
        assert all(t.diverged_at is not None for t in traces)
        for trace in traces:
            assert_matches_scalar(cfg, trace)


class TestInvariance:
    def test_worker_count_and_seed_order(self):
        cfg = grid(seeds=[1, 2, 3, 4, 5], mu=2.5)
        serial = trace_key(run_all(cfg, max_workers=1))
        for workers in (2, 3):
            assert trace_key(run_all(cfg, max_workers=workers)) == serial
        shuffled = copy.deepcopy(cfg)
        shuffled.seeds = [4, 2, 5, 1, 3]
        by_run = {k[:2]: k for k in serial}
        for workers in (1, 2):
            got = trace_key(run_all(shuffled, max_workers=workers))
            assert [k[:2] for k in got] == [(a.name, s) for a in cfg.algorithms
                                            for s in shuffled.seeds]
            assert all(k == by_run[k[:2]] for k in got)

    def test_single_seed_batches(self):
        cfg = grid(L=17, N=301, seeds=[3, 1])
        together = trace_key(run_all(cfg, max_workers=1))
        apart = {}
        for seed in cfg.seeds:
            for runs in run_seeds(cfg, [seed]):
                for k in trace_key(runs):
                    apart[k[:2]] = k
        assert together == [apart[k[:2]] for k in together]


class TestColumnarTrace:
    def test_record_array_fields(self):
        cfg = grid(N=50, change_at=25, algorithms=ALL_KINDS[:1], seeds=[1])
        trace = run_all(cfg, max_workers=1)[0]
        assert trace.samples.dtype.names == (
            "n", "misalignment_db", "kappa", "error", "sign_agreement",
            "smoothed_mse")
        assert trace.samples[3].n == 3
        assert trace.final_misalignment_db == trace.samples.misalignment_db[-1]

    def test_csv_text_matches_row_objects(self):
        trace = run_all(grid(N=60, change_at=30, seeds=[2]),
                        max_workers=1)[4]
        rows = [MetricSample(*r) for r in trace.samples.tolist()]
        as_rows = RunTrace(trace.algorithm, trace.seed, rows,
                           trace.final_misalignment_db)
        a, b = io.StringIO(), io.StringIO()
        emit_csv([trace], a, scenario="s")
        emit_csv([as_rows], b, scenario="s")
        assert a.getvalue() == b.getvalue()

    def test_recovery_from_plain_rows(self):
        cfg = grid(N=2000, change_at=1000, algorithms=ALL_KINDS[:1],
                   seeds=[1])
        trace = run_all(cfg, max_workers=1)[0]
        rows = [SimpleNamespace(n=int(n), misalignment_db=float(m))
                for n, m in zip(trace.samples.n, trace.samples.misalignment_db)]
        plain = RunTrace(trace.algorithm, trace.seed, rows,
                         rows[-1].misalignment_db)
        assert recovery_time(plain, 1000) == recovery_time(trace, 1000)
        assert recovery_time(trace, 1000) is not None
        agg_cols = aggregate(cfg, [trace])[0]
        agg_rows = aggregate(cfg, [plain])[0]
        assert np.array_equal(agg_cols.mean_misalignment_db,
                              agg_rows.mean_misalignment_db)
