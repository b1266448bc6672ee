"""The batched grid engine against the scalar ``run_scenario`` reference,
and the invariance of its output under chunking and seed order. The tests
of the numpy engine's own divergence rest and reductions run the numpy
reference, ``oracles.numpy_run_all``."""

import copy
import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import numpy_run_all, run_scenario
from zapvss.cli import emit_csv
from zapvss.filtercore import SAMPLE_DTYPE
from zapvss.harness import (AlgorithmConfig, ChannelSpec, RunTrace,
                            ScenarioConfig, aggregate, recovery_time, run_all)

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
    assert np.array_equal(trace.column("n"), ref.column("n"))
    np.testing.assert_allclose(trace.column("misalignment_db"),
                               ref.column("misalignment_db"),
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
        alone = run_all(dataclasses.replace(cfg, seeds=[1, 2]))
        kept = [t for t in traces if t.seed != 4]
        assert trace_key(alone) == trace_key(kept)

    def test_every_row_diverged(self):
        cfg = grid(mu=10.0, algorithms=ALL_KINDS[:2])
        traces = run_all(cfg, max_workers=1)
        assert all(t.diverged_at is not None for t in traces)
        for trace in traces:
            assert_matches_scalar(cfg, trace)

    def test_a_stopped_row_rests(self, monkeypatch):
        # in the numpy engine a stopped row rests at zero weights with a
        # finite error, so the divergence check calls for it no more: one
        # call per stop and one closing call per seed's sequence
        calls = []
        stop = oracles._stop_diverged
        monkeypatch.setattr(oracles, "_stop_diverged",
                            lambda *args: calls.append(stop(*args)))
        cfg = grid(mu=10.0, algorithms=ALL_KINDS[:2])
        traces = numpy_run_all(cfg)
        assert all(t.diverged_at is not None for t in traces)
        assert len(calls) <= len(traces) + len(cfg.seeds)

    def test_a_row_diverging_alone_leaves_its_seed_clean(self):
        # kappa0=1e308 overflows only its own rows; their NaN signs must
        # not reach the other rows of the seed through the shared product
        wild = AlgorithmConfig("wild", "fixed_zap", {"kappa0": 1e308})
        cfg = grid(algorithms=[LMS, ZAP, wild, PN], seeds=[1, 2],
                   record_every=3)
        traces = run_all(cfg, max_workers=1)
        assert [t.diverged_at for t in traces] == (
            [None] * 4 + [6, 20] + [None] * 2)
        for trace in traces:
            assert_matches_scalar(cfg, trace)
        without = run_all(grid(algorithms=[LMS, ZAP, PN], seeds=[1, 2],
                               record_every=3), max_workers=1)
        assert trace_key(without) == trace_key(
            [t for t in traces if t.algorithm != "wild"])


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
            for k in trace_key(run_all(dataclasses.replace(cfg, seeds=[seed]))):
                apart[k[:2]] = k
        assert together == [apart[k[:2]] for k in together]


LMS = AlgorithmConfig("lms", "lms")
ZAP = AlgorithmConfig("zap", "fixed_zap", {"kappa0": 1e-4})
ZAP0 = AlgorithmConfig("zap0", "fixed_zap", {"kappa0": 0.0})
PN = AlgorithmConfig("pn", "proposed_norm", {"alpha": 0.05, "gamma": 0.5})


class TestAlgorithmOrder:
    """Of the rows that never attract, lms runs no attractor and fixed_zap
    with kappa0=0 one that subtracts +-0.0, which changes no weight's bits;
    no trace may tell them apart, nor the order of the algorithms."""

    @pytest.mark.parametrize("orders", [
        ([LMS, ZAP, ZAP0, PN], [PN, LMS, ZAP0, ZAP]),
        ([LMS, ZAP0], [ZAP0, LMS]),  # only rows that never attract
        ([ZAP, PN], [PN, ZAP]),  # none
    ], ids=["mixed", "never", "always"])
    def test_order_does_not_change_any_trace(self, orders):
        by_order = []
        for algorithms in orders:
            traces = run_all(grid(algorithms=algorithms, record_every=3),
                             max_workers=1)
            assert [t.algorithm for t in traces] == [
                a.name for a in algorithms for _ in range(3)]
            by_order.append(sorted(trace_key(traces)))
        assert by_order[0] == by_order[1]

    def test_rows_that_never_attract_record_their_signs(self):
        # you with kappa0=0 keeps kappa at 0 among the attracting rows,
        # so its trace is lms's to the bit
        still = AlgorithmConfig("still", "you", {"kappa0": 0.0, "eta": 0.5,
                                                 "kappa_min": 1e-5})
        traces = run_all(grid(algorithms=[LMS, ZAP0, still], record_every=3),
                         max_workers=1)
        lms, zap0, twin = traces[:3], traces[3:6], traces[6:]
        for runs in (zap0, twin):
            assert [t.samples.tobytes() for t in runs] == [
                t.samples.tobytes() for t in lms]


class TestGridComposition:
    """No trace may tell which rows share its sequence's kernel call."""

    @pytest.mark.parametrize("L", [16, 512, 2048])
    def test_trace_does_not_depend_on_the_other_algorithms(self, L):
        base = [LMS, ZAP, PN]
        more = base + [ALL_KINDS[2], ALL_KINDS[3], ALL_KINDS[5]]
        apart = trace_key(run_all(grid(L=L, algorithms=base), max_workers=1))
        together = trace_key(run_all(grid(L=L, algorithms=more),
                                     max_workers=1))
        assert together[:len(apart)] == apart
        for alg in (ZAP, PN):  # a lone row of C
            alone = trace_key(run_all(grid(L=L, algorithms=[alg]),
                                      max_workers=1))
            assert alone == [k for k in apart if k[0] == alg.name]


class TestReductions:
    def test_an_l1_liu_reads_no_w_dot_w(self, monkeypatch):
        # the xi measure reads w.w and the l1 measure does not: a grid
        # whose only reader of it is an l1 liu skips it every sample in
        # the numpy engine
        calls = []
        vecdot = np.vecdot
        monkeypatch.setattr(np, "vecdot",
                            lambda *a, **k: calls.append(1) or vecdot(*a, **k))

        def vecdots(algorithm):
            calls.clear()
            numpy_run_all(grid(N=50, change_at=25, algorithms=[algorithm],
                               seeds=[1]))
            return len(calls)

        assert vecdots(ALL_KINDS[3]) - vecdots(ALL_KINDS[4]) == 50


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
        rows = [SimpleNamespace(**dict(zip(SAMPLE_DTYPE.names, r)))
                for r in trace.samples.tolist()]
        as_rows = RunTrace(trace.algorithm, trace.seed, rows,
                           trace.final_misalignment_db)
        a, b = io.BytesIO(), io.BytesIO()
        emit_csv([trace], a, scenario="s")
        emit_csv([as_rows], b, scenario="s")
        assert a.getvalue() == b.getvalue()

    def test_recovery_from_plain_rows(self):
        cfg = grid(N=2000, change_at=1000, algorithms=ALL_KINDS[:1],
                   seeds=[1])
        trace = run_all(cfg, max_workers=1)[0]
        rows = [SimpleNamespace(**dict(zip(SAMPLE_DTYPE.names, r.tolist())))
                for r in trace.samples]
        plain = RunTrace(trace.algorithm, trace.seed, rows,
                         rows[-1].misalignment_db)
        assert recovery_time(plain, 1000) == recovery_time(trace, 1000)
        assert recovery_time(trace, 1000) is not None
        agg_cols = aggregate(cfg, [trace])[0]
        agg_rows = aggregate(cfg, [plain])[0]
        assert np.array_equal(agg_cols.mean_misalignment_db,
                              agg_rows.mean_misalignment_db)
