"""The compiled kernel against both references, and its build.

The kernel (``zapvss.filtercore.run_sequence``) is checked against the numpy
engine it replaced (``oracles.numpy_run_all``) and against the scalar
``oracles.run_scenario``, at the tolerances of ``test_batched``, over every
kind, filter lengths whose zero-padded tail vector falls into either of the
kernel's two accumulators or that have no tail, several ``record_every``
and runs that diverge, through an infinite error too, or from one infinite
or NaN sample of the input or the desired signal. Bit for bit it is
checked against ``oracles.fma_run``, exact arithmetic rounded once per
product-sum as the kernel rounds it, and against itself: built without
optimization for the compiler's default target, and recording every sample
against every third. The shipped build's assembly must fuse in vector
registers and, under AVX-512, take each product of signs as one
instruction, whose bits the default-target build's bit operations must
match on zeros, subnormals and infinite updates. Built with the undefined-behaviour sanitizer, it runs such grids
and the formatters' edge values without a report.
"""

import ctypes
import dataclasses
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fma_run, numpy_run_all, numpy_run_sequence, run_scenario
from test_batched import (ABS_TOL, ALL_KINDS, MIS_TOL_DB, REL_TOL,
                          assert_matches_scalar, grid, trace_key)
from zapvss import filtercore, harness
from zapvss.channel import generate_sparse
from zapvss.cli import main, parse_config
from zapvss.filtercore import SAMPLE_DTYPE
from zapvss.harness import ChannelSpec, recovery_time, run_all
from zapvss.signal import generate_input, synthesize_desired
from zapvss.stepsize import controller_params


def small_grid(L, **overrides):
    active = min(L - 1, 4)
    return grid(**{"L": L, "N": 240, "change_at": 120, "seeds": [1, 2],
                   "channel_before": ChannelSpec(
                       kind="sparse", active_count=active, seed=21),
                   "channel_after": ChannelSpec(
                       kind="sparse", active_count=active, seed=33),
                   **overrides})


def assert_matches_numpy(kernel, reference):
    assert [(t.algorithm, t.seed, t.diverged_at, len(t.samples))
            for t in kernel] == [(t.algorithm, t.seed, t.diverged_at,
                                  len(t.samples)) for t in reference]
    for got, want in zip(kernel, reference):
        assert np.array_equal(got.column("n"), want.column("n"))
        np.testing.assert_allclose(got.column("misalignment_db"),
                                   want.column("misalignment_db"),
                                   rtol=0.0, atol=MIS_TOL_DB)
        for name in ("kappa", "error", "smoothed_mse"):
            np.testing.assert_allclose(got.column(name), want.column(name),
                                       rtol=REL_TOL, atol=ABS_TOL,
                                       err_msg=name)
        np.testing.assert_array_equal(got.column("sign_agreement"),
                                      want.column("sign_agreement"))


@pytest.mark.parametrize("record_every", [1, 3, 7])
@pytest.mark.parametrize("L", [2, 3, 8, 12, 17, 25])
def test_every_kind_matches_both_references(L, record_every):
    cfg = small_grid(L, record_every=record_every)
    kernel = run_all(cfg, max_workers=1)
    assert {t.algorithm for t in kernel} == {a.name for a in ALL_KINDS}
    assert_matches_numpy(kernel, numpy_run_all(cfg))
    for trace in kernel:
        assert_matches_scalar(cfg, trace)
        assert recovery_time(trace, cfg.change_at) == recovery_time(
            run_scenario(cfg, trace.algorithm, trace.seed), cfg.change_at)


def test_rows_diverging_at_different_samples():
    # mu = 10 is 90 times the stability bound 2/(L+2) of L=16
    cfg = small_grid(16, mu=10.0, N=400, change_at=200, seeds=[1, 2, 3],
                     record_every=3)
    kernel = run_all(cfg, max_workers=1)
    stops = [t.diverged_at for t in kernel]
    assert None not in stops and len(set(stops)) == 3
    assert_matches_numpy(kernel, numpy_run_all(cfg))
    for trace in kernel:
        assert_matches_scalar(cfg, trace)


# at mu = 20 these rows diverge through an infinite error: the update
# after it makes a weight infinite
DIVERGING_KINDS = [a for a in ALL_KINDS if a.name in ("lms", "zap", "liu", "pn")]
DIVERGING_STOPS = {3: 275, 17: 213, 23: 199}


def diverging_grid(L):
    return small_grid(L, mu=20.0, N=3000, seeds=[1],
                      algorithms=DIVERGING_KINDS)


@pytest.mark.parametrize("L", sorted(DIVERGING_STOPS))
def test_an_infinite_update_leaves_the_padding_lanes_zero(L, monkeypatch):
    # L % 8 != 0: the tail runs in zero-padded lanes, whose update must
    # stay +0.0 when mu*e is infinite, not turn NaN
    cfg = diverging_grid(L)
    runs = []

    def keep_run(*args, **kwargs):
        runs.append(filtercore.run_sequence(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(harness, "run_sequence", keep_run)
    kernel = run_all(cfg, max_workers=1)
    assert [t.diverged_at for t in kernel] == [DIVERGING_STOPS[L]] * 4
    [(rec, stop_at)] = runs
    for row, stop in zip(rec, stop_at):
        # the record of the diverging update: an infinite distance
        assert row["misalignment_db"][stop] == math.inf
    assert_matches_numpy(kernel, numpy_run_all(cfg))
    for trace in kernel:
        assert_matches_scalar(cfg, trace)


@given(st.integers(1, 80), st.integers(2, 20), st.integers(1, 3),
       st.sampled_from([math.inf, -math.inf, math.nan]), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_a_non_finite_input_stops_where_the_numpy_reference_stops(
        N, L, every, bad, in_x, at_zero, seed, data):
    # one inf or NaN in x or d, at sample 0 in half of the draws: a row
    # starts from the sums of zero weights, so no non-finite x(0) reaches
    # them before the update of sample 0 takes it in
    rng = np.random.default_rng(seed)
    h = generate_sparse(L, data.draw(st.integers(1, min(L, 4))), seed).taps
    x = rng.standard_normal(N)
    d = np.convolve(x, h)[:N] + 0.01 * rng.standard_normal(N)
    at = 0 if at_zero else data.draw(st.integers(0, N - 1))
    (x if in_x else d)[at] = bad
    mu = 0.01
    args = (x, d, [(0, N, h)], mu,
            [(a.kind, controller_params(a.kind, a.params, mu))
             for a in ALL_KINDS], every)
    rec, stop_at = filtercore.run_sequence(*args)
    want, want_stop = numpy_run_sequence(*args)
    assert stop_at.tolist() == want_stop.tolist()
    if in_x and at == 0:
        assert stop_at.tolist() == [0] * len(ALL_KINDS)
    for got, ref, stop in zip(rec, want, stop_at):
        got, ref = got[got["n"] < stop], ref[ref["n"] < stop]
        np.testing.assert_allclose(got["misalignment_db"],
                                   ref["misalignment_db"], rtol=0.0,
                                   atol=MIS_TOL_DB)
        for name in ("kappa", "error", "smoothed_mse"):
            np.testing.assert_allclose(got[name], ref[name], rtol=REL_TOL,
                                       atol=ABS_TOL, err_msg=name)
        np.testing.assert_array_equal(got["sign_agreement"],
                                      ref["sign_agreement"])


def test_a_trace_does_not_depend_on_its_batch():
    # seed 4 diverges at this mu; the others do not
    cfg = grid(mu=2.5, seeds=[1, 2, 4], record_every=3)
    together = run_all(cfg)
    for seed in cfg.seeds:
        alone = run_all(dataclasses.replace(cfg, seeds=[seed]))
        assert trace_key(alone) == trace_key(
            [t for t in together if t.seed == seed])


def built(flags, cache, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(filtercore, "CFLAGS", (*flags, "-fPIC", "-shared"))
        return filtercore.load(filtercore.build(caches=[cache]))


def test_records_do_not_depend_on_the_flags(tmp_path, monkeypatch):
    # no optimization and the compiler's default target: no vector unit
    # wider than the ABI's, nothing inlined. Against it the shipped build
    # and, where the CPU runs it, an AVX2 build: the step's selects take
    # mask registers under AVX-512 and ANDs and blends under AVX2
    plain = built(("-O0", "-ffp-contract=off"), tmp_path, monkeypatch)
    optimized = [filtercore._library()]
    if (platform.machine() in ("x86_64", "AMD64")
            and "avx2" in filtercore._cpu_flags().split()):
        optimized.append(built(("-O3", "-march=x86-64-v3", "-ffp-contract=off"),
                               tmp_path, monkeypatch))
    # L = 12 and 25 put the tail in the second accumulator
    for L in (3, 12, 17, 25, 64):
        for record_every in (1, 3):
            cfg = small_grid(L, record_every=record_every)
            monkeypatch.setattr(filtercore, "_kernel", plain)
            want = trace_key(run_all(cfg, max_workers=1))
            for library in optimized:
                monkeypatch.setattr(filtercore, "_kernel", library)
                assert trace_key(run_all(cfg, max_workers=1)) == want


def zeros_and_subnormals(L):
    """The arguments of run_sequence for every kind, recording every
    sample, on an input of exact zeros, -0.0 and subnormals whose first
    weights are subnormal, and a path whose taps have both signs, zeros and
    subnormals, and change at a span."""
    rng = np.random.default_rng(5)
    N = 600
    tiny = np.array([5e-324, -5e-324, 2.5e-310, -1e-315])
    x = rng.standard_normal(N)
    x[:40] = 0.0
    x[8:40:2] = np.resize(tiny, 16)  # the first weights are subnormal
    x[40::6] = 0.0
    x[43::11] = -0.0
    x[45::13] = np.resize(tiny, x[45::13].size)
    before = np.zeros(L)
    before[::3] = rng.standard_normal(before[::3].size)
    before[1::3] = -np.abs(rng.standard_normal(before[1::3].size))
    # the least subnormal taps: w * h underflows to 0 for every |w| < 0.5
    before[5::9] = 5e-324
    before[8::9] = -5e-324
    after = -before[::-1]
    spans = [(0, N // 2, before), (N // 2, N, after)]
    d = synthesize_desired(x, spans, 30.0, 7).d
    mu = 0.01
    ctls = [(a.kind, controller_params(a.kind, a.params, mu))
            for a in ALL_KINDS]
    return x, d, spans, mu, ctls, 1


@pytest.mark.parametrize("L", [17, 64])
def test_sign_tests_on_zeros_and_subnormals(L):
    # the step's products of signs are bit operations or, under AVX-512,
    # one instruction each: on exact zeros, subnormal inputs and weights,
    # and a path whose taps have both signs, zeros and subnormals (and
    # change at a span), every kind must count and stop as the products do
    args = zeros_and_subnormals(L)
    N = args[0].size
    rec, stop_at = filtercore.run_sequence(*args)
    want, want_stop = numpy_run_sequence(*args)
    assert stop_at.tolist() == want_stop.tolist() == [N] * len(ALL_KINDS)
    np.testing.assert_array_equal(rec["sign_agreement"],
                                  want["sign_agreement"])
    # the weights learn each span's signs
    assert (rec["sign_agreement"][:, [N // 2 - 1, N - 1]] > 0.5).all()
    np.testing.assert_allclose(rec["misalignment_db"], want["misalignment_db"],
                               rtol=0.0, atol=MIS_TOL_DB)
    for name in ("kappa", "error", "smoothed_mse"):
        np.testing.assert_allclose(rec[name], want[name], rtol=REL_TOL,
                                   atol=ABS_TOL, err_msg=name)


def test_the_avx512_sign_forms_give_the_generic_bits(tmp_path, monkeypatch):
    # under AVX-512 the shipped build takes each product of signs of the
    # step as vfixupimmpd or a masked add, and a pass that records nothing
    # and sums x.w alone rotates x(n)'s vectors into x(n+1)'s; the -O0
    # build for the compiler's default target takes the generic loads and
    # bit operations. Both write the attractor as one FMA of -kappa and
    # sign(w), and a kappa of -0.0 is the one input where that could move
    # a zero weight's sign.
    # On zeros, -0.0 and subnormals, and on rows whose update turns
    # infinite, recording every sample, every third and sample 0 only,
    # every record and stop of every kind, and of a kappa of -0.0, must be
    # the same bytes. L = 2 and 7 are a tail alone, 8 a lone vector, 9 and
    # 17 a vector and a tail, 16 and 64 pairs, 24 a pair and a lone vector,
    # 25 all three
    plain = built(("-O0", "-ffp-contract=off"), tmp_path, monkeypatch)
    negative_zero = ("fixed_zap", {"kappa0": -0.0})
    for L in (2, 7, 8, 9, 16, 17, 24, 25, 64):
        cfg = small_grid(L, mu=20.0, N=3000, seeds=[1])
        spans = harness.build_schedule(cfg)
        input_seed, noise_seed = harness.derive_stream_seeds(cfg.seeds[0])
        x = generate_input(cfg.N, input_seed)
        diverging = (x, synthesize_desired(x, spans, cfg.snr_db,
                                           noise_seed).d, spans, cfg.mu,
                     [(a.kind, a.params) for a in cfg.algorithms])
        quiet = zeros_and_subnormals(L)[:-1]
        stops = []
        for x, d, spans, mu, ctls in (quiet, diverging):
            for every in (1, 3, x.size):
                results = []
                for library in (plain, filtercore._library()):
                    monkeypatch.setattr(filtercore, "_kernel", library)
                    rec, stop_at = filtercore.run_sequence(
                        x, d, spans, mu, [*ctls, negative_zero], every)
                    results.append((rec.tobytes(), stop_at.tolist()))
                assert results[0] == results[1], (L, every)
                stops.append(results[0][1])
        # the quiet rows run to their end, and the diverging lms row stops
        assert stops[0] == [600] * (len(ALL_KINDS) + 1), L
        assert stops[-1][0] < 3000, L


@pytest.mark.parametrize("L", [3, 12, 17, 25, 40])
def test_the_pass_rounds_as_its_exact_reference(L):
    # the errors and misalignments of every kind's tap pass bit for bit
    # against exact arithmetic rounded once per product-sum and summed in
    # the two accumulators: L = 12 and 25 put the tail in the second one, 40
    # has none. A product rounded before its sum, one accumulator, or an
    # attractor rounded apart from its subtraction differs. lms and
    # fixed_zap take their constant kappa, the controlled kinds the kappa
    # their row records: this checks the pass given its kappa, not the
    # controllers
    rng = np.random.default_rng(L)
    N, mu = 40, 0.02
    h = rng.standard_normal(L) * (rng.random(L) < 0.6)
    h[0] = 1.0
    x = rng.standard_normal(N)
    d = np.convolve(x, h)[:N] + 0.01 * rng.standard_normal(N)
    for kind, params, kappa in (("lms", {}, 0.0),
                                ("fixed_zap", {"kappa0": 1e-3}, 1e-3),
                                *((a.kind, a.params, None)
                                  for a in ALL_KINDS[2:])):
        rec, _ = filtercore.run_sequence(
            x, d, [(0, N, h)], mu, [(kind, controller_params(kind, params,
                                                             mu))], 1)
        if kappa is None:
            kappa = rec["kappa"][0]
            assert np.count_nonzero(kappa) > N // 3, kind
        errors, misalignments = fma_run(x, d, h, mu, kappa, N)
        assert rec["error"][0].tobytes() == np.array(errors).tobytes(), kind
        assert rec["misalignment_db"][0].tobytes() == np.array(
            misalignments).tobytes(), kind


@pytest.mark.parametrize("L", [17, 64])
def test_a_sparser_record_is_every_third_row(L):
    # the passes that record and those that do not must advance alike
    every_row = run_all(small_grid(L, record_every=1), max_workers=1)
    every_third = run_all(small_grid(L, record_every=3), max_workers=1)
    assert {t.algorithm for t in every_row} == {a.name for a in ALL_KINDS}
    assert [(t.algorithm, t.seed, t.diverged_at) for t in every_row] == [
        (t.algorithm, t.seed, t.diverged_at) for t in every_third]
    for one, three in zip(every_row, every_third):
        assert one.samples[::3].tobytes() == three.samples.tobytes()


def test_every_record_gets_its_n_and_a_stopped_row_rests_at_zero():
    # the kernel writes n into every record slot, those after a stop too;
    # the other fields of a stopped row's later records stay 0
    rng = np.random.default_rng(8)
    N, L, every, mu = 100, 5, 3, 0.01
    h = rng.standard_normal(L)
    # kappa0 = 1e308 overflows the weights within a few samples
    ctls = [("lms", controller_params("lms", {}, mu)),
            ("fixed_zap", controller_params("fixed_zap", {"kappa0": 1e308},
                                            mu))]
    for x in rng.standard_normal((3, N)):
        d = np.convolve(x, h)[:N]
        rec, (never, stop) = filtercore.run_sequence(x, d, [(0, N, h)], mu,
                                                     ctls, every)
        assert never == N and stop < N - 2 * every
        assert rec.shape == (2, 34)
        assert (rec["n"] == np.arange(0, N, every)).all()
        rest = rec[1, rec["n"][1] > stop]
        assert rest.size >= 2
        for name in SAMPLE_DTYPE.names[1:]:
            assert not rest[name].any(), name


def test_run_sequence_checks_the_shapes_it_hands_the_kernel(monkeypatch):
    h = np.ones(4)
    x, d = np.zeros(10), np.zeros(10)
    ctl = [("lms", controller_params("lms", {}, 0.01))]
    rec, stop_at = filtercore.run_sequence(x, d, [(0, 10, h)], 0.01, ctl, 1)
    assert rec.shape == (1, 10) and stop_at.tolist() == [10]

    class NoKernel:
        @staticmethod
        def zap_run(*args):
            raise AssertionError("a pointer reached the kernel")

    monkeypatch.setattr(filtercore, "_kernel", NoKernel())
    for bad in ((x[:9], d, [(0, 10, h)], 1),  # x and d of different lengths
                (x, d[:9], [(0, 9, h)], 1),
                (np.zeros((1, 10)), d, [(0, 10, h)], 1),  # a 2-D x
                (x, np.zeros((1, 10)), [(0, 10, h)], 1),
                (x, d.astype(np.float32), [(0, 10, h)], 1),
                (x.astype(np.float32), d, [(0, 10, h)], 1),
                (x, np.zeros(20)[::2], [(0, 10, h)], 1),  # strided d
                (np.zeros(20)[::2], d, [(0, 10, h)], 1),
                (x, d, [(0, 10, h)], 0), (x, d, [(0, 9, h)], 1),
                (x, d, [(0, 5, h), (6, 10, h)], 1),  # a gap
                (x, d, [(0, 6, h), (5, 10, h)], 1),  # an overlap
                (x, d, [(0, 15, h), (15, 10, h)], 1),  # past N
                (x, d, [(0, 6, h), (6, 3, h), (3, 10, h)], 1),  # backward
                (x, d, [(0, 0, h), (0, 10, h)], 1),  # an empty span
                (x, d, [(0, 5, h), (5, 10, np.ones(3))], 1),
                (x, d, [], 1),  # no span
                # the records divide by ||h|| and by the nonzero taps
                (x, d, [(0, 10, np.zeros(4))], 1),
                (x, d, [(0, 5, h), (5, 10, np.array([0.0, -0.0, 0, 0]))], 1)):
        with pytest.raises(ValueError, match="run_sequence needs"):
            filtercore.run_sequence(*bad[:3], 0.01, ctl, bad[3])


@pytest.mark.parametrize("path", ["sparse.cfg", "dispersive.cfg"])
def test_the_records_take_h_norm_in_the_kernels_order(path):
    # on a zero input the weights stay zero, so every record's distance is
    # ||0 - h||: in the kernel's lanes and order it is ||h||, and the
    # misalignment reads exactly 0 dB (the shipped spans include two whose
    # ||h|| from BLAS's order differs by one ulp)
    cfg = parse_config(Path(__file__).parents[1] / "configs" / path)
    spans = harness.build_schedule(cfg)
    x = d = np.zeros(cfg.N)
    ctl = [("lms", controller_params("lms", {}, cfg.mu))]
    rec, _ = filtercore.run_sequence(x, d, spans, cfg.mu, ctl, 97)
    assert (rec["misalignment_db"] == 0.0).all()


def test_run_sequence_fills_in_and_checks_the_controller_params(monkeypatch):
    # you's window, which the kernel divides by, is filled in for a pair
    # that leaves it out; a pair that breaks a rule never reaches the kernel
    rng = np.random.default_rng(4)
    N, L, mu = 600, 5, 0.01
    h = rng.standard_normal(L)
    x = rng.standard_normal(N)
    d = np.convolve(x, h)[:N]
    bare = ("you", {"kappa0": 1e-3, "eta": 0.5, "kappa_min": 1e-5})
    resolved = ("you", controller_params(*bare, mu))
    got, want = (filtercore.run_sequence(x, d, [(0, N, h)], mu, [ctl], 1)
                 for ctl in (bare, resolved))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tolist() == want[1].tolist() == [N]

    class NoKernel:
        @staticmethod
        def zap_run(*args):
            raise AssertionError("a pointer reached the kernel")

    monkeypatch.setattr(filtercore, "_kernel", NoKernel())
    for ctl in (("you", {**bare[1], "window": 0}), ("lms", {"kappa0": 1.0}),
                ("liu", {"lambda": 0.01, "alpha": 0.05})):
        with pytest.raises(ValueError):
            filtercore.run_sequence(x, d, [(0, N, h)], mu, [ctl], 1)


def test_a_window_of_n_or_more_samples_takes_n_slots():
    # sample n < N writes you's slot n % window, which is n for any window
    # >= N, and the detector never fires: the records are those of window
    # N, also for a window whose slots would not fit in memory
    rng = np.random.default_rng(6)
    N, L, mu = 300, 5, 0.01
    h = rng.standard_normal(L)
    x = rng.standard_normal(N)
    d = np.convolve(x, h)[:N]
    you = {"kappa0": 1e-3, "eta": 0.5, "kappa_min": 1e-5, "tolerance": 10.0}
    recs = [filtercore.run_sequence(
        x, d, [(0, N, h)], mu, [("you", {**you, "window": window})], 1)[0]
        for window in (N, 10 * N, 10**11)]
    assert recs[0].tobytes() == recs[1].tobytes() == recs[2].tobytes()
    assert (recs[0]["kappa"] == 1e-3).all()


# the ctypes types that stand for each C type of a library function's
# signature
C_TYPES = {"void": (None,), "int": (ctypes.c_int,),
           "int64_t": (ctypes.c_int64,), "double": (ctypes.c_double,)}
C_POINTER = (ctypes.c_void_p, ctypes.c_char_p)


def defined_functions() -> list[tuple[str, str, str]]:
    """(result type, name, parameters) of each library function that
    filtercore.c defines."""
    defined = re.findall(r"^((?:const )?\w+ \**)(zap_\w+)\(([^)]*)\)\s*\{",
                         filtercore.SOURCE.read_text(), re.M)
    assert {"zap_run", "zap_echo"} <= {name for _, name, _ in defined}
    return defined


def test_the_library_declares_each_function_as_the_source_defines_it():
    # ctypes calls with what load() declares: a wrong count or type of
    # arguments, or a result read from a void function, is undefined
    # behaviour that no output test is sure to catch
    def ctypes_of(c_type):
        return C_POINTER if "*" in c_type else C_TYPES[c_type.strip()]

    lib = filtercore._library()
    for result, name, params in defined_functions():
        # each parameter's type: its text without the name
        types = [] if params == "void" else [
            re.sub(r"\w+$", "", param.strip()) for param in params.split(",")]
        function = getattr(lib, name)
        assert function.argtypes is not None, name
        assert len(function.argtypes) == len(types), name
        for argtype, c_type in zip(function.argtypes, types):
            assert argtype in ctypes_of(c_type), (name, c_type)
        assert function.restype in ctypes_of(result), name


def test_the_package_calls_each_function_the_source_defines():
    # a function that load() declares but no module calls is dead code in
    # the library
    calls = "".join(path.read_text()
                    for path in filtercore.SOURCE.parent.glob("*.py"))
    for _, name, _ in defined_functions():
        assert re.search(rf"\.{name}\(", calls), name


def shipped_assembly(tmp_path, feature):
    """The assembly of the shipped flags, where the CPU is x86 and lists
    ``feature``; else the test is skipped."""
    if (platform.machine() not in ("x86_64", "AMD64")
            or feature not in filtercore._cpu_flags().split()):
        pytest.skip(f"the compiler's target is not x86 with {feature}")
    asm = tmp_path / "filtercore.s"
    flags = [f for f in filtercore.CFLAGS if f != "-shared"]
    done = subprocess.run([shutil.which(filtercore.CC), *flags, "-S", "-o",
                           str(asm), str(filtercore.SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return asm.read_text()


def test_the_shipped_build_fuses_in_vector_registers(tmp_path):
    # each FMA of the pass is a lane loop of __builtin_fma: a compiler that
    # does not turn it into vector fused multiply-adds calls libm's fma per
    # lane, which gives the same bits 6-9 times slower. Under AVX-512 the
    # loop must take one 512-bit register, not two 256-bit halves
    text = shipped_assembly(tmp_path, "fma")
    register = "zmm" if "avx512f" in filtercore._cpu_flags().split() else "ymm"
    assert re.search(rf"\bvfmadd\w*pd\s.*%{register}", text)
    assert not re.search(r"\b(call|jmp)\s+fma\b", text)


def test_the_shipped_build_takes_the_avx512_sign_forms(tmp_path):
    # under AVX-512 sign(w) is one vfixupimmpd, a recorded pass counts the
    # taps whose signs agree by one add under its compare's mask, and a
    # rotating pass takes x(n+1)'s vector from x(n)'s by one valignq
    text = shipped_assembly(tmp_path, "avx512f")
    assert re.search(r"\bvfixupimmpd\s", text)
    assert re.search(r"\bvaddpd\s[^\n]*\{%k", text)
    assert re.search(r"\bvalignq\s", text)


def test_kernel_source_compiles_without_warnings():
    # also for the compiler's default target, which may lack the kernel's
    # vector width: the source stays portable C
    cc = shutil.which(filtercore.CC)
    default_target = [f for f in filtercore.CFLAGS if f != "-march=native"]
    for flags in (filtercore.CFLAGS, default_target):
        done = subprocess.run(
            [cc, *flags, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             str(filtercore.SOURCE)],
            capture_output=True, text=True)
        assert done.returncode == 0, (flags, done.stderr)


# runs in a fresh interpreter on the library built at argv[1]: every kind
# at two lengths and two record intervals, rows that diverge, rows whose
# tail lanes take an infinite update, and the formatter's edge values
SANITIZED_RUN = """
import sys
from zapvss import filtercore
from zapvss.harness import run_all
from test_format import edge_values, mismatches
from test_kernel import DIVERGING_STOPS, diverging_grid, small_grid

filtercore._kernel = filtercore.load(sys.argv[1])
for L in (3, 17):
    for record_every in (1, 3):
        run_all(small_grid(L, record_every=record_every), max_workers=1)
diverging = run_all(small_grid(16, mu=10.0, N=400, change_at=200,
                               seeds=[1, 2, 3], record_every=3), max_workers=1)
assert None not in [t.diverged_at for t in diverging]
padded = run_all(diverging_grid(23), max_workers=1)
assert [t.diverged_at for t in padded] == [DIVERGING_STOPS[23]] * len(padded)
assert mismatches(edge_values()) == []
"""


def test_the_library_has_no_undefined_behaviour(tmp_path, monkeypatch):
    # the sanitizer stops the process at the first undefined operation, so
    # the library runs in a child, not in the test's process
    monkeypatch.setattr(filtercore, "CFLAGS", (
        *filtercore.CFLAGS, "-fsanitize=undefined", "-fno-sanitize-recover=all"))
    try:
        library = filtercore.build(caches=[tmp_path])
    except filtercore.KernelBuildError as err:
        if "ubsan" not in str(err):
            raise
        pytest.skip(f"the sanitizer's runtime does not link: {err}")
    path = os.pathsep.join([str(filtercore.SOURCE.parents[1]),
                            str(Path(__file__).parent)])
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUN, str(library)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert "runtime error" not in done.stderr


def marker_source(path, value):
    # build() compiles any source; a small one keeps these tests fast
    path.write_text(f"int zap_marker(void) {{ return {value}; }}\n")
    return path


def test_a_library_of_another_source_is_rebuilt(tmp_path, monkeypatch):
    old, new = marker_source(tmp_path / "old.c", 1), marker_source(
        tmp_path / "new.c", 7)
    cache = tmp_path / "c"
    stale = filtercore.build(old, [cache])
    fresh = filtercore.build(new, [cache])
    assert fresh != stale and fresh.parent == stale.parent == cache
    assert ctypes.CDLL(str(fresh)).zap_marker() == 7
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [stale.name, fresh.name])  # no temporary file left behind

    # a library of the same source, flags and compiler loads as it is
    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a cached source")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert filtercore.build(new, [cache]) == fresh


def test_an_unwritable_cache_falls_back_to_the_next(tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("")  # a file: no directory can be made under it
    built = filtercore.build(marker_source(tmp_path / "m.c", 1),
                             [blocked / "cache", tmp_path / "user"])
    assert built.parent == tmp_path / "user"


@pytest.mark.parametrize("features", ["flags\t\t: fpu sse2 avx2 avx512f",
                                      "Features\t: fp asimd sve"])
def test_a_library_built_for_other_cpu_features_is_rebuilt(
        tmp_path, monkeypatch, features):
    # x86 lists the CPU's features as "flags", aarch64 as "Features": a
    # -march=native library must not load on a CPU that lacks some of them
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(filtercore, "CPUINFO", cpuinfo)
    cpuinfo.write_text(f"processor\t: 0\nBogoMIPS\t: 50.00\n{features}\n"
                       f"CPU part\t: 0xd40\n")
    assert filtercore._cpu_flags() == features + "\n"
    source, cache = marker_source(tmp_path / "m.c", 1), tmp_path / "c"
    built = filtercore.build(source, [cache])
    cpuinfo.write_text(f"processor\t: 0\n{features.split(':')[0]}: fp\n")
    assert filtercore.build(source, [cache]) != built


def test_a_failed_build_is_a_program_fault(tmp_path, monkeypatch, capsys):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    with pytest.raises(filtercore.KernelBuildError,
                       match="-ffp-contract=off") as failed:
        filtercore.build(broken, [tmp_path / "c"])
    assert str(broken) in str(failed.value)
    assert not list((tmp_path / "c").iterdir())

    monkeypatch.setattr(filtercore, "CC", "zapvss-no-such-cc")
    with pytest.raises(filtercore.KernelBuildError,
                       match="zapvss-no-such-cc") as missing:
        filtercore.build(caches=[tmp_path / "c"])

    # a build that failed at import surfaces when the kernel is first
    # needed, which `zapvss run` reports as an internal error
    monkeypatch.setattr(filtercore, "_kernel", missing.value)
    monkeypatch.setenv("ZAPVSS_THREADS", "1")
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text("[scenario]\nL=4\nN=10\nsnr_db=30\nmu=0.01\n"
                        "seeds=1\n[channel.before]\nkind=sparse\n"
                        "active_count=1\nseed=1\n[algorithm]\nname=lms\n"
                        "kind=lms\n")
    assert main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "internal error: KernelBuildError" in err
    assert "zapvss-no-such-cc" in err
