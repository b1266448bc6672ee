"""The compiled kernel against both references, and its build.

The kernel (``zapvss.filtercore.run_sequence``) is checked against the numpy
engine it replaced (``oracles.numpy_run_all``) and against the scalar
``oracles.run_scenario``, at the tolerances of ``test_batched``, over every
kind, filter lengths with and without a tail of the kernel's eight
summation lanes, several ``record_every`` and runs that diverge, through
an infinite error too. Against itself it is checked bit for bit: built
without optimization for the compiler's default target, and recording
every sample against every third.
Built with the undefined-behaviour sanitizer, it runs such grids and the
formatters' edge values without a report.
"""

import ctypes
import dataclasses
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import numpy_run_all, run_scenario
from test_batched import (ABS_TOL, ALL_KINDS, MIS_TOL_DB, REL_TOL,
                          assert_matches_scalar, grid, trace_key)
from zapvss import filtercore, harness
from zapvss.cli import main, parse_config
from zapvss.filtercore import SAMPLE_DTYPE
from zapvss.harness import ChannelSpec, recovery_time, run_all
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
@pytest.mark.parametrize("L", [2, 3, 8, 17])
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


def test_a_trace_does_not_depend_on_its_batch():
    # seed 4 diverges at this mu; the others do not
    cfg = grid(mu=2.5, seeds=[1, 2, 4], record_every=3)
    together = run_all(cfg)
    for seed in cfg.seeds:
        alone = run_all(dataclasses.replace(cfg, seeds=[seed]))
        assert trace_key(alone) == trace_key(
            [t for t in together if t.seed == seed])


def test_records_do_not_depend_on_the_flags(tmp_path, monkeypatch):
    # no optimization and the compiler's default target: no vector unit
    # wider than the ABI's, nothing inlined
    with monkeypatch.context() as m:
        m.setattr(filtercore, "CFLAGS",
                  ("-O0", "-ffp-contract=off", "-fPIC", "-shared"))
        plain = filtercore.load(filtercore.build(caches=[tmp_path]))
    shipped = filtercore._library()
    for L in (3, 17, 64):
        for record_every in (1, 3):
            cfg = small_grid(L, record_every=record_every)
            monkeypatch.setattr(filtercore, "_kernel", plain)
            want = trace_key(run_all(cfg, max_workers=1))
            monkeypatch.setattr(filtercore, "_kernel", shipped)
            assert trace_key(run_all(cfg, max_workers=1)) == want


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
# tail lanes take an infinite update, and the formatters' edge values,
# those outside the points' precondition too
SANITIZED_RUN = """
import sys
from zapvss import filtercore
from zapvss.harness import run_all
from test_format import (LIMIT, edge_values, mismatches, point_edge_values,
                         point_mismatches)
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
assert point_mismatches(point_edge_values()) == []
for bad in (float("nan"), float("inf"), -float("inf"), LIMIT, -LIMIT):
    try:
        filtercore.format_points([0.5, bad], [bad, 0.5])
    except ValueError:
        continue
    raise AssertionError(f"format_points took {bad!r}")
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
