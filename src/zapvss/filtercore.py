"""The filter recursion: the sign-attracted LMS update of many runs (rows),
each advanced sample by sample with its controller and recorded metrics,
in one compiled kernel (``filtercore.c``).

The kernel is built with the system C compiler when this module is first
imported and cached under a name that hashes its source, the flags, the
compiler and the CPU, so a later import only loads it. A build that fails
does not fail the import: ``run_rows`` raises its ``KernelBuildError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .stepsize import KINDS

MSE_BETA = 0.01  # smoothing constant for the recorded error power
# one recorded row of a run trace; a run's trace is an array of these
SAMPLE_DTYPE = np.dtype([("n", np.int64), ("misalignment_db", np.float64),
                         ("kappa", np.float64), ("error", np.float64),
                         ("sign_agreement", np.float64),
                         ("smoothed_mse", np.float64)])
# one controller's parameters as the kernel reads them (zap_ctl); xi is 1
# for liu on the xi measure
CTL_DTYPE = np.dtype(
    [(name, np.int64) for name in ("kind", "xi", "window", "cooldown")]
    + [(name, np.float64) for name in (
        "kappa0", "eta", "kappa_min", "beta", "tolerance", "lambda", "alpha",
        "gamma", "kappa_max", "w2_floor")])

SOURCE = Path(__file__).with_name("filtercore.c")
CC = "cc"
# no fast-math and no contraction: the kernel's fixed summation order then
# fixes every result
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")


class KernelBuildError(RuntimeError):
    """The C compiler could not build the kernel, or its library would not
    load."""


def cache_dirs() -> list[Path]:
    """Where the library is cached, in order of preference: the package's
    ``__pycache__``, then a per-user cache directory."""
    return [Path(__file__).with_name("__pycache__"),
            Path.home() / ".cache" / "zapvss"]


def _cpu_flags() -> str:
    # -march=native targets this CPU: a library built for another must not load
    try:
        with open("/proc/cpuinfo") as f:
            return next((line for line in f if line.startswith("flags")), "")
    except OSError:
        return ""


def build(source: Path = SOURCE, caches: list[Path] | None = None) -> Path:
    """The kernel library of ``source``: the cached one if a library of this
    source, these flags, this compiler and this CPU is in a cache directory,
    else one compiled into the first writable cache directory (``cache_dirs``
    by default). The compiler writes to a temporary file that is renamed
    into place, so concurrent builds are safe. Raises KernelBuildError."""
    cc = shutil.which(CC)
    if cc is None:
        raise KernelBuildError(f"building the filter kernel needs a C "
                               f"compiler: {CC!r} is not on PATH")
    cc = os.path.realpath(cc)
    stat = os.stat(cc)
    key = hashlib.sha256("\0".join((
        source.read_text(), *CFLAGS, cc, str(stat.st_size),
        str(stat.st_mtime_ns), _cpu_flags())).encode()).hexdigest()
    name = f"filtercore-{key[:24]}.so"
    caches = cache_dirs() if caches is None else caches
    for cache in caches:
        if (cache / name).is_file():
            return cache / name
    for cache in caches:
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"{name}.", suffix=".tmp")
        except OSError:
            continue
        os.close(fd)
        cmd = [cc, *CFLAGS, "-o", tmp, str(source), "-lm"]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                raise KernelBuildError(
                    f"building the filter kernel failed: {' '.join(cmd)}\n"
                    f"{done.stderr.strip()}")
            os.replace(tmp, cache / name)
        except OSError as err:
            raise KernelBuildError(f"building the filter kernel failed: "
                                   f"{' '.join(cmd)}: {err}") from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return cache / name
    raise KernelBuildError(f"no writable cache directory for the filter "
                           f"kernel among {', '.join(map(str, caches))}")


def _load():
    """The kernel's library, or the KernelBuildError that stopped it."""
    try:
        path = build()
        lib = ctypes.CDLL(str(path))
    except KernelBuildError as err:
        return err
    except OSError as err:
        return KernelBuildError(f"loading the filter kernel failed: {err}")
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.zap_run.restype = ctypes.c_int
    lib.zap_run.argtypes = [i64, i64, p, p, i64, p, p, p, p, f64, i64, p, f64,
                            i64, p, i64, p]
    lib.zap_compiler.restype = ctypes.c_char_p
    return lib


_kernel = _load()


def _library():
    if isinstance(_kernel, KernelBuildError):
        raise _kernel
    return _kernel


def build_info() -> dict:
    """The kernel's compiler (path and version) and flags."""
    version = _library().zap_compiler().decode()
    return {"compiler": f"{os.path.realpath(shutil.which(CC) or CC)} {version}",
            "flags": " ".join(CFLAGS)}


def _pack(ctls) -> np.ndarray:
    packed = np.zeros(len(ctls), CTL_DTYPE)
    for a, ctl in enumerate(ctls):
        packed["kind"][a] = list(KINDS).index(ctl.kind)
        packed["xi"][a] = ctl.params.get("measure") == "xi"
        for name, value in ctl.params.items():
            if name in CTL_DTYPE.names:
                packed[name][a] = value
    return packed


def run_rows(x, d, spans, mu: float, ctls, every: int):
    """Every controller of ``ctls`` on each of the S input sequences ``x``
    (S, N), with the desired signal ``d`` (N, S): each controller advances
    S rows. ``spans`` is the echo path as ``(start, stop, taps)`` slices
    covering [0, N). Per sample: regressor, a-priori error, controller
    kappa, the update w + mu*e*x - kappa*sign(w) from zero weights, then
    the metrics of the updated weights against the taps of the span, every
    ``every`` samples. Returns, per controller, its rows' records (ceil(N /
    every), S) of SAMPLE_DTYPE and the sample (S,) of each row's diverging
    update, N for a row that never diverged.

    A row stops at the update that makes a weight non-finite. A non-finite
    error only makes a row suspect: a finite w whose dot product overflowed
    gives one too, and diverges one update later. A stopped row's records
    after its stop are zero but for ``n``. Rows never interact, and every
    sum runs in a fixed order: a row's records do not depend on which other
    rows share the batch, nor on the compiler's vectorization.
    """
    lib = _library()
    S, N = x.shape
    L, A = spans[0][2].size, len(ctls)
    bounds = [b for start, stop, _ in spans for b in (start, stop)]
    # the kernel trusts these shapes: check them before passing pointers
    if (d.shape != (N, S) or every < 1 or bounds[0] != 0 or bounds[-1] != N
            or bounds[1:-1:2] != bounds[2::2]
            or any(h.shape != (L,) for _, _, h in spans)):
        raise ValueError("run_rows needs d of shape (N, S), every >= 1 and "
                         "spans of L taps covering [0, N) in order")
    # per sequence a zero, the input reversed, L - 1 zeros: the regressor
    # [x(n), ..., x(n-L+1)] of sample n is xpad[N-n:N-n+L]
    xpad = np.zeros((S, N + L))
    xpad[:, 1:N + 1] = x[:, ::-1]
    d = np.ascontiguousarray(d.T, dtype=np.float64)
    starts = np.array([start for start, _, _ in spans], dtype=np.int64)
    taps = np.array([h for _, _, h in spans], dtype=np.float64)
    hnorm = np.array([np.linalg.norm(h) for h in taps])
    active = np.count_nonzero(taps, axis=1).astype(np.int64)
    packed = _pack(ctls)
    n_rec = -(-N // every)
    rec = np.zeros((A, S, n_rec), dtype=SAMPLE_DTYPE)
    rec["n"] = np.arange(0, N, every)
    stop_at = np.empty((S, A), dtype=np.int64)
    for s in range(S):
        status = lib.zap_run(
            N, L, xpad[s].ctypes.data, d[s].ctypes.data, len(spans),
            starts.ctypes.data, taps.ctypes.data, hnorm.ctypes.data,
            active.ctypes.data, mu, A, packed.ctypes.data, MSE_BETA, every,
            rec[0, s].ctypes.data, S * n_rec, stop_at[s].ctypes.data)
        if status != 0:
            raise MemoryError("the filter kernel ran out of memory")
    return [(rec[a].T, stop_at[:, a]) for a in range(A)]
