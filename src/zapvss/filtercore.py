"""The filter recursion: the sign-attracted LMS update of many runs (rows)
on one input sequence, each advanced sample by sample with its controller
and recorded metrics, in one compiled kernel (``filtercore.c``), and the
text of the CSV rows it records (``format_rows``) and of the plot's points
(``format_points``), written by the same library.

The kernel is built with the system C compiler when this module is first
imported and cached under a name that hashes its source, the flags, the
compiler and the CPU, so a later import only loads it. A build that fails
does not fail the import: ``run_sequence`` raises its ``KernelBuildError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .stepsize import KINDS, controller_params

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
# lists the CPU features that -march=native targets (see _cpu_flags)
CPUINFO = Path("/proc/cpuinfo")
# the scale of the formatter's power-of-5 table entries (see pow5_tables)
POW5_BITCOUNT = 125
# the longest text of one row's integer and line break, and of one double
# and its comma ("-2.2250738585072014e-308")
ROW_BYTES = 21
VALUE_BYTES = 25
# the longest text of one point with its comma and space: two values like
# "-9007199254740991.99"
POINT_BYTES = 42


class KernelBuildError(RuntimeError):
    """The C compiler could not build the kernel, or its library would not
    load."""


def cache_dirs() -> list[Path]:
    """Where the library is cached, in order of preference: the package's
    ``__pycache__``, then a per-user cache directory."""
    return [Path(__file__).with_name("__pycache__"),
            Path.home() / ".cache" / "zapvss"]


def _cpu_flags() -> str:
    # -march=native targets this CPU: a library built for another must not
    # load. x86 lists the CPU's features as "flags", aarch64 as "Features"
    try:
        with open(CPUINFO) as f:
            return next((line for line in f
                         if line.startswith(("flags", "Features"))), "")
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


def pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """The formatter's power-of-5 tables as (low, high) 64-bit word pairs,
    from exact integers: ``inv[q] = floor(2^(bitlen(5^q) - 1 + 125) / 5^q)
    + 1`` for q < 342 and ``pow5[i] = floor(5^i * 2^125 / 2^bitlen(5^i))``,
    5^i to 125 significant bits, for i < 326 (Ryu's double tables)."""
    inv = [(1 << ((5**q).bit_length() - 1 + POW5_BITCOUNT)) // 5**q + 1
           for q in range(342)]
    pow5 = [(5**i << POW5_BITCOUNT) >> (5**i).bit_length() for i in range(326)]
    return tuple(np.array([(v & (2**64 - 1), v >> 64) for v in table],
                          dtype=np.uint64) for table in (inv, pow5))


def load(path: Path) -> ctypes.CDLL:
    """The kernel library at ``path`` (a ``build``), its functions declared
    and its formatter's tables handed over. Raises OSError."""
    lib = ctypes.CDLL(str(path))
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.zap_run.restype = ctypes.c_int
    lib.zap_run.argtypes = [i64, i64, p, p, i64, p, p, f64, i64, p, f64, i64,
                            p, p]
    lib.zap_echo.restype = ctypes.c_int
    lib.zap_echo.argtypes = [i64, i64, i64, p, p, p]
    lib.zap_compiler.restype = ctypes.c_char_p
    lib.zap_format_init.restype = None
    lib.zap_format_init.argtypes = [p, p]
    # the library copies the tables; they are bound to names until it has
    inv, pow5 = pow5_tables()
    lib.zap_format_init(inv.ctypes.data, pow5.ctypes.data)
    lib.zap_format_rows.restype = i64
    lib.zap_format_rows.argtypes = [ctypes.c_char_p, i64, i64, p, i64, i64,
                                    p, p, p]
    lib.zap_format_points.restype = i64
    lib.zap_format_points.argtypes = [i64, p, p, p]
    return lib


def _load():
    """The kernel's library, or the KernelBuildError that stopped it."""
    try:
        return load(build())
    except KernelBuildError as err:
        return err
    except OSError as err:
        return KernelBuildError(f"loading the filter kernel failed: {err}")


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


def _pack(ctls, mu: float) -> np.ndarray:
    """``ctls`` as the kernel reads them, each pair's parameters checked and
    completed by ``controller_params``. Raises ValueError."""
    packed = np.zeros(len(ctls), CTL_DTYPE)
    for a, (kind, params) in enumerate(ctls):
        params = controller_params(kind, params, mu)
        packed["kind"][a] = list(KINDS).index(kind)
        packed["xi"][a] = params.get("measure") == "xi"
        for name, value in params.items():
            if name in CTL_DTYPE.names:
                packed[name][a] = value
    return packed


def _covers(spans, N: int) -> bool:
    """Whether ``spans`` is one or more non-empty ``(start, stop, taps)``
    slices covering [0, N) in order."""
    bounds = [b for start, stop, _ in spans for b in (start, stop)]
    return (bool(bounds) and bounds[0] == 0 and bounds[-1] == N
            and bounds[1:-1:2] == bounds[2::2]
            and all(start < stop for start, stop, _ in spans))


def echo(x, spans) -> np.ndarray:
    """The clean echo of the input ``x`` (N,) through the echo path
    ``spans``, ``(start, stop, taps)`` slices covering [0, N) in order: for
    n in a span, ``sum(taps[k] * x[n - k])`` over the span's nonzero taps k
    in ascending order, from +0.0, each product and each sum rounded on its
    own, with x[m] = 0 for m < 0. So it equals ``y[k:] += taps[k] *
    x[:N - k]`` over those k bit for bit, on any CPU and at any vector
    width, and depends on no BLAS. The call releases the GIL."""
    lib = _library()
    x = np.ascontiguousarray(x, dtype=np.float64)
    taps = [np.ascontiguousarray(h, dtype=np.float64) for _, _, h in spans]
    # the kernel trusts these shapes
    if x.ndim != 1 or not _covers(spans, x.size) or any(
            h.ndim != 1 or h.size < 1 for h in taps):
        raise ValueError("echo needs x of shape (N,) and non-empty spans of "
                         "one or more taps covering [0, N) in order")
    y = np.empty(x.size)
    for (start, stop, _), h in zip(spans, taps):
        if lib.zap_echo(start, stop, h.size, x.ctypes.data, h.ctypes.data,
                        y.ctypes.data):
            raise MemoryError("the echo kernel ran out of memory")
    return y


def run_sequence(x, d, spans, mu: float, ctls, every: int):
    """Every controller of ``ctls``, ``(kind, params)`` pairs, on the input
    ``x`` (N,) and the desired signal ``d`` (N,), in one kernel call: each
    controller advances one row. ``stepsize.controller_params`` checks each
    pair's params and fills in its defaults; resolved params pass through
    unchanged. ``spans`` is the echo path as ``(start, stop, taps)`` slices,
    one or more, each non-empty, covering [0, N) in order, each with a
    nonzero tap. Per sample: regressor
    [x(n), ..., x(n-L+1)], a-priori error, controller kappa, the update
    w + mu*e*x - kappa*sign(w) from zero weights, then the metrics of the
    updated weights against the taps of the span, every ``every`` samples.
    The kernel takes each span's ``||taps||`` in its own lanes and order.
    Returns the rows' records (A, ceil(N / every)) of SAMPLE_DTYPE and the
    sample (A,) of each row's diverging update, N for a row that never
    diverged.

    A row stops at the update that makes a weight non-finite. A non-finite
    error only makes a row suspect: a finite w whose dot product overflowed
    gives one too, and diverges one update later. A stopped row's records
    after its stop are zero but for ``n``, which the kernel writes into
    every record. Rows never interact, and every sum runs in a fixed order:
    a row's records do not depend on which other rows share the call, nor
    on the compiler's vectorization. The call releases the GIL, so calls on
    several threads run in parallel. A kernel that ran out of memory raises
    MemoryError.
    """
    lib = _library()
    N, A = d.size, len(ctls)
    # the kernel trusts these shapes and divides by each span's norm: check
    # them before passing pointers
    if (any(a.dtype != np.float64 or a.shape != (N,)
            or not a.flags.c_contiguous for a in (x, d))
            or every < 1 or not _covers(spans, N)
            or any(h.shape != spans[0][2].shape or h.ndim != 1
                   or not np.any(h) for _, _, h in spans)):
        raise ValueError("run_sequence needs C-contiguous float64 x and d of "
                         "one shape (N,), every >= 1 and one or more "
                         "non-empty spans of L taps, not all zero, covering "
                         "[0, N) in order")
    L = spans[0][2].size
    # a zero, the input reversed, L - 1 zeros: the regressor of sample n
    # is xpad[N - n:N - n + L]
    xpad = np.zeros(N + L)
    xpad[1:N + 1] = x[::-1]
    starts = np.array([start for start, _, _ in spans], dtype=np.int64)
    taps = np.array([h for _, _, h in spans], dtype=np.float64)
    packed = _pack(ctls, mu)
    rec = np.zeros((A, -(-N // every)), dtype=SAMPLE_DTYPE)
    stop_at = np.empty(A, dtype=np.int64)
    # every array whose address the kernel reads is bound to a name above,
    # so it lives until the call returns
    if lib.zap_run(N, L, xpad.ctypes.data, d.ctypes.data, len(spans),
                   starts.ctypes.data, taps.ctypes.data, mu, A,
                   packed.ctypes.data, MSE_BETA, every, rec.ctypes.data,
                   stop_at.ctypes.data):
        raise MemoryError("the filter kernel ran out of memory")
    return rec, stop_at


# each thread's output buffer of the formatters (see _buffer)
_local = threading.local()


def _buffer(size: int) -> np.ndarray:
    """The calling thread's output buffer, at least ``size`` bytes. It grows
    to the largest size the thread has asked for and is reused, so a call
    faults in no new pages unless it needs more than every earlier one."""
    if getattr(_local, "buffer", None) is None or _local.buffer.size < size:
        _local.buffer = None  # freed before its successor is allocated
        _local.buffer = np.empty(size, dtype=np.uint8)
    return _local.buffer


def format_rows(prefix: str, n, columns) -> bytes:
    """One UTF-8 line per entry of ``n``: ``prefix``, then n[r] and each of
    ``columns`` at r, comma-separated. The integers read as int64 and are
    written as ``str(int)`` writes them; the values read as float64 and are
    written as ``repr(float)`` writes them, the shortest text that parses
    back to the same double. A prefix that is not valid UTF-8 (a lone
    surrogate) raises UnicodeEncodeError. Strided arrays, such as the
    fields of a record array, are read in place. The library call releases
    the GIL, so calls on several threads format in parallel, each into its
    own thread's buffer, of which the result is a copy."""
    lib = _library()
    n = np.asarray(n, dtype=np.int64)
    values = [np.asarray(column, dtype=np.float64) for column in columns]
    # the library trusts these shapes
    if n.ndim != 1 or any(v.shape != n.shape for v in values):
        raise ValueError("format_rows needs n of shape (rows,) and columns "
                         "of shape (cols, rows)")
    head = prefix.encode("utf-8")
    pointers = np.array([v.ctypes.data for v in values], dtype=np.uintp)
    strides = np.array([v.strides[0] for v in values], dtype=np.int64)
    out = _buffer(n.size * (len(head) + ROW_BYTES + VALUE_BYTES * len(values)))
    used = lib.zap_format_rows(head, len(head), n.size, n.ctypes.data,
                               n.strides[0], len(values), pointers.ctypes.data,
                               strides.ctypes.data, out.ctypes.data)
    return out[:used].tobytes()


def format_points(px, py) -> bytes:
    """The points ``"x,y x,y ..."`` of an SVG polyline, each coordinate as
    ``"{:.2f}".format`` writes it, byte for byte. The text is exact: for
    |v| = M * 2^E, M the integer mantissa and E <= 0, the digits are
    M * 100 >> -E rounded half to even on the remainder, and the sign is
    kept (-0.0 gives "-0.00"). A coordinate that is not finite or not below
    2^53 in magnitude raises ValueError."""
    lib = _library()
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    if px.ndim != 1 or py.shape != px.shape:
        raise ValueError("format_points needs px and py of one shape (points,)")
    out = _buffer(POINT_BYTES * px.size)
    used = lib.zap_format_points(px.size, px.ctypes.data, py.ctypes.data,
                                 out.ctypes.data)
    if used < 0:
        raise ValueError("format_points needs finite coordinates below 2^53 "
                         "in magnitude")
    return out[:used].tobytes()
