"""The compiled formatter against Python: the rows of the CSVs and of the
SVG points (``filtercore.format_rows``).

Tolerance zero: every value's text must equal ``repr(float(v))`` and every
integer's ``str(int)``, character for character, whether Ryu wrote it or it
was copied from the row above.
"""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zapvss.filtercore import SAMPLE_DTYPE, format_rows, pow5_tables

RANDOM_PATTERNS = 1 << 20
CHUNK = 1 << 17


def mismatches(values) -> list[tuple[str, str, str]]:
    """(hex, formatted, repr) of every value whose text differs from repr."""
    values = np.asarray(values, dtype=np.float64)
    got = bytes(format_rows("", np.zeros(values.size),
                            [values])).decode().splitlines()
    want = list(map(repr, values.tolist()))
    assert len(got) == len(want)
    return [(float(v).hex(), g[2:], w) for v, g, w in
            zip(values.tolist(), got, want) if g != "0," + w]


def repr_rows(prefix: str, n, columns) -> bytes:
    """The rows format_rows writes, from str and repr."""
    return "".join(
        prefix + ",".join([str(int(i)), *(repr(float(v)) for v in values)])
        + "\n" for i, *values in zip(n, *columns)).encode()


def edge_values() -> list[float]:
    # zero, the smallest and largest subnormals, the smallest normal,
    # DBL_MAX, then every power of two and the notation boundaries
    edges = [0.0, 5e-324, math.nextafter(sys.float_info.min, 0.0),
             sys.float_info.min, sys.float_info.max, 1.0, 0.1]
    edges += [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    for x in (1e-4, 1e16, 1e22, 1e23):
        edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return edges + [-x for x in edges]


class TestAgainstRepr:
    def test_random_bit_patterns(self):
        # every 64-bit pattern is a double: subnormals, NaN payloads, both
        # signs, every exponent
        rng = np.random.default_rng(20180618)
        for _ in range(RANDOM_PATTERNS // CHUNK):
            bits = rng.integers(0, 2**64, size=CHUNK, dtype=np.uint64,
                                endpoint=False)
            assert mismatches(bits.view(np.float64))[:5] == []

    def test_edges(self):
        edges = edge_values()
        assert len(edges) == 2 * (7 + 2098 + 12)
        assert mismatches(edges) == []

    def test_non_finite(self):
        nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                             0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                            dtype=np.uint64)
        values = [math.inf, -math.inf, math.nan, *nan_bits.view(np.float64)]
        text = bytes(format_rows("", [0] * len(values), [values]))
        assert text.splitlines() == [b"0,inf", b"0,-inf", b"0,nan", b"0,nan",
                                     b"0,nan", b"0,nan", b"0,nan"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_hypothesis_floats(self, values):
        assert mismatches(values) == []


class TestRows:
    def test_layout(self):
        n = [0, 7, -3, 2**63 - 1, -2**63]
        columns = [[0.5, -0.0, 1e-5, 123.0, math.inf],
                   [1e16, 0.0001, -math.nan, 1e15, 2.5e-308]]
        want = "".join(f"pre,{i},{a!r},{b!r}\n" for i, a, b in zip(n, *columns))
        assert format_rows("pre,", n, columns) == want.encode()

    def test_integers_are_their_str(self):
        n = [0, 1, 9, 10, 99, 100, -1, -10, 2**63 - 1, -2**63]
        n += [10**k + d for k in range(19) for d in (-1, 0, 1)]
        assert format_rows("", n, np.zeros((0, len(n)))) == "".join(
            f"{i}\n" for i in n).encode()

    def test_no_rows(self):
        assert format_rows("a,", [], np.zeros((3, 0))) == b""

    def test_any_prefix_text(self):
        # the prefix is written as UTF-8; a lone surrogate, as an
        # undecodable file name gives, has no UTF-8 and is refused
        prefix = "été,b,"
        assert format_rows(prefix, [1], [[0.5]]) == f"{prefix}1,0.5\n".encode()
        with pytest.raises(UnicodeEncodeError):
            format_rows("été\udcff,b,", [1], [[0.5]])

    def test_strided_columns_read_in_place(self):
        # record array fields and reversed views, as run traces hand them
        rec = np.zeros(7, dtype=SAMPLE_DTYPE)
        rec["n"] = np.arange(0, 70, 10)
        rec["kappa"] = [1e-5, 1e-5, 2.5e-5, 0.0, 0.0, -1.0, 1e300]
        rec["error"] = np.linspace(-1.0, 1.0, 7)
        columns = [rec["error"], rec["kappa"][::-1], rec["error"][::-1]]
        assert format_rows("s,", rec["n"], columns) == repr_rows(
            "s,", rec["n"].tolist(), [c.tolist() for c in columns])

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="format_rows needs"):
            format_rows("", [1, 2], [[0.5]])
        with pytest.raises(ValueError, match="format_rows needs"):
            format_rows("", [[1]], [[0.5]])


NAN_A, NAN_B = np.array([0x7FF8000000000000, 0xFFF0000000000001],
                        dtype=np.uint64).view(np.float64)
SUBNORMAL = math.nextafter(sys.float_info.min, 0.0)


class TestRepeats:
    """A value with the bits of the one above it copies that one's text;
    every case must still read as repr."""

    @pytest.mark.parametrize("column", [
        [0.5] * 6,  # a run of equal values, row 0 included
        [1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0],  # runs that end and restart
        [0.0, -0.0, 0.0, 0.0, -0.0, -0.0],  # other bits, other text
        [NAN_A, NAN_A, NAN_B, NAN_B, NAN_A],  # payloads differ, text does not
        [math.inf, math.inf, -math.inf, -math.inf, math.inf],
        [5e-324, 5e-324, SUBNORMAL, SUBNORMAL, -5e-324, -5e-324],
        [1e-5, 1e-5, 1.0000000000000002e-05, 1e-5, 1e22, 1e22, 1e23],
    ])
    def test_one_column(self, column):
        n = list(range(len(column)))
        assert format_rows("a,", n, [column]) == repr_rows("a,", n, [column])

    def test_five_columns_repeat_one_at_a_time(self):
        # column j holds runs of j + 1 equal values, so in most rows some
        # columns repeat the row above while the others change
        rng = np.random.default_rng(17)
        values = rng.standard_normal((5, 40)) * 10.0 ** rng.integers(
            -8, 8, size=(5, 40))
        columns = np.array([np.repeat(values[j], j + 1)[:40] for j in range(5)])
        columns[1, 30:] = -0.0
        columns[3, 20:] = math.nan
        repeats = columns[:, 1:].view(np.uint64) == columns[:, :-1].view(np.uint64)
        assert repeats.any(axis=0).sum() > 30 and not repeats.all(axis=0).any()
        n = np.arange(40) * 100
        assert format_rows("p,", n, columns) == repr_rows("p,", n, columns)

    def test_row_zero_has_no_row_above(self):
        # the first row is formatted even when its bits equal the last
        # row of another call, or the columns hold the same value
        for column in ([0.0], [0.5], [math.nan]):
            assert format_rows("", [0], [column, column]) == repr_rows(
                "", [0], [column, column])
        assert format_rows("", [1, 2], [[0.5, 0.5], [0.5, 0.25]]) == \
            b"1,0.5,0.5\n2,0.5,0.25\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1e-5, math.inf, NAN_A,
                                     NAN_B, 5e-324, 1e16]), min_size=1,
                    max_size=30))
    def test_hypothesis_runs(self, column):
        n = list(range(len(column)))
        assert format_rows("", n, [column, column[::-1]]) == repr_rows(
            "", n, [column, column[::-1]])


def test_pow5_tables_are_exact():
    # pow5[i] is 5^i to 125 bits, inv[q] the least 2^k / 5^q above it
    inv, pow5 = pow5_tables()
    assert inv.shape == (342, 2) and pow5.shape == (326, 2)
    value = [int(lo) | int(hi) << 64 for lo, hi in inv.tolist()]
    for q, v in enumerate(value):
        k = (5**q).bit_length() - 1 + 125
        assert (v - 1) * 5**q <= 1 << k < v * 5**q
    value = [int(lo) | int(hi) << 64 for lo, hi in pow5.tolist()]
    for i, v in enumerate(value):
        assert v.bit_length() == 125
        shift = (5**i).bit_length() - 125
        if shift > 0:
            assert v << shift <= 5**i < (v + 1) << shift
        else:
            assert v == 5**i << -shift


def rows_of(size: int, seed: int):
    rng = np.random.default_rng(seed)
    return (f"s{seed},", np.arange(size) * 3,
            rng.standard_normal((5, size)) * 10.0 ** rng.integers(
                -300, 300, size=(5, size)))


class TestBuffer:
    """Each call formats into an array of its own and returns a view of the
    bytes it wrote; no later call, on any thread, writes over them."""

    def test_a_result_keeps_its_bytes(self):
        # large, then small and empty calls, on this thread and on another;
        # every result is read only after all of them have run
        sizes = (3000, 2, 3000, 0, 40, 3000, 1)
        rows = [rows_of(size, seed) for seed, size in enumerate(sizes)]

        def one(i):
            return format_rows(*rows[i])

        with ThreadPoolExecutor(1) as pool:
            other = pool.submit
            got = [one(0), one(1), other(one, 2).result(),
                   other(one, 3).result(), other(one, 4).result(), one(5),
                   one(6)]
        for text, job in zip(got, rows):
            assert text == repr_rows(*job)
        views = [np.frombuffer(view, np.uint8) for view in got]
        assert not any(np.shares_memory(a, b)
                       for a, b in itertools.combinations(views, 2))

    def test_threads_format_at_once(self):
        # more threads than this machine is likely to have cores, switching
        # as often as the interpreter can
        jobs = [rows_of(size, seed) for seed, size in enumerate(
            [2000, 5, 1500, 0, 2000, 30, 700, 1, 1999, 12] * 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(lambda job: format_rows(*job), jobs,
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [repr_rows(*job) for job in jobs]
