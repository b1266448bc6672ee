"""The compiled CSV formatter (``filtercore.format_rows``) against Python.

Tolerance zero: every value's text must equal ``repr(float(v))`` and every
integer's ``str(int)``, character for character.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zapvss.filtercore import format_rows, pow5_tables

RANDOM_PATTERNS = 1 << 20
CHUNK = 1 << 17


def mismatches(values) -> list[tuple[str, str, str]]:
    """(hex, formatted, repr) of every value whose text differs from repr."""
    values = np.asarray(values, dtype=np.float64)
    got = format_rows("", np.zeros(values.size), [values]).splitlines()
    want = list(map(repr, values.tolist()))
    assert len(got) == len(want)
    return [(float(v).hex(), g[2:], w) for v, g, w in
            zip(values.tolist(), got, want) if g != "0," + w]


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
        assert format_rows("", [0] * len(values), [values]).splitlines() == [
            "0,inf", "0,-inf", "0,nan", "0,nan", "0,nan", "0,nan", "0,nan"]

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
        assert format_rows("pre,", n, columns) == want

    def test_integers_are_their_str(self):
        n = [0, 1, 9, 10, 99, 100, -1, -10, 2**63 - 1, -2**63]
        n += [10**k + d for k in range(19) for d in (-1, 0, 1)]
        assert format_rows("", n, np.zeros((0, len(n)))) == "".join(
            f"{i}\n" for i in n)

    def test_no_rows(self):
        assert format_rows("a,", [], np.zeros((3, 0))) == ""

    def test_any_prefix_text(self):
        # a label is any str without a comma or a line break, a lone
        # surrogate of an undecodable file name included
        prefix = "été\udcff,b,"
        assert format_rows(prefix, [1], [[0.5]]) == f"{prefix}1,0.5\n"

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="format_rows needs"):
            format_rows("", [1, 2], [[0.5]])
        with pytest.raises(ValueError, match="format_rows needs"):
            format_rows("", [[1]], [[0.5]])


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
