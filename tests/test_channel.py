import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zapvss.channel import (Channel, ChannelFormatError, generate_dispersive,
                            generate_sparse, load_channel, save_channel)
from zapvss.metrics import sparsity_xi


def _xi_direct(taps):
    # independent evaluation of the sparsity formula, plain python
    L = len(taps)
    l1 = sum(abs(float(t)) for t in taps)
    l2 = math.sqrt(sum(float(t) ** 2 for t in taps))
    return L / (L - math.sqrt(L)) * (1.0 - l1 / (math.sqrt(L) * l2))


class TestGenerateSparse:
    def test_nonzero_count(self):
        ch = generate_sparse(8, 2, 42)
        assert int(np.count_nonzero(ch.taps)) == 2
        assert ch.L == 8

    def test_determinism(self):
        a = generate_sparse(8, 2, 42)
        b = generate_sparse(8, 2, 42)
        assert np.array_equal(a.taps, b.taps)

    def test_different_seeds_differ(self):
        a = generate_sparse(64, 8, 1)
        b = generate_sparse(64, 8, 2)
        assert not np.array_equal(a.taps, b.taps)

    @given(st.integers(2, 64), st.integers(0, 1000), st.data())
    @settings(max_examples=50, deadline=None)
    def test_nonzero_count_property(self, L, seed, data):
        active = data.draw(st.integers(1, L))
        ch = generate_sparse(L, active, seed)
        assert int(np.count_nonzero(ch.taps)) == active

    def test_sparse_xi_monte_carlo(self):
        # 512-tap, 16-active channels stay clearly sparse for every seed
        values = [_xi_direct(generate_sparse(512, 16, seed).taps)
                  for seed in range(100)]
        assert min(values) > 0.8

    @pytest.mark.parametrize("active", [0, 9, -1])
    def test_active_count_out_of_range(self, active):
        with pytest.raises(ValueError):
            generate_sparse(8, active, 42)

    def test_L_too_small(self):
        with pytest.raises(ValueError):
            generate_sparse(1, 1, 0)


class TestGenerateDispersive:
    def test_all_taps_nonzero(self):
        ch = generate_dispersive(512, 7, decay=0.0)
        assert int(np.count_nonzero(ch.taps)) == 512

    def test_determinism(self):
        a = generate_dispersive(512, 7)
        b = generate_dispersive(512, 7)
        assert np.array_equal(a.taps, b.taps)

    def test_dispersive_xi_monte_carlo(self):
        # i.i.d. Gaussian taps concentrate the sparsity near 0.21
        values = [_xi_direct(generate_dispersive(512, seed).taps)
                  for seed in range(100)]
        assert max(values) < 0.4

    def test_decay_applies_exponential_envelope(self):
        flat = generate_dispersive(64, 3, decay=0.0)
        shaped = generate_dispersive(64, 3, decay=2.0)
        envelope = np.exp(-2.0 * np.arange(64) / 64)
        assert np.allclose(shaped.taps, flat.taps * envelope, rtol=1e-15)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            generate_dispersive(8, 0, decay=-0.1)


class TestChannelInvariants:
    def test_taps_read_only(self):
        ch = generate_sparse(8, 2, 0)
        with pytest.raises(ValueError):
            ch.taps[0] = 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Channel(np.zeros(4))


class TestChannelFile:
    def test_round_trip_two_taps(self, tmp_path):
        ch = Channel(np.array([1.0, -0.5]))
        path = tmp_path / "ch.txt"
        save_channel(ch, path)
        loaded = load_channel(path)
        assert np.array_equal(loaded.taps, ch.taps)

    def test_round_trip_generated_sparse_exact(self, tmp_path):
        ch = generate_sparse(8, 2, 42)
        path = tmp_path / "sp.txt"
        save_channel(ch, path)
        loaded = load_channel(path)
        assert np.array_equal(loaded.taps, ch.taps)
        assert sparsity_xi(loaded.taps) == sparsity_xi(ch.taps)

    def test_round_trip_through_file_objects(self):
        ch = generate_dispersive(16, 5)
        buf = io.StringIO()
        save_channel(ch, buf)
        buf.seek(0)
        loaded = load_channel(buf)
        assert np.array_equal(loaded.taps, ch.taps)

    def test_round_trip_extreme_values(self, tmp_path):
        ch = Channel(np.array([1e-300, -1.2345678901234567e2, 3e200]))
        path = tmp_path / "ext.txt"
        save_channel(ch, path)
        assert np.array_equal(load_channel(path).taps, ch.taps)

    @given(hnp.arrays(np.float64, st.integers(2, 40),
                      elements=st.floats(allow_nan=False, allow_infinity=False)
                      | st.just(0.0)).filter(np.any))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, taps):
        ch = Channel(taps)
        buf = io.StringIO()
        save_channel(ch, buf)
        buf.seek(0)
        loaded = load_channel(buf)
        # bit for bit, so the sign of a zero tap survives too
        assert loaded.taps.tobytes() == ch.taps.tobytes()

    def test_count_mismatch_names_line(self):
        with pytest.raises(ChannelFormatError, match="line"):
            load_channel(io.StringIO("L=3\n1.0\n2.0\n"))

    def test_too_many_taps(self):
        with pytest.raises(ChannelFormatError, match="expected 2 tap lines"):
            load_channel(io.StringIO("L=2\n1.0\n2.0\n3.0\n"))

    def test_bad_header(self):
        with pytest.raises(ChannelFormatError, match="line 1"):
            load_channel(io.StringIO("length=3\n1.0\n"))

    def test_non_numeric_line_named(self):
        with pytest.raises(ChannelFormatError, match="line 3"):
            load_channel(io.StringIO("L=2\n1.0\nbogus\n"))

    def test_non_finite_tap_rejected(self):
        with pytest.raises(ChannelFormatError, match="finite"):
            load_channel(io.StringIO("L=2\n1.0\ninf\n"))
