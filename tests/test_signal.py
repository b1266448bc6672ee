import math

import numpy as np
import pytest

from oracles import regressor_at
from zapvss.channel import generate_sparse
from zapvss.signal import generate_input, synthesize_desired


def _impulse(scale=1.0, L=2):
    taps = np.zeros(L)
    taps[0] = scale
    return taps


def _one_span(x, taps):
    return [(0, len(x), taps)]


class TestGenerateInput:
    def test_sample_variance_near_unit(self):
        # chi-square bound at N=1e4: sample variance within ~4 sigma of 1
        x = generate_input(10_000, seed=1)
        assert 0.94 <= float(np.var(x)) <= 1.06

    def test_determinism(self):
        assert np.array_equal(generate_input(100, 7), generate_input(100, 7))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_input(0, 1)


class TestRegressorAt:
    def test_start_zero_padded(self):
        assert np.array_equal(regressor_at([5, 7, 9], 0, 3), [5, 0, 0])

    def test_full_window(self):
        assert np.array_equal(regressor_at([5, 7, 9], 2, 3), [9, 7, 5])

    def test_short_window(self):
        assert np.array_equal(regressor_at([5, 7, 9], 2, 2), [9, 7])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            regressor_at([5, 7, 9], 3, 2)
        with pytest.raises(ValueError):
            regressor_at([5, 7, 9], -1, 2)


class TestChannelSchedule:
    def test_channel_at(self):
        # the spans are the channel schedule: the first and last sample of
        # each span follow that span's taps, none of its neighbour's
        x = generate_input(100, 5)
        spans = [(0, 5, _impulse(1.0)), (5, 100, _impulse(2.0))]
        out = synthesize_desired(x, spans, math.inf, noise_seed=0)
        for n, scale in ((0, 1.0), (4, 1.0), (5, 2.0), (99, 2.0)):
            assert out.clean[n] == scale * x[n]


class TestSynthesizeDesired:
    def test_noise_free_is_exact(self):
        x = generate_input(500, 11)
        spans = _one_span(x, generate_sparse(16, 4, 3).taps)
        out = synthesize_desired(x, spans, math.inf, noise_seed=5)
        assert np.array_equal(out.d, out.clean)
        assert out.noise_variance == 0.0

    def test_identity_channel_returns_input(self):
        x = generate_input(200, 2)
        out = synthesize_desired(x, _one_span(x, _impulse()), math.inf,
                                 noise_seed=0)
        assert np.array_equal(out.d, x)

    def test_realized_snr_within_band(self):
        x = generate_input(10_000, 4)
        spans = _one_span(x, generate_sparse(64, 8, 9).taps)
        out = synthesize_desired(x, spans, 30.0, noise_seed=6)
        noise = out.d - out.clean
        realized = 10.0 * math.log10(float(np.mean(out.clean**2))
                                     / float(np.mean(noise**2)))
        assert 29.8 <= realized <= 30.2

    def test_noise_seed_changes_d_not_clean(self):
        x = generate_input(300, 8)
        spans = _one_span(x, generate_sparse(16, 4, 3).taps)
        a = synthesize_desired(x, spans, 20.0, noise_seed=1)
        b = synthesize_desired(x, spans, 20.0, noise_seed=2)
        assert np.array_equal(a.clean, b.clean)
        assert not np.array_equal(a.d, b.d)

    def test_determinism(self):
        x = generate_input(300, 8)
        spans = _one_span(x, generate_sparse(16, 4, 3).taps)
        a = synthesize_desired(x, spans, 20.0, noise_seed=1)
        b = synthesize_desired(x, spans, 20.0, noise_seed=1)
        assert np.array_equal(a.d, b.d)

    def test_segments_use_their_own_channel(self):
        x = generate_input(40, 13)
        spans = [(0, 20, _impulse(1.0)), (20, 40, _impulse(2.0))]
        out = synthesize_desired(x, spans, math.inf, noise_seed=0)
        assert np.array_equal(out.clean[:20], x[:20])
        assert np.array_equal(out.clean[20:], 2.0 * x[20:])

    def test_clean_matches_regressor_definition(self):
        # the convolution path must agree with the per-sample regressor dot
        x = generate_input(64, 21)
        ch = generate_sparse(8, 3, 17)
        out = synthesize_desired(x, _one_span(x, ch.taps), math.inf,
                                 noise_seed=0)
        direct = np.array([float(np.dot(regressor_at(x, n, 8), ch.taps))
                           for n in range(64)])
        assert np.allclose(out.clean, direct, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("L", [8, 32])
    @pytest.mark.parametrize("change", [1, 5, -2, -1, 0, 40])
    def test_spans_equal_the_full_convolution(self, L, change):
        # each span convolves only its own slice of the input (and the L - 1
        # samples before it); that must give the full convolution's values
        # bit for bit, for a change before L - 1 too (change <= 0: L + change)
        change_at = change if change > 0 else L + change
        x = generate_input(3 * L + 50, 31)
        rng = np.random.default_rng(L)
        before, after = rng.standard_normal(L), rng.standard_normal(L)
        spans = [(0, change_at, before), (change_at, x.size, after)]
        out = synthesize_desired(x, spans, math.inf, noise_seed=0)
        assert np.array_equal(out.clean[:change_at],
                              np.convolve(x, before)[:change_at])
        assert np.array_equal(out.clean[change_at:],
                              np.convolve(x, after)[change_at:x.size])

    def test_bad_snr_rejected(self):
        x = generate_input(10, 1)
        spans = _one_span(x, _impulse())
        with pytest.raises(ValueError):
            synthesize_desired(x, spans, -math.inf, noise_seed=0)
        with pytest.raises(ValueError):
            synthesize_desired(x, spans, math.nan, noise_seed=0)
