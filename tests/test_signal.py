import math

import numpy as np
import pytest

from oracles import regressor_at
from zapvss.channel import Channel, generate_sparse
from zapvss.signal import ChannelSchedule, generate_input, synthesize_desired


def _impulse(scale=1.0, L=2):
    taps = np.zeros(L)
    taps[0] = scale
    return Channel(taps)


class TestGenerateInput:
    def test_sample_variance_near_unit(self):
        # chi-square bound at N=1e4: sample variance within ~4 sigma of 1
        x = generate_input(10_000, seed=1, sigma_x=1.0)
        assert 0.94 <= float(np.var(x)) <= 1.06

    def test_determinism(self):
        assert np.array_equal(generate_input(100, 7), generate_input(100, 7))

    def test_sigma_scales_exactly(self):
        assert np.array_equal(generate_input(100, 3, sigma_x=2.0),
                              2.0 * generate_input(100, 3, sigma_x=1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_input(0, 1)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            generate_input(10, 1, sigma_x=0.0)


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
    def test_requires_first_segment_at_zero(self):
        with pytest.raises(ValueError):
            ChannelSchedule(((5, _impulse()),))

    def test_requires_increasing_starts(self):
        with pytest.raises(ValueError):
            ChannelSchedule(((0, _impulse()), (5, _impulse()), (5, _impulse())))

    def test_requires_single_length(self):
        with pytest.raises(ValueError):
            ChannelSchedule(((0, _impulse(L=2)), (5, _impulse(L=3))))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            ChannelSchedule(())

    def test_channel_at(self):
        a, b = _impulse(1.0), _impulse(2.0)
        sched = ChannelSchedule(((0, a), (5, b)))
        assert sched.channel_at(0) is a
        assert sched.channel_at(4) is a
        assert sched.channel_at(5) is b
        assert sched.channel_at(100) is b


class TestSynthesizeDesired:
    def test_noise_free_is_exact(self):
        x = generate_input(500, 11)
        sched = ChannelSchedule(((0, generate_sparse(16, 4, 3)),))
        out = synthesize_desired(x, sched, math.inf, noise_seed=5)
        assert np.array_equal(out.d, out.clean)
        assert out.noise_variance == 0.0

    def test_identity_channel_returns_input(self):
        x = generate_input(200, 2)
        sched = ChannelSchedule(((0, _impulse()),))
        out = synthesize_desired(x, sched, math.inf, noise_seed=0)
        assert np.array_equal(out.d, x)

    def test_realized_snr_within_band(self):
        x = generate_input(10_000, 4)
        sched = ChannelSchedule(((0, generate_sparse(64, 8, 9)),))
        out = synthesize_desired(x, sched, 30.0, noise_seed=6)
        noise = out.d - out.clean
        realized = 10.0 * math.log10(float(np.mean(out.clean**2))
                                     / float(np.mean(noise**2)))
        assert 29.8 <= realized <= 30.2

    def test_noise_seed_changes_d_not_clean(self):
        x = generate_input(300, 8)
        sched = ChannelSchedule(((0, generate_sparse(16, 4, 3)),))
        a = synthesize_desired(x, sched, 20.0, noise_seed=1)
        b = synthesize_desired(x, sched, 20.0, noise_seed=2)
        assert np.array_equal(a.clean, b.clean)
        assert not np.array_equal(a.d, b.d)

    def test_determinism(self):
        x = generate_input(300, 8)
        sched = ChannelSchedule(((0, generate_sparse(16, 4, 3)),))
        a = synthesize_desired(x, sched, 20.0, noise_seed=1)
        b = synthesize_desired(x, sched, 20.0, noise_seed=1)
        assert np.array_equal(a.d, b.d)

    def test_segments_use_their_own_channel(self):
        x = generate_input(40, 13)
        sched = ChannelSchedule(((0, _impulse(1.0)), (20, _impulse(2.0))))
        out = synthesize_desired(x, sched, math.inf, noise_seed=0)
        assert np.array_equal(out.clean[:20], x[:20])
        assert np.array_equal(out.clean[20:], 2.0 * x[20:])

    def test_clean_matches_regressor_definition(self):
        # the convolution path must agree with the per-sample regressor dot
        x = generate_input(64, 21)
        ch = generate_sparse(8, 3, 17)
        sched = ChannelSchedule(((0, ch),))
        out = synthesize_desired(x, sched, math.inf, noise_seed=0)
        direct = np.array([float(np.dot(regressor_at(x, n, 8), ch.taps))
                           for n in range(64)])
        assert np.allclose(out.clean, direct, rtol=1e-12, atol=1e-14)

    def test_bad_snr_rejected(self):
        x = generate_input(10, 1)
        sched = ChannelSchedule(((0, _impulse()),))
        with pytest.raises(ValueError):
            synthesize_desired(x, sched, -math.inf, noise_seed=0)
        with pytest.raises(ValueError):
            synthesize_desired(x, sched, math.nan, noise_seed=0)
