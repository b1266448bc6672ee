import math

import numpy as np
import pytest

from oracles import clean_echo, regressor_at
from zapvss import filtercore
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
        # each span's samples are those of its taps' echo of the whole input,
        # bit for bit in the kernel's order, for a change before L - 1 too
        # (change <= 0: L + change); np.convolve sums in another order, so
        # it agrees to rounding: within 1e-12 of the sum of |h[k] x[n-k]|
        change_at = change if change > 0 else L + change
        x = generate_input(3 * L + 50, 31)
        rng = np.random.default_rng(L)
        before, after = rng.standard_normal(L), rng.standard_normal(L)
        spans = [(0, change_at, before), (change_at, x.size, after)]
        out = synthesize_desired(x, spans, math.inf, noise_seed=0)
        for start, stop, h in spans:
            got = out.clean[start:stop]
            assert got.tobytes() == clean_echo(x, h)[start:stop].tobytes()
            full = np.convolve(x, h)[start:stop]
            scale = np.convolve(np.abs(x), np.abs(h))[start:stop]
            assert (np.abs(got - full) <= 1e-12 * scale).all()

    def test_bad_snr_rejected(self):
        x = generate_input(10, 1)
        spans = _one_span(x, _impulse())
        with pytest.raises(ValueError):
            synthesize_desired(x, spans, -math.inf, noise_seed=0)
        with pytest.raises(ValueError):
            synthesize_desired(x, spans, math.nan, noise_seed=0)


def _echo_path(L, seed):
    """L normal taps, about a third of them exact zeros, half of those -0.0."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(L)
    zero = rng.random(L) < 0.35
    h[zero] = 0.0
    h[zero & (rng.random(L) < 0.5)] = -0.0
    return h


# (L, N, change_at): a change after the first L - 1 samples, before them,
# at the first sample after the start, N below L, several 512-sample tiles
# of the kernel with changes inside them, and taps beyond a tile
ECHO_CASES = sorted({(L, N, change) for L in (1, 3, 17, 61)
                     for N, change in ((3 * L + 50, None), (3 * L + 50, L + 7),
                                       (3 * L + 50, 1),
                                       (3 * L + 50, max(1, L // 2)),
                                       (1300, 530))}
                    | {(61, 20, None), (61, 20, 7), (17, 5, 2),
                       (600, 2000, 700)}, key=str)


class TestEcho:
    @pytest.mark.parametrize("L, N, change_at", ECHO_CASES)
    def test_equals_the_ascending_tap_oracle_bit_for_bit(self, L, N,
                                                        change_at):
        x = generate_input(N, L + N)
        before, after = _echo_path(L, 1), _echo_path(L, 2)
        spans = ([(0, N, before)] if change_at is None else
                 [(0, change_at, before), (change_at, N, after)])
        got = filtercore.echo(x, spans)
        for start, stop, h in spans:
            want = clean_echo(x, h)[start:stop]
            assert got[start:stop].tobytes() == want.tobytes()

    def test_zero_taps_add_nothing(self):
        # a path of +0.0 or -0.0 taps gives +0.0, and so do the samples
        # before the first nonzero tap: no -0.0 product reaches a sum
        x = generate_input(40, 3)
        for h, zeros in ((np.zeros(5), 40), (np.full(5, -0.0), 40),
                         (np.array([0.0, -0.0, 0.0, 2.0]), 3)):
            got = filtercore.echo(x, [(0, 40, h)])
            assert got.tobytes() == clean_echo(x, h).tobytes()
            assert got[:zeros].tobytes() == bytes(8 * zeros)

    def test_bad_spans_rejected(self):
        x = generate_input(10, 1)
        h = np.ones(3)
        for spans in ([], [(0, 9, h)], [(0, 5, h), (6, 10, h)],
                      [(0, 0, h), (0, 10, h)], [(0, 10, np.ones((1, 3)))],
                      [(0, 10, np.ones(0))]):
            with pytest.raises(ValueError, match="echo needs"):
                filtercore.echo(x, spans)
        with pytest.raises(ValueError, match="echo needs"):
            filtercore.echo(np.zeros((1, 10)), [(0, 10, h)])
