import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (misalignment_db, norms, sign_agreement, smoothed_mse,
                     sparsity_xi)


class TestNorms:
    def test_unit_pair(self):
        assert norms([1.0, -1.0]) == (2.0, pytest.approx(math.sqrt(2)))

    def test_zero_vector(self):
        assert norms(np.zeros(5)) == (0.0, 0.0)

    def test_three_four(self):
        assert norms([3.0, 4.0]) == (7.0, 5.0)


class TestMisalignment:
    def test_exact_match_is_neg_inf(self):
        h = np.array([0.2, -0.4, 1.0])
        assert misalignment_db(h, h.copy()) == -math.inf

    def test_zero_filter_is_zero_db(self):
        assert misalignment_db([1.0, -2.0], [0.0, 0.0]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert misalignment_db([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            20.0 * math.log10(math.sqrt(2)), abs=1e-9)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            misalignment_db([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            misalignment_db([1.0, 0.0], [1.0])

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(12)
        w = rng.standard_normal(12)
        perm = rng.permutation(12)
        assert misalignment_db(h[perm], w[perm]) == pytest.approx(
            misalignment_db(h, w), rel=1e-12)


class TestSparsity:
    def test_one_sparse_is_one(self):
        for L in (2, 5, 100):
            taps = np.zeros(L)
            taps[L // 2] = -3.7
            assert sparsity_xi(taps) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_magnitude_is_zero(self):
        assert sparsity_xi([0.5, -0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert sparsity_xi([1.0, 1.0, 0.0, 0.0]) == pytest.approx(
            2.0 * (1.0 - 1.0 / math.sqrt(2)), abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sparsity_xi(np.zeros(4))

    def test_single_tap_rejected(self):
        with pytest.raises(ValueError):
            sparsity_xi([1.0])

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = sparsity_xi(rng.standard_normal(8))
            assert 0.0 <= v <= 1.0

    @given(st.integers(0, 2**31),
           st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, c):
        h = np.random.default_rng(seed).standard_normal(10)
        assert sparsity_xi(c * h) == pytest.approx(sparsity_xi(h), rel=1e-9)


class TestSignAgreement:
    def test_perfect(self):
        h = np.array([1.0, -2.0, 0.0, 3.0])
        assert sign_agreement(h, h.copy()) == 1.0

    def test_total_disagreement(self):
        h = np.array([1.0, -1.0, 2.0, -2.0])
        assert sign_agreement(h, -h) == 0.0

    def test_hand_count(self):
        h = np.array([1.0, -1.0, 2.0, -2.0])
        w = np.array([1.0, -1.0, -2.0, 2.0])
        assert sign_agreement(h, w) == 0.5

    def test_active_scope_ignores_zero_taps(self):
        h = np.array([1.0, 0.0, 0.0, -1.0])
        w = np.array([2.0, 5.0, -5.0, -0.1])  # wild on the zeros, right on h
        assert sign_agreement(h, w) == 1.0

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError):
            sign_agreement(np.zeros(3), np.ones(3))

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_on_zero_free_vectors(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(9)
        w = rng.standard_normal(9)
        assert sign_agreement(h, w) == sign_agreement(w, h)


class TestSmoothedMse:
    def test_no_memory_at_beta_one(self):
        assert smoothed_mse(7.0, 2.0, beta=1.0) == 4.0

    def test_pure_decay_on_zero_error(self):
        assert smoothed_mse(4.0, 0.0, beta=0.25) == 3.0

    def test_hand_value(self):
        assert smoothed_mse(4.0, 2.0, beta=0.5) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            smoothed_mse(-1.0, 0.0, beta=0.5)
        with pytest.raises(ValueError):
            smoothed_mse(1.0, 0.0, beta=0.0)
