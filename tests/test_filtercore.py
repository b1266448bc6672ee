"""The scalar reference recursion of ``oracles.py`` (``step``,
``predict_error``, ``apply_update``), which the batched engine
``zapvss.filtercore`` is tested against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (DivergenceError, apply_update, make_controller,
                     predict_error, sign_vec, step)

finite_vectors = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=16),
    elements=st.floats(-1e6, 1e6, allow_nan=False))


class TestSignVec:
    def test_mixed(self):
        assert np.array_equal(sign_vec([0, 2.5, -3]), [0, 1, -1])

    def test_zero_vector(self):
        assert np.array_equal(sign_vec(np.zeros(4)), np.zeros(4))

    @given(finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_bounded(self, w):
        s = sign_vec(w)
        assert np.array_equal(sign_vec(s), s)
        assert np.all(np.isin(s, (-1.0, 0.0, 1.0)))


class TestPredictError:
    def test_zero_filter_returns_d(self):
        assert predict_error(np.zeros(3), [1.0, 2.0, 3.0], 5.0) == 5.0

    def test_perfect_model_zero_error(self):
        h = np.array([0.3, -0.7, 1.1])
        x = np.array([2.0, 0.5, -1.0])
        assert predict_error(h, x, float(np.dot(x, h))) == 0.0

    def test_hand_value(self):
        assert predict_error([0.5, -0.5], [2.0, 4.0], 1.0) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            predict_error([1.0], [1.0, 2.0], 0.0)


class TestApplyUpdate:
    def test_plain_lms_step(self):
        out = apply_update(np.zeros(2), [1.0, 1.0], e=1.0, mu=0.5, kappa=0.0)
        assert np.array_equal(out, [0.5, 0.5])

    def test_pure_attraction_step(self):
        out = apply_update(np.array([0.5, -0.5]), np.zeros(2), e=0.0,
                           mu=0.1, kappa=0.1)
        assert np.allclose(out, [0.4, -0.4], rtol=0, atol=1e-15)

    def test_fixed_point_when_quiet(self):
        w = np.array([0.25, -1.5, 0.0])
        out = apply_update(w, [1.0, 2.0, 3.0], e=0.0, mu=0.7, kappa=0.0)
        assert np.array_equal(out, w)

    def test_attraction_shrinks_magnitude(self):
        # with no gradient term, |w'| = |w| - kappa whenever kappa <= |w|
        w = np.array([0.5, -0.2, 0.05])
        kappa = 0.05
        out = apply_update(w, np.zeros(3), e=0.0, mu=0.1, kappa=kappa)
        assert np.allclose(np.abs(out), np.abs(w) - kappa, atol=1e-15)
        assert np.all(np.sign(out) == np.concatenate(
            (np.sign(w[:2]), [0.0])))

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError):
            apply_update(np.zeros(2), [1.0, 1.0], e=np.inf, mu=0.5, kappa=0.0)

    def test_non_finite_mu_rejected(self):
        with pytest.raises(ValueError):
            apply_update(np.zeros(2), [1.0, 1.0], e=1.0, mu=np.inf, kappa=0.0)


def _reference_za_lms(xs, ds, mu, kappa):
    """Direct recomputation of the recursion with plain python floats."""
    L = len(xs[0])
    w = [0.0] * L
    out = []
    for x, d in zip(xs, ds):
        e = d - sum(x[i] * w[i] for i in range(L))
        sgn = [(0.0 if wi == 0.0 else (1.0 if wi > 0.0 else -1.0)) for wi in w]
        w = [w[i] + mu * x[i] * e - kappa * sgn[i] for i in range(L)]
        out.append((e, list(w)))
    return out


class TestStep:
    def test_zero_kappa_reduces_to_lms(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((50, 4))
        ds = rng.standard_normal(50)
        w_a = np.zeros(4)
        w_b = np.zeros(4)
        zap = make_controller("lms", {}, 0.1)
        for x, d in zip(xs, ds):
            _, _, w_a = step(w_a, x, d, 0.1, zap)
            e = predict_error(w_b, x, d)
            w_b = w_b + 0.1 * e * x
        assert np.array_equal(w_a, w_b)

    def test_first_step_from_zero_matches_lms(self):
        # sign of the zero vector vanishes, so kappa cannot act yet
        x = np.array([1.0, -2.0, 0.5])
        d = 3.0
        _, _, with_zap = step(np.zeros(3), x, d, 0.2,
                              make_controller("fixed_zap", {"kappa0": 0.05},
                                              0.2))
        _, _, plain = step(np.zeros(3), x, d, 0.2,
                           make_controller("lms", {}, 0.2))
        assert np.array_equal(with_zap, plain)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(123)
        steps = 100
        xs = rng.standard_normal((steps, 4))
        ds = rng.standard_normal(steps)
        mu, kappa = 0.05, 0.01
        reference = _reference_za_lms(xs.tolist(), ds.tolist(), mu, kappa)
        w = np.zeros(4)
        ctl = make_controller("fixed_zap", {"kappa0": kappa}, mu)
        for n in range(steps):
            e, _, w = step(w, xs[n], ds[n], mu, ctl)
            e_ref, w_ref = reference[n]
            assert abs(e - e_ref) <= 1e-12 * max(1.0, abs(e_ref))
            err = np.linalg.norm(w - np.array(w_ref))
            assert err <= 1e-12 * max(1.0, np.linalg.norm(w_ref))

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError):
            step(np.zeros(2), [1e200, 1e200], 1e200, 1e200,
                 make_controller("lms", {}, 1e200))
