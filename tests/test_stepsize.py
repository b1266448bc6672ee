import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (DivergenceError, ScalarController, kappa_smooth,
                     make_controller, proposed_l1_delta, proposed_norm_delta,
                     step)
from zapvss.harness import AlgorithmConfig, ChannelSpec, ScenarioConfig
from zapvss.stepsize import KINDS, controller_params

MU = 100.0  # a kappa_max default far above every kappa below: no clamping

# every kind (liu with both measures), each with parameters under which it
# moves within a few samples
EVERY_KIND = {
    "lms": ("lms", {}),
    "fixed_zap": ("fixed_zap", {"kappa0": 1e-3}),
    "you": ("you", {"kappa0": 1e-2, "eta": 0.5, "kappa_min": 1e-5,
                    "beta": 0.5, "window": 5, "tolerance": 0.3,
                    "cooldown": 3}),
    "liu": ("liu", {"lambda": 0.3, "alpha": 0.2, "gamma": 0.5}),
    "liu_l1": ("liu", {"lambda": 0.3, "alpha": 0.2, "gamma": 0.5,
                       "measure": "l1"}),
    "proposed_l1": ("proposed_l1", {"alpha": 0.2, "gamma": 0.5,
                                    "kappa_max": 0.3}),
    "proposed_norm": ("proposed_norm", {"alpha": 0.2, "gamma": 0.5,
                                        "w2_floor": 0.5}),
}


def controller(name, rows=1, mu=MU):
    kind, params = EVERY_KIND[name]
    return make_controller(kind, params, mu, rows)


def update(ctl, e, X, W):
    # the per-row reductions the kind reads, from the raw regressors X and
    # weights W; as in both engines: zero filters and regressors, and
    # diverging rows, pass through inf and NaN silently
    with np.errstate(all="ignore"):
        sgn = np.sign(W)
        reductions = {"xx": (X * X).sum(axis=-1), "xs": (X * sgn).sum(axis=-1),
                      "ww": (W * W).sum(axis=-1),
                      "ws": np.abs(W).sum(axis=-1)}
        ctl.bind(X.shape[-1])
        ctl.update(e, *(reductions[r] for r in ctl.spec.reads))


def feed(ctl, e, x, w):
    """One sample through a one-row controller; returns its kappa."""
    update(ctl, np.array([e], dtype=np.float64),
           np.asarray(x, dtype=np.float64).reshape(1, -1),
           np.asarray(w, dtype=np.float64).reshape(1, -1))
    return float(ctl.kappa[0])


def drive(kind, e, x, w, **params):
    """The first kappa from kappa0=0 with alpha*gamma = 1 and a ceiling no
    drive reaches: the kind's drive delta itself, clamped at 0."""
    ctl = make_controller(kind, {"alpha": 0.5, "gamma": 2.0,
                                 "kappa_max": 1e300, **params}, MU)
    return feed(ctl, e, x, w)


def table_smooth(kappa_prev, delta, alpha, gamma):
    """kappa_smooth through the table: liu on the l1 measure of a zero
    filter has delta = -phi."""
    ctl = make_controller("liu", {"lambda": 0.5, "alpha": alpha,
                                  "gamma": gamma, "kappa0": kappa_prev,
                                  "measure": "l1"}, MU)
    ctl.phi[:] = -delta
    return feed(ctl, 0.0, [1.0], [0.0])


class TestFixedKappa:
    def test_constant(self):
        ctl = make_controller("fixed_zap", {"kappa0": 0.001}, MU)
        assert feed(ctl, 5.0, [1.0, 2.0], [0.1, -0.1]) == 0.001
        assert feed(ctl, -3.0, [0.0, 0.0], [9.0, 9.0]) == 0.001

    def test_zero_is_plain_lms(self):
        for kind, params in (("fixed_zap", {"kappa0": 0.0}), ("lms", {})):
            assert feed(make_controller(kind, params, MU), 1.0, [1.0],
                        [1.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="kappa0 must be >= 0"):
            make_controller("fixed_zap", {"kappa0": -1e-6}, MU)


class TestKappaSmooth:
    def test_pure_decay(self):
        assert kappa_smooth(0.2, 0.0, alpha=0.25, gamma=5.0) == 0.75 * 0.2
        assert table_smooth(0.2, 0.0, alpha=0.25, gamma=5.0) == 0.75 * 0.2

    def test_alpha_one_boundary(self):
        # the reference formula only: configs keep alpha inside (0,1)
        assert kappa_smooth(0.2, 0.03, alpha=1.0, gamma=2.0) == 0.06

    def test_hand_value(self):
        assert kappa_smooth(0.1, 0.05, alpha=0.5, gamma=2.0) == pytest.approx(0.1)
        assert table_smooth(0.1, 0.05, alpha=0.5, gamma=2.0) == pytest.approx(0.1)

    def test_clamped_at_zero(self):
        assert kappa_smooth(0.01, -5.0, alpha=0.5, gamma=1.0) == 0.0
        assert table_smooth(0.01, -5.0, alpha=0.5, gamma=1.0) == 0.0


def l1_deltas(e, x, w):
    return proposed_l1_delta(e, x, w), drive("proposed_l1", e, x, w)


class TestProposedL1Delta:
    def test_zero_error(self):
        assert l1_deltas(0.0, [1.0, 2.0], [1.0, 1.0]) == (0.0, 0.0)

    def test_zero_weights(self):
        assert l1_deltas(2.0, [1.0, 2.0], [0.0, 0.0]) == (0.0, 0.0)

    def test_hand_value(self):
        assert l1_deltas(2.0, [1.0, 2.0], [1.0, 1.0]) == pytest.approx((1.2, 1.2))

    def test_zero_regressor(self):
        assert l1_deltas(2.0, [0.0, 0.0], [1.0, 1.0]) == (0.0, 0.0)

    @pytest.mark.parametrize("c", [-2.0, 0.5])
    def test_scale_invariance_exact(self, c):
        e, x, w = 1.3, np.array([0.7, -2.0, 0.1]), np.array([0.5, 0.0, -3.0])
        base = l1_deltas(e, x, w)
        scaled = l1_deltas(c * e, c * x, w)
        assert scaled == base  # powers of two scale exactly

    @given(st.floats(-100, 100), st.data())
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, c, data):
        if abs(c) < 1e-3:
            c = 1.0 + c
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        x = rng.standard_normal(6)
        w = rng.standard_normal(6)
        e = float(rng.standard_normal())
        base = l1_deltas(e, x, w)
        scaled = l1_deltas(c * e, c * np.asarray(x), w)
        assert scaled == pytest.approx(base, rel=1e-12)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        e = float(rng.standard_normal())
        x, w = rng.standard_normal(5), rng.standard_normal(5)
        oracle, table = l1_deltas(e, x, w)
        assert oracle >= 0.0
        assert table == pytest.approx(oracle, rel=1e-12)


def norm_deltas(e, x, w, w2_floor):
    return (proposed_norm_delta(e, x, w, w2_floor),
            drive("proposed_norm", e, x, w, w2_floor=w2_floor))


class TestProposedNormDelta:
    def test_hand_value(self):
        d = norm_deltas(1.0, [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                        w2_floor=1e-2)
        assert d == pytest.approx((0.5, 0.5))

    def test_zero_weights(self):
        assert norm_deltas(1.0, [1.0, 2.0], [0.0, 0.0], 1e-2) == (0.0, 0.0)

    def test_zero_error(self):
        assert norm_deltas(0.0, [1.0, 2.0], [1.0, 1.0], 1e-2) == (0.0, 0.0)

    def test_floor_engages_for_tiny_weights(self):
        w = np.array([1e-6, -1e-6, 1e-6, 1e-6])
        x = np.array([1.0, 1.0, 1.0, 1.0])
        got = norm_deltas(1.0, x, w, w2_floor=0.5)
        base = proposed_l1_delta(1.0, x, w)
        assert got == pytest.approx((base / ((2.0 - 1.0) * 0.5),) * 2)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_l1_delta_scaled(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        L = data.draw(st.integers(2, 12))
        x = rng.standard_normal(L)
        w = rng.standard_normal(L)
        e = float(rng.standard_normal())
        floor = 1e-2
        expected = proposed_l1_delta(e, x, w) / (
            (math.sqrt(L) - 1.0) * max(float(np.linalg.norm(w)), floor))
        assert norm_deltas(e, x, w, floor) == pytest.approx(
            (expected, expected), rel=1e-12)

    def test_needs_more_than_one_tap(self):
        with pytest.raises(ValueError):
            proposed_norm_delta(1.0, [1.0], [1.0], 1e-2)
        # no scenario reaches the table's update with L = 1
        with pytest.raises(ValueError, match="L must be > 1"):
            ScenarioConfig(
                L=1, N=10, snr_db=30.0, mu=0.01,
                channel_before=ChannelSpec(kind="dispersive", seed=1),
                algorithms=[AlgorithmConfig("pn", "proposed_norm",
                                            {"alpha": 0.1, "gamma": 1.0})],
                seeds=[1])


def you(**params):
    return make_controller("you", {"kappa0": 0.01, "eta": 0.5,
                                   "kappa_min": 1e-4, **params}, MU)


class TestConvergenceDetector:
    def test_hand_simulated_plateau(self):
        ctl = you(kappa0=1.0, kappa_min=1e-9, beta=0.5, window=2,
                  tolerance=0.5, cooldown=2)
        # m after each sample: 0.5, 0.75, 0.875, 0.9375 with e=1 throughout;
        # each convergence event halves kappa
        kappas, mses = [], []
        for _ in range(7):
            kappas.append(feed(ctl, 1.0, [1.0], [0.0]))
            mses.append(float(ctl.mse[0]))
        assert mses[:4] == [0.5, 0.75, 0.875, 0.9375]
        assert kappas == [1.0,    # no full window yet
                          1.0,    # still warming up
                          1.0,    # |0.875-0.5|/0.5 = 0.75 >= 0.5
                          0.5,    # |0.9375-0.75|/0.75 = 0.25 < 0.5
                          0.5,    # cooldown
                          0.5,    # cooldown
                          0.25]   # plateau again after cooldown

    def test_no_event_during_decay(self):
        ctl = you(beta=0.2, window=5, tolerance=0.05)
        kappas = [feed(ctl, e, [1.0], [0.0])
                  for e in np.exp(-np.linspace(0, 3, 40))]
        assert kappas == [0.01] * 40

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="beta"):
            you(beta=1.5)
        with pytest.raises(ValueError, match="window"):
            you(window=0)
        with pytest.raises(ValueError, match="tolerance"):
            you(tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance must be > 0 and finite"):
            you(tolerance=math.inf)


class TestYouVss:
    def test_no_event_keeps_kappa(self):
        ctl = you()
        for _ in range(50):  # far less than the detector window
            assert feed(ctl, 1.0, [1.0], [0.0]) == 0.01

    def test_event_multiplies_by_eta(self):
        ctl = you(beta=0.5, window=2, tolerance=0.5, cooldown=2)
        values = [feed(ctl, 1.0, [1.0], [0.0]) for _ in range(4)]
        assert values[:3] == [0.01, 0.01, 0.01]
        assert values[3] == pytest.approx(0.005)

    def test_freezes_at_kappa_min(self):
        ctl = you(kappa0=0.004, kappa_min=0.004, beta=0.5, window=2,
                  tolerance=0.9, cooldown=0)
        for _ in range(100):
            assert feed(ctl, 1.0, [1.0], [0.0]) == 0.004

    def test_long_plateau_converges_to_freeze(self):
        ctl = you(kappa0=1e-3, eta=0.25, kappa_min=1e-6)
        last = None
        for _ in range(5000):
            last = feed(ctl, 1.0, [1.0], [0.0])
        assert last <= 1e-6 / 0.25 + 1e-18  # one factor above the floor
        assert last == feed(ctl, 1.0, [1.0], [0.0])  # frozen

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            you(eta=1.2)
        with pytest.raises(ValueError, match="kappa_min"):
            you(kappa_min=0.0)
        with pytest.raises(ValueError, match="kappa_min must be > 0 and finite"):
            you(kappa_min=math.inf)


def liu(phi0=0.0, **params):
    ctl = make_controller("liu", params, MU)
    ctl.phi[:] = phi0
    return ctl


class TestLiuVss:
    def test_delta_and_phi_hand_values(self):
        ctl = liu(phi0=1.0, **{"lambda": 0.5}, alpha=0.5, gamma=2.0,
                  kappa0=0.1, measure="l1")
        # J(w) = 2.0, so delta = 1.0 and phi becomes 1.5
        kappa = feed(ctl, 0.0, [1.0, 1.0], [1.5, -0.5])
        assert ctl.phi[0] == pytest.approx(1.5)
        assert kappa == pytest.approx(0.5 * 0.1 + 0.5 * 2.0 * 1.0)

    def test_constant_measure_decays_kappa(self):
        ctl = liu(phi0=3.0, **{"lambda": 0.3}, alpha=0.25, gamma=2.0,
                  kappa0=0.08, measure="l1")
        w = [1.5, -1.5]  # l1 norm stays 3.0 = phi0, so delta = 0 forever
        for k in range(1, 6):
            assert feed(ctl, 1.0, [1.0, 0.0], w) == pytest.approx(
                0.08 * 0.75**k)

    def test_smoothing_hand_value(self):
        ctl = liu(**{"lambda": 0.5}, alpha=0.5, gamma=2.0, kappa0=0.1,
                  measure="l1")
        # J = 0.05 gives delta = 0.05: kappa = 0.5*0.1 + 0.5*2*0.05 = 0.1
        assert feed(ctl, 0.0, [1.0, 1.0], [0.05, 0.0]) == pytest.approx(0.1)

    def test_negative_delta_clamped_at_zero(self):
        ctl = liu(phi0=50.0, **{"lambda": 0.5}, alpha=0.9, gamma=10.0,
                  kappa0=0.001, measure="l1")
        assert feed(ctl, 0.0, [1.0, 1.0], [0.1, 0.1]) == 0.0

    def test_xi_measure_handles_zero_weights(self):
        ctl = liu(**{"lambda": 0.5}, alpha=0.5, gamma=1.0)
        assert feed(ctl, 1.0, [1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_xi_measure_uses_sparsity(self):
        ctl = liu(**{"lambda": 1.0 - 1e-9}, alpha=0.5, gamma=2.0,
                  measure="xi")
        feed(ctl, 0.0, [1.0, 1.0], [1.0, 0.0])  # xi of a 1-sparse vector is 1
        assert ctl.phi[0] == pytest.approx(1.0)

    def test_xi_measure_clamped_to_unit_interval(self):
        # unclamped, the norm ratios give xi = 1 + 4e-16 for a 1-sparse
        # 2-tap filter and -5e-16 for a flat 3-tap one
        for w, xi in (([3.0, 0.0], 1.0), ([1.0, 1.0, 1.0], 0.0)):
            ctl = liu(**{"lambda": 0.5}, alpha=0.5, gamma=1.0)
            feed(ctl, 0.0, np.ones(len(w)), w)
            assert ctl.phi[0] == 0.5 * xi

    def test_kappa_max_guard(self):
        ctl = liu(**{"lambda": 0.5}, alpha=0.9, gamma=100.0, measure="l1",
                  kappa_max=0.01)
        assert feed(ctl, 0.0, [1.0, 1.0], [5.0, 5.0]) == 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=r"lambda must be in \(0,1\)"):
            liu(**{"lambda": 1.5}, alpha=0.5, gamma=1.0)
        with pytest.raises(ValueError, match=r"alpha must be in \(0,1\)"):
            liu(**{"lambda": 0.5}, alpha=0.0, gamma=1.0)
        with pytest.raises(ValueError, match="measure"):
            liu(**{"lambda": 0.5}, alpha=0.5, gamma=1.0, measure="l2")
        with pytest.raises(ValueError, match="gamma must be > 0 and finite"):
            liu(**{"lambda": 0.5}, alpha=0.5, gamma=math.inf)
        with pytest.raises(ValueError, match="kappa_max must be > 0 and finite"):
            liu(**{"lambda": 0.5}, alpha=0.5, gamma=1.0, kappa_max=math.inf)


class TestProposedControllers:
    def test_l1_controller_smooths_delta(self):
        ctl = make_controller("proposed_l1", {"alpha": 0.5, "gamma": 2.0,
                                              "kappa0": 0.1}, MU)
        # delta = |2*3|/5 = 1.2: kappa = 0.5*0.1 + 0.5*2*1.2 = 1.25
        assert feed(ctl, 2.0, [1.0, 2.0], [1.0, 1.0]) == pytest.approx(1.25)

    def test_norm_controller_smooths_delta(self):
        ctl = make_controller("proposed_norm", {"alpha": 0.5, "gamma": 2.0,
                                                "w2_floor": 1e-2}, MU)
        # delta = 0.5 on the hand-value inputs
        got = feed(ctl, 1.0, [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        assert got == pytest.approx(0.5 * 2.0 * 0.5)

    def test_kappa_stays_nonnegative_without_clamp_pressure(self):
        rng = np.random.default_rng(5)
        ctl = make_controller("proposed_norm", {"alpha": 0.1, "gamma": 0.5},
                              MU)
        for _ in range(500):
            kappa = feed(ctl, float(rng.standard_normal()),
                         rng.standard_normal(8), rng.standard_normal(8))
            assert kappa >= 0.0 and math.isfinite(kappa)

    def test_kappa_max_guard(self):
        ctl = make_controller("proposed_l1", {"alpha": 0.9, "gamma": 1e6,
                                              "kappa_max": 0.5}, MU)
        assert feed(ctl, 10.0, [1.0, 1.0], [1.0, 1.0]) == 0.5

    @pytest.mark.parametrize("w2_floor", [0.0, math.inf])
    def test_w2_floor_must_be_positive_and_finite(self, w2_floor):
        with pytest.raises(ValueError, match="w2_floor must be > 0 and finite"):
            make_controller("proposed_norm", {"alpha": 0.5, "gamma": 1.0,
                                              "w2_floor": w2_floor}, MU)


class TestMakeController:
    def test_lms_is_zero_fixed(self):
        ctl = make_controller("lms", {}, mu=0.01)
        assert ctl.spec.update is None
        assert ctl.kappa.tolist() == [0.0]
        assert feed(ctl, 1.0, [1.0], [1.0]) == 0.0

    def test_fixed_zap_requires_kappa0(self):
        with pytest.raises(ValueError, match="kappa0"):
            make_controller("fixed_zap", {}, mu=0.01)

    def test_smoothed_controllers_default_guard_to_mu(self):
        for kind in ("liu", "proposed_l1", "proposed_norm"):
            params = {"alpha": 0.1, "gamma": 1.0}
            if kind == "liu":
                params["lambda"] = 0.1
            ctl = make_controller(kind, params, mu=0.0125)
            assert ctl.params["kappa_max"] == 0.0125
            assert ctl.kappa.tolist() == [0.0]

    def test_liu_defaults_to_xi_measure(self):
        ctl = make_controller("liu", {"lambda": 0.1, "alpha": 0.1,
                                      "gamma": 1.0}, mu=0.01)
        assert ctl.params["measure"] == "xi"

    def test_you_detector_params(self):
        ctl = make_controller("you", {"kappa0": 1e-4, "eta": 0.5,
                                      "kappa_min": 1e-6, "window": 50,
                                      "tolerance": 0.1}, mu=0.01, rows=3)
        assert ctl.params["window"] == 50
        assert ctl.params["cooldown"] == 50
        assert ctl.params["beta"] == 0.01
        assert ctl.history.shape == (50, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown algorithm kind"):
            make_controller("nlms", {}, mu=0.01)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key 'rho'"):
            make_controller("fixed_zap", {"kappa0": 1e-6, "rho": 2.0}, mu=0.01)

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="window must be an integer"):
            controller_params("you", {"kappa0": 1e-4, "eta": 0.5,
                                      "kappa_min": 1e-6, "window": 50.0}, 0.01)
        with pytest.raises(ValueError, match="gamma must be > 0 and finite, got 'big'"):
            controller_params("proposed_l1", {"alpha": 0.1, "gamma": "big"},
                              0.01)

    @pytest.mark.parametrize("kind,params,key", [
        ("fixed_zap", {"kappa0": True}, "kappa0"),
        ("you", {"kappa0": 1e-4, "eta": 0.5, "kappa_min": 1e-6,
                 "window": True}, "window"),
        ("you", {"kappa0": 1e-4, "eta": 0.5, "kappa_min": 1e-6,
                 "window": 50, "cooldown": False}, "cooldown"),
        ("proposed_norm", {"alpha": 0.1, "gamma": 1.0, "w2_floor": True},
         "w2_floor")])
    def test_a_bool_is_not_a_number(self, kind, params, key):
        # bool subclasses int: without its own check True passes for 1
        with pytest.raises(ValueError, match=f"{key} must be .*, got "
                                             f"{params[key]!r}"):
            controller_params(kind, params, 0.01)

    def test_fresh_instances(self):
        a = make_controller("proposed_norm", {"alpha": 0.1, "gamma": 1.0}, 0.01)
        b = make_controller("proposed_norm", {"alpha": 0.1, "gamma": 1.0}, 0.01)
        assert a is not b
        assert a.kappa is not b.kappa


def random_inputs(rng, rows, L):
    """One sample's (e, X, W) over ``rows`` rows, with now and then a zero
    regressor or a zero filter to reach the kinds' zero guards."""
    e = 1.0 + 0.2 * rng.standard_normal(rows)
    X = rng.standard_normal((rows, L))
    W = rng.standard_normal((rows, L)) * rng.integers(0, 2, (rows, L))
    X[rng.random(rows) < 0.05] = 0.0
    W[rng.random(rows) < 0.05] = 0.0
    return e, X, W


@pytest.mark.parametrize("name", sorted(EVERY_KIND))
class TestSharedUpdate:
    def test_matches_scalar_reference(self, name):
        rng = np.random.default_rng(11)
        rows, L = 4, 8
        ctl = controller(name, rows)
        refs = [ScalarController(ctl.kind, ctl.params) for _ in range(rows)]
        for _ in range(300):
            e, X, W = random_inputs(rng, rows, L)
            update(ctl, e, X, W)
            want = [r.update(float(e[i]), X[i], W[i])
                    for i, r in enumerate(refs)]
            assert ctl.kappa.tolist() == pytest.approx(want, rel=1e-12)

    def test_rows_are_independent(self, name):
        rng = np.random.default_rng(12)
        together = controller(name, rows=3)
        apart = [controller(name) for _ in range(3)]
        for _ in range(100):
            e, X, W = random_inputs(rng, 3, 6)
            update(together, e, X, W)
            for i, ctl in enumerate(apart):
                update(ctl, e[i:i + 1], X[i:i + 1], W[i:i + 1])
        for i, ctl in enumerate(apart):
            for key, value in vars(ctl).items():
                if isinstance(value, np.ndarray):  # rows on the last axis
                    assert np.array_equal(together.__dict__[key][..., i],
                                          value[..., 0]), key

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_error_keeps_kappa_in_range(self, name, bad):
        ctl = controller(name, mu=0.3)
        rng = np.random.default_rng(13)
        for _ in range(20):
            update(ctl, *random_inputs(rng, 1, 4))
        ceiling = ctl.params.get("kappa_max", ctl.params.get("kappa0", 0.0))
        kappa = feed(ctl, bad, [1.0, -1.0, 0.5, 2.0], [0.5, 0.0, -1.0, 1.0])
        assert 0.0 <= kappa <= ceiling
        # so the update, not the kappa check, stops the filter
        with pytest.raises(DivergenceError):
            step(np.array([0.5, -0.5]), [1.0, 1.0], bad, 0.3,
                 controller(name, mu=0.3))


def test_every_kind_in_the_table_is_covered():
    assert {kind for kind, _ in EVERY_KIND.values()} == set(KINDS)
