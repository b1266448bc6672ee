"""Zero-attractor step-size controllers.

Six kinds of controller produce the attractor step-size kappa(n) each
sample:

* ``lms``           kappa = 0, plain LMS
* ``fixed_zap``     constant kappa0
* ``you``           start large, multiply by eta on detected convergence,
                    freeze once kappa <= kappa_min
* ``liu``           smooth the gradient of the filter's own sparseness
                    measure (l1 norm or the xi sparsity) into kappa
* ``proposed_l1``   kappa proportional to an estimate of the l1 sparseness
                    distance between the filter and the unknown response
* ``proposed_norm`` same estimate divided by (sqrt(L)-1)*||w||, which keeps
                    the attraction safe on dispersive responses

``KINDS`` is the one table of them: each kind's config keys, their defaults
and its update. ``PARAMS`` holds each key's type and rule, and
``controller_params`` is the one place that applies them. A controller
advances many runs (rows) at once; the scalar reference drives one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

MEASURES = ("l1", "xi")


def _open_unit(v) -> bool:
    return 0.0 < v < 1.0


def _positive(v) -> bool:
    return v > 0.0


# config key -> (type, check, what the check demands)
PARAMS: dict[str, tuple[type, Callable, str]] = {
    "kappa0": (float, lambda v: v >= 0.0 and math.isfinite(v), ">= 0 and finite"),
    "eta": (float, _open_unit, "in (0,1)"),
    "kappa_min": (float, _positive, "> 0"),
    "beta": (float, _open_unit, "in (0,1)"),
    "window": (int, lambda v: v >= 1, "an integer >= 1"),
    "tolerance": (float, _positive, "> 0"),
    "cooldown": (int, lambda v: v >= 0, "an integer >= 0"),
    "lambda": (float, _open_unit, "in (0,1)"),
    "alpha": (float, _open_unit, "in (0,1)"),
    "gamma": (float, _positive, "> 0"),
    "measure": (str, lambda v: v in MEASURES, "'l1' or 'xi'"),
    "kappa_max": (float, _positive, "> 0"),
    "w2_floor": (float, _positive, "> 0"),
}


def _you_init(ctl, rows: int) -> None:
    # the detector's smoothed error power and its last ``window`` values
    ctl.mse = np.zeros(rows)
    ctl.history = np.zeros((ctl.params["window"], rows))
    ctl.cooldown_left = np.zeros(rows, dtype=np.int64)
    ctl.t = 0


def _you(ctl, e, X, W, sgn, xx) -> None:
    """Decay on convergence: a plateau of the smoothed error power over the
    last ``window`` samples (relative change below ``tolerance``, at most
    once per ``cooldown`` samples) multiplies kappa by eta until kappa <=
    kappa_min freezes it for good. The frozen step-size is what makes this
    scheme blind to later path changes."""
    p = ctl.params
    slot = ctl.history[ctl.t % p["window"]]  # written window samples ago
    ctl.mse = (1.0 - p["beta"]) * ctl.mse + p["beta"] * e * e
    cooling = ctl.cooldown_left > 0
    ctl.cooldown_left -= cooling
    if ctl.t >= p["window"]:  # a full window first: the transient never fires
        event = np.abs(ctl.mse - slot) / slot < p["tolerance"]
        event &= slot > 0.0
        event &= ~cooling
        if event.any():
            ctl.cooldown_left[event] = p["cooldown"]
            ctl.kappa[event & (ctl.kappa > p["kappa_min"])] *= p["eta"]
    slot[...] = ctl.mse
    ctl.t += 1


def _smooth(ctl, delta) -> None:
    """kappa <- (1-alpha)*kappa + alpha*gamma*delta, clamped to
    [0, kappa_max]; a NaN drive leaves kappa at 0 rather than NaN."""
    p = ctl.params
    delta *= p["alpha"] * p["gamma"]
    kappa = (1.0 - p["alpha"]) * ctl.kappa
    kappa += delta
    np.fmin(np.fmax(0.0, kappa), p["kappa_max"], out=ctl.kappa)


def _liu_init(ctl, rows: int) -> None:
    ctl.phi = np.zeros(rows)  # forgetting-factor average of the measure


def _liu(ctl, e, X, W, sgn, xx) -> None:
    """Sparseness gradient: delta = J(w) - phi, where J is the l1 norm or
    the xi sparsity of the weights and phi its running average. delta can
    be negative, so the zero clamp is load-bearing."""
    p = ctl.params
    j = np.abs(W).sum(axis=-1)
    if p["measure"] == "xi":
        L = W.shape[-1]
        root = math.sqrt(L)
        l2 = np.sqrt(np.einsum("sl,sl->s", W, W))
        xi = L / (L - root) * (1.0 - j / (root * l2))
        # the zero vector has no sparsity; it drives nothing
        j = np.where(j == 0.0, 0.0, np.minimum(1.0, np.maximum(0.0, xi)))
    delta = j - ctl.phi
    ctl.phi = (1.0 - p["lambda"]) * ctl.phi + p["lambda"] * j
    _smooth(ctl, delta)


def _l1_delta(e, X, sgn, xx) -> np.ndarray:
    """Estimated l1 sparseness distance |e * x.sign(w)| / (x.x); a zero
    regressor carries no information and yields 0."""
    delta = np.abs(e * np.einsum("sl,sl->s", X, sgn))
    delta /= xx
    if not xx.all():
        delta[xx == 0.0] = 0.0
    return delta


def _proposed_l1(ctl, e, X, W, sgn, xx) -> None:
    _smooth(ctl, _l1_delta(e, X, sgn, xx))


def _proposed_norm(ctl, e, X, W, sgn, xx) -> None:
    """The l1 estimate divided by (sqrt(L)-1)*||w||, with ||w|| floored at
    ``w2_floor`` so the early near-zero filter cannot blow the ratio up."""
    delta = _l1_delta(e, X, sgn, xx)
    scale = np.sqrt(np.einsum("sl,sl->s", W, W))
    np.maximum(scale, ctl.params["w2_floor"], out=scale)
    scale *= math.sqrt(W.shape[-1]) - 1.0
    delta /= scale
    _smooth(ctl, delta)


@dataclass(frozen=True)
class Kind:
    """One controller kind: the config keys it must be given, the optional
    ones with their defaults (None: worked out by ``controller_params``),
    its update (None: kappa stays at kappa0), an ``init(ctl, rows)`` that
    adds the state arrays the update keeps, and whether the update reads
    the regressor energies x.x."""

    required: tuple[str, ...]
    optional: dict
    update: Callable | None = None
    init: Callable | None = None
    uses_xx: bool = False

    @property
    def keys(self) -> tuple[str, ...]:
        return self.required + tuple(self.optional)


KINDS: dict[str, Kind] = {
    "lms": Kind((), {}),
    "fixed_zap": Kind(("kappa0",), {}),
    "you": Kind(("kappa0", "eta", "kappa_min"),
                {"beta": 0.01, "window": 200, "tolerance": 0.05,
                 "cooldown": None},
                _you, _you_init),
    "liu": Kind(("lambda", "alpha", "gamma"),
                {"kappa0": 0.0, "measure": "xi", "kappa_max": None},
                _liu, _liu_init),
    "proposed_l1": Kind(("alpha", "gamma"),
                        {"kappa0": 0.0, "kappa_max": None},
                        _proposed_l1, uses_xx=True),
    "proposed_norm": Kind(("alpha", "gamma"),
                          {"kappa0": 0.0, "w2_floor": 1e-2, "kappa_max": None},
                          _proposed_norm, uses_xx=True),
}


def controller_params(kind: str, params: dict, mu: float) -> dict:
    """Every parameter of a ``kind`` controller: ``params`` checked against
    their rules, plus the defaults of the keys it leaves out. ``cooldown``
    defaults to ``window``, and ``kappa_max``, the runaway guard of every
    smoothed controller, to the LMS step-size ``mu``. Raises ValueError."""
    spec = KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown algorithm kind {kind!r}; expected one of "
                         f"{', '.join(KINDS)}")
    unknown = sorted(set(params) - set(spec.keys))
    if unknown:
        raise ValueError(f"unknown key '{unknown[0]}' for algorithm kind '{kind}'")
    for key in spec.required:
        if key not in params:
            raise ValueError(f"algorithm kind '{kind}' requires key '{key}'")
    for key, value in params.items():
        typ, ok, rule = PARAMS[key]
        int_as_float = typ is float and isinstance(value, int)
        if not ((isinstance(value, typ) or int_as_float) and ok(value)):
            raise ValueError(f"{key} must be {rule}, got {value!r}")
    p = {**spec.optional, **params}
    if p.get("cooldown", 0) is None:
        p["cooldown"] = p["window"]
    if p.get("kappa_max", 0.0) is None:
        p["kappa_max"] = mu
    return p


def _hold(ctl, e, X, W, sgn, xx) -> None:
    """The update of a constant kappa."""


class Controller:
    """The state of one controller over ``rows`` runs at once.

    ``kappa`` holds the rows' attractor step-sizes. Each
    ``update(e, X, W, sgn, xx)`` call takes the rows' a-priori errors (R,),
    regressors (R, L), pre-update weights (R, L), their signs (R, L) and
    regressor energies x.x (R,; None is allowed when the kind's
    ``uses_xx`` is false), and rewrites ``kappa`` in place. Every state
    array has the rows on its last axis, and no row reads another's.
    Callers update under ``np.errstate(all="ignore")``: a zero filter or
    regressor, and a diverging row, pass through inf and NaN on the way.
    """

    def __init__(self, kind: str, params: dict, rows: int):
        self.kind = kind
        self.spec = KINDS[kind]
        self.params = params
        self.kappa = np.full(rows, params.get("kappa0", 0.0), dtype=np.float64)
        if self.spec.init is not None:
            self.spec.init(self, rows)
        self.update = partial(self.spec.update or _hold, self)


def make_controller(kind: str, params: dict, mu: float, rows: int = 1) -> Controller:
    """A fresh controller of ``kind`` over ``rows`` runs, from config
    parameters (see ``controller_params``)."""
    return Controller(kind, controller_params(kind, params, mu), rows)
