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
advances many runs (rows) at once. An update reads per-row values that
its caller reduces from the regressor and the weights (``Kind.reads``),
never a tap vector.
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
    return v > 0.0 and math.isfinite(v)


# config key -> (type, check, what the check demands)
PARAMS: dict[str, tuple[type, Callable, str]] = {
    "kappa0": (float, lambda v: v >= 0.0 and math.isfinite(v), ">= 0 and finite"),
    "eta": (float, _open_unit, "in (0,1)"),
    "kappa_min": (float, _positive, "> 0 and finite"),
    "beta": (float, _open_unit, "in (0,1)"),
    "window": (int, lambda v: v >= 1, "an integer >= 1"),
    "tolerance": (float, _positive, "> 0 and finite"),
    "cooldown": (int, lambda v: v >= 0, "an integer >= 0"),
    "lambda": (float, _open_unit, "in (0,1)"),
    "alpha": (float, _open_unit, "in (0,1)"),
    "gamma": (float, _positive, "> 0 and finite"),
    "measure": (str, lambda v: v in MEASURES, "'l1' or 'xi'"),
    "kappa_max": (float, _positive, "> 0 and finite"),
    "w2_floor": (float, _positive, "> 0 and finite"),
}


def _constants(ctl, rows: int, **values: float) -> None:
    """Set each value as an attribute of ``rows`` copies: numpy charges
    less for an operation between two small arrays than for one with a
    Python float."""
    for name, value in values.items():
        setattr(ctl, name, np.full(rows, value))


def _you_init(ctl, rows: int) -> None:
    # the detector's smoothed error power and its last ``window`` values
    p = ctl.params
    ctl.mse = np.zeros(rows)
    ctl.history = np.zeros((p["window"], rows))
    ctl.cooldown_left = np.zeros(rows, dtype=np.int64)
    ctl.t = 0
    _constants(ctl, rows, forget=1.0 - p["beta"], beta=p["beta"],
               tolerance=p["tolerance"])


def _you(ctl, e) -> None:
    """Decay on convergence: a plateau of the smoothed error power over the
    last ``window`` samples (relative change below ``tolerance``, at most
    once per ``cooldown`` samples) multiplies kappa by eta until kappa <=
    kappa_min freezes it for good. The frozen step-size is what makes this
    scheme blind to later path changes."""
    p = ctl.params
    slot = ctl.history[ctl.t % p["window"]]  # written window samples ago
    ctl.mse = mse = ctl.forget * ctl.mse + ctl.beta * e * e
    cooling = ctl.cooldown_left > 0
    ctl.cooldown_left -= cooling
    if ctl.t >= p["window"]:  # a full window first: the transient never fires
        # a zero slot gives inf or NaN here, so it never fires either
        event = np.abs(mse - slot) / slot < ctl.tolerance
        event &= ~cooling
        if event.any():
            ctl.cooldown_left[event] = p["cooldown"]
            ctl.kappa[event & (ctl.kappa > p["kappa_min"])] *= p["eta"]
    slot[...] = mse
    ctl.t += 1


def _smooth_init(ctl, rows: int) -> None:
    p = ctl.params
    _constants(ctl, rows, keep=1.0 - p["alpha"], gain=p["alpha"] * p["gamma"],
               kappa_max=p["kappa_max"])


def _smooth(ctl, delta) -> None:
    """kappa <- (1-alpha)*kappa + alpha*gamma*delta, clamped to
    [0, kappa_max]; a NaN drive leaves kappa at 0 rather than NaN."""
    kappa = ctl.keep * ctl.kappa + ctl.gain * delta
    np.fmin(np.fmax(0.0, kappa), ctl.kappa_max, out=ctl.kappa)


def _liu_init(ctl, rows: int) -> None:
    _smooth_init(ctl, rows)
    ctl.phi = np.zeros(rows)  # forgetting-factor average of the measure
    lam = ctl.params["lambda"]
    _constants(ctl, rows, forget=1.0 - lam, lam=lam)
    if ctl.params["measure"] == "l1":
        ctl.reads = ("ws",)


def _liu(ctl, e, ws, ww=None) -> None:
    """Sparseness gradient: delta = J(w) - phi, where J is the l1 norm
    ``ws`` or the xi sparsity of the weights and phi its running average.
    delta can be negative, so the zero clamp is load-bearing."""
    j = ws
    if ctl.params["measure"] == "xi":
        xi = ctl.xi_scale * (1.0 - j / (ctl.root * np.sqrt(ww)))
        # the zero vector's xi is 0/0: it has no sparsity and drives nothing
        j = np.fmin(1.0, np.fmax(0.0, xi))
    delta = j - ctl.phi
    ctl.phi = ctl.forget * ctl.phi + ctl.lam * j
    _smooth(ctl, delta)


def _l1_delta(e, xx, xs) -> np.ndarray:
    """Estimated l1 sparseness distance |e * x.sign(w)| / (x.x). A zero
    regressor carries no information: its 0/0 (x.sign(w) is 0 too) yields
    0."""
    return np.fmax(np.abs(e * xs) / xx, 0.0)


def _proposed_l1(ctl, e, xx, xs) -> None:
    _smooth(ctl, _l1_delta(e, xx, xs))


def _norm_init(ctl, rows: int) -> None:
    _smooth_init(ctl, rows)
    _constants(ctl, rows, w2_floor=ctl.params["w2_floor"])


def _proposed_norm(ctl, e, xx, xs, ww) -> None:
    """The l1 estimate divided by (sqrt(L)-1)*||w||, with ||w|| floored at
    ``w2_floor`` so the early near-zero filter cannot blow the ratio up."""
    scale = np.maximum(np.sqrt(ww), ctl.w2_floor) * ctl.norm_scale
    _smooth(ctl, _l1_delta(e, xx, xs) / scale)


@dataclass(frozen=True)
class Kind:
    """One controller kind: the config keys it must be given, the optional
    ones with their defaults (None: worked out by ``controller_params``),
    its update (None: kappa stays at kappa0), an ``init(ctl, rows)`` that
    adds the state arrays and constants the update keeps, and the per-row
    reductions the update may read after the a-priori errors e, in its
    argument order: ``xx`` = x.x, ``xs`` = x.sign(w), ``ww`` = w.w and
    ``ws`` = w.sign(w) = ||w||_1, of the regressor x and the pre-update
    weights w. The init may drop trailing ones that the controller's
    parameters leave unread (``Controller.reads``)."""

    required: tuple[str, ...]
    optional: dict
    update: Callable | None = None
    init: Callable | None = None
    reads: tuple[str, ...] = ()

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
                _liu, _liu_init, ("ws", "ww")),
    "proposed_l1": Kind(("alpha", "gamma"),
                        {"kappa0": 0.0, "kappa_max": None},
                        _proposed_l1, _smooth_init, ("xx", "xs")),
    "proposed_norm": Kind(("alpha", "gamma"),
                          {"kappa0": 0.0, "w2_floor": 1e-2, "kappa_max": None},
                          _proposed_norm, _norm_init, ("xx", "xs", "ww")),
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


def _hold(ctl, e) -> None:
    """The update of a constant kappa."""


class Controller:
    """The state of one controller over ``rows`` runs at once.

    ``kappa`` holds the rows' attractor step-sizes. Each
    ``update(e, *reductions)`` call takes the rows' a-priori errors (R,)
    and, in the order of ``reads`` (the kind's reads, or the leading ones
    its parameters use), the rows' reductions (R,) of the regressor and
    the pre-update weights (see ``Kind``), and rewrites ``kappa`` in
    place. It never sees a tap vector. Every state array has the rows on
    its last axis, and no row reads another's.
    Callers update under ``np.errstate(all="ignore")``: a zero filter or
    regressor, and a diverging row, pass through inf and NaN on the way.
    The xi measure and proposed_norm's scale depend on the filter length:
    ``bind(L)`` before the first update.
    """

    def __init__(self, kind: str, params: dict, rows: int):
        self.kind = kind
        self.spec = KINDS[kind]
        self.params = params
        self.kappa = np.full(rows, params.get("kappa0", 0.0), dtype=np.float64)
        self.reads = self.spec.reads
        if self.spec.init is not None:
            self.spec.init(self, rows)
        self.update = partial(self.spec.update or _hold, self)

    @property
    def attracts(self) -> bool:
        """Whether the attractor can ever act: false only for a constant
        kappa of 0 (lms, or fixed_zap with kappa0=0)."""
        return self.spec.update is not None or bool(self.kappa.any())

    def bind(self, L: int) -> None:
        """Resolve the constants that depend on the filter length L."""
        root = math.sqrt(L)
        # no configured run has one tap, where xi is undefined
        _constants(self, self.kappa.size, root=root,
                   xi_scale=L / (L - root) if L > 1 else math.nan,
                   norm_scale=root - 1.0)


def make_controller(kind: str, params: dict, mu: float, rows: int = 1) -> Controller:
    """A fresh controller of ``kind`` over ``rows`` runs, from config
    parameters (see ``controller_params``)."""
    return Controller(kind, controller_params(kind, params, mu), rows)
