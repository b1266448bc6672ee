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

``KINDS`` is the one table of them: each kind's config keys and their
defaults. ``PARAMS`` holds each key's type and rule, and
``controller_params`` is the one place that applies them. The updates run
in the compiled kernel of ``filtercore``; each reads per-row values that
the kernel reduces from the regressor and the weights, never a tap vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

MEASURES = ("l1", "xi")


def _open_unit(v) -> bool:
    return 0.0 < v < 1.0


def _positive(v) -> bool:
    return v > 0.0 and math.isfinite(v)


# config key -> (type, check, what the check demands); the kernel's
# zap_ctl holds the int and float keys in this order (filtercore.CTL_DTYPE)
PARAMS: dict[str, tuple[type, Callable, str]] = {
    "kappa0": (float, lambda v: v >= 0.0 and math.isfinite(v),
               ">= 0 and finite"),
    "eta": (float, _open_unit, "in (0,1)"),
    "kappa_min": (float, _positive, "> 0 and finite"),
    "beta": (float, _open_unit, "in (0,1)"),
    "window": (int, lambda v: 1 <= v < 2**63, "an integer >= 1 and < 2**63"),
    "tolerance": (float, _positive, "> 0 and finite"),
    "cooldown": (int, lambda v: 0 <= v < 2**63, "an integer >= 0 and < 2**63"),
    "lambda": (float, _open_unit, "in (0,1)"),
    "alpha": (float, _open_unit, "in (0,1)"),
    "gamma": (float, _positive, "> 0 and finite"),
    "measure": (str, lambda v: v in MEASURES, "'l1' or 'xi'"),
    "kappa_max": (float, _positive, "> 0 and finite"),
    "w2_floor": (float, _positive, "> 0 and finite"),
}


@dataclass(frozen=True)
class Kind:
    """One controller kind: the config keys it must be given and the
    optional ones with their defaults (None: worked out by
    ``controller_params``)."""

    required: tuple[str, ...]
    optional: dict

    @property
    def keys(self) -> tuple[str, ...]:
        return self.required + tuple(self.optional)


# the kernel (filtercore.c) numbers the kinds in this order
KINDS: dict[str, Kind] = {
    "lms": Kind((), {}),
    "fixed_zap": Kind(("kappa0",), {}),
    "you": Kind(("kappa0", "eta", "kappa_min"),
                {"beta": 0.01, "window": 200, "tolerance": 0.05,
                 "cooldown": None}),
    "liu": Kind(("lambda", "alpha", "gamma"),
                {"kappa0": 0.0, "measure": "xi", "kappa_max": None}),
    "proposed_l1": Kind(("alpha", "gamma"),
                        {"kappa0": 0.0, "kappa_max": None}),
    "proposed_norm": Kind(("alpha", "gamma"),
                          {"kappa0": 0.0, "w2_floor": 1e-2, "kappa_max": None}),
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
        # a bool is an int to isinstance, but no number of any key
        if isinstance(value, bool) or not (
                (isinstance(value, typ) or int_as_float) and ok(value)):
            raise ValueError(f"{key} must be {rule}, got {value!r}")
    p = {**spec.optional, **params}
    if p.get("cooldown", 0) is None:
        p["cooldown"] = p["window"]
    if p.get("kappa_max", 0.0) is None:
        p["kappa_max"] = mu
    return p
