"""The unit of every parameter, pinned by an exact rescaling.

The input has unit power and the noise is calibrated to the SNR, so
scaling both echo paths by c scales the ideal weights, the errors and
the noise by c. A run stays the same run if every parameter in weight
units (``UNITS``, read through ``param_unit``) is scaled by c too:
``kappa0``, ``kappa_min``, ``kappa_max``, ``w2_floor``, and ``gamma`` where
the drive is dimensionless (``proposed_norm``, and ``liu`` on the xi
measure). Every other key is dimensionless, and ``mu`` is in units of
1/(input power).
For a power of two c every scaled operation is exact, so the misalignment
must be bit-identical and kappa exactly c times the base kappa.
"""

import numpy as np
import pytest

from zapvss.channel import Channel, generate_sparse, save_channel
from zapvss.harness import (AlgorithmConfig, ChannelSpec, ScenarioConfig,
                            run_all)
from zapvss.stepsize import PARAMS

# each controller key of zapvss.stepsize.PARAMS -> its unit. A key in
# "weight" units scales with the echo path, a "none" key does not; gamma
# turns the kind's drive into kappa, which is in weight units (param_unit)
UNITS = {"kappa0": "weight", "eta": "none", "kappa_min": "weight",
         "beta": "none", "window": "none", "tolerance": "none",
         "cooldown": "none", "lambda": "none", "alpha": "none",
         "gamma": "weight/drive", "measure": "none", "kappa_max": "weight",
         "w2_floor": "weight"}


def param_unit(kind: str, key: str, params: dict) -> str:
    """The unit of controller key ``key`` of a ``kind`` controller with
    config ``params``: "weight" or "none". gamma is in weight units where
    the drive is dimensionless (proposed_norm, and liu on the xi measure)
    and has no unit where the drive is in weight units (proposed_l1, and
    liu on the l1 measure)."""
    unit = UNITS[key]
    if unit != "weight/drive":
        return unit
    dimensionless = kind == "proposed_norm" or (
        kind == "liu" and params.get("measure", "xi") == "xi")
    return "weight" if dimensionless else "none"


# kappa_max and w2_floor are set because their defaults, mu and 1e-2, are
# not in weight units: a default guard would not scale with the path
ALGORITHMS = [
    AlgorithmConfig("lms", "lms"),
    AlgorithmConfig("fixed_zap", "fixed_zap", {"kappa0": 1e-4}),
    AlgorithmConfig("you", "you", {"kappa0": 1e-3, "eta": 0.5,
                                   "kappa_min": 2e-5, "window": 100}),
    AlgorithmConfig("liu_xi", "liu", {"lambda": 0.01, "alpha": 0.05,
                                      "gamma": 6e-3, "kappa0": 1e-5,
                                      "kappa_max": 1e-3}),
    AlgorithmConfig("liu_l1", "liu", {"lambda": 0.01, "alpha": 0.05,
                                      "gamma": 1e-3, "measure": "l1",
                                      "kappa_max": 1e-3}),
    AlgorithmConfig("proposed_l1", "proposed_l1", {"alpha": 0.05,
                                                   "gamma": 3e-3,
                                                   "kappa_max": 1e-3}),
    AlgorithmConfig("proposed_norm", "proposed_norm", {"alpha": 0.05,
                                                       "gamma": 0.15,
                                                       "kappa_max": 1e-3,
                                                       "w2_floor": 1e-2}),
]


def _scaled(alg, c):
    params = {key: value * c
              if param_unit(alg.kind, key, alg.params) == "weight" else value
              for key, value in alg.params.items()}
    return AlgorithmConfig(alg.name, alg.kind, params)


def test_the_unit_column():
    # every controller key has a unit, and only those keys
    assert list(UNITS) == list(PARAMS)
    assert {key for key, unit in UNITS.items() if unit == "weight"} == {
        "kappa0", "kappa_min", "kappa_max", "w2_floor"}
    assert set(UNITS.values()) == {"weight", "none", "weight/drive"}
    gamma = {(alg.kind, alg.params.get("measure")):
             param_unit(alg.kind, "gamma", alg.params)
             for alg in ALGORITHMS if "gamma" in alg.params}
    assert gamma == {("liu", None): "weight", ("liu", "l1"): "none",
                     ("proposed_l1", None): "none",
                     ("proposed_norm", None): "weight"}


def _grid(tmp_path, c):
    specs = []
    for label, seed in (("before", 5), ("after", 6)):
        path = tmp_path / f"{label}_{c}.txt"
        save_channel(Channel(generate_sparse(64, 8, seed).taps * c), path)
        specs.append(ChannelSpec(kind="file", path=str(path)))
    return ScenarioConfig(
        L=64, N=3000, snr_db=30.0, mu=0.01, channel_before=specs[0],
        channel_after=specs[1], change_at=1500, seeds=[1, 2],
        algorithms=[_scaled(alg, c) for alg in ALGORITHMS])


@pytest.mark.parametrize("c", [4.0, 0.125])
def test_scaling_the_path_and_weight_units_is_the_same_run(tmp_path, c):
    base = run_all(_grid(tmp_path, 1.0), max_workers=1)
    scaled = run_all(_grid(tmp_path, c), max_workers=1)
    assert len(base) == len(scaled) == 2 * len(ALGORITHMS)
    for b, s in zip(base, scaled):
        where = f"{b.algorithm} seed {b.seed}"
        assert b.diverged_at is None and s.diverged_at is None, where
        assert np.array_equal(s.column("misalignment_db"),
                              b.column("misalignment_db")), where
        assert np.array_equal(s.column("kappa"), c * b.column("kappa")), where
