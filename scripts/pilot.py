#!/usr/bin/env python3
"""Pilot calibration for the shipped scenario configs.

Runs configs/sparse.cfg and configs/dispersive.cfg, with any parameter
overridden by ``--set``, and reports per algorithm: first-phase
steady-state misalignment (mean over the last 10% of pre-change samples),
per-seed recovery times at the 3 dB margin, final misalignment, and the
post-convergence sign-agreement over active taps.

    python3 scripts/pilot.py --kind sparse --seeds 3 \\
        --set proposed_norm.gamma=0.2 --set mu=0.0025

Calibration procedure (documented for reproducibility):
 1. Fix mu so the first adaptation settles well before the path change.
 2. Pick kappa0 for fixed_zap: as large as possible while the sparse
    steady state stays within ~1 dB of LMS (attraction visible, bias not
    dominant).
 3. Tune gamma for liu / proposed_l1 / proposed_norm so their first-phase
    steady state lands within 1 dB of fixed_zap.
 4. Choose You's kappa0 (large), eta, kappa_min (small) so kappa freezes
    well before the change; verify its steady state also matches.
 5. Check the recovery ordering proposed_norm << you, you >= fixed_zap,
    and the dispersive final misalignment of proposed_norm vs fixed_zap.
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from zapvss.cli import parse_config
from zapvss.harness import AlgorithmConfig, recovery_time, run_all
from zapvss.stepsize import PARAMS


def override(cfg, assignment):
    """``cfg`` with one ``name.key=value`` (a key of algorithm ``name``,
    typed as the controller table types it) or ``mu=value`` applied."""
    target, sep, raw = assignment.partition("=")
    name, dot, key = target.rpartition(".")
    if not sep or not (dot or target == "mu"):
        raise ValueError(f"expected name.key=value or mu=value, got {assignment!r}")
    if not dot:
        return dataclasses.replace(cfg, mu=float(raw))
    if name not in [a.name for a in cfg.algorithms]:
        raise ValueError(f"no algorithm named {name!r}")
    if key not in PARAMS:
        raise ValueError(f"unknown controller key {key!r}")
    algorithms = [
        AlgorithmConfig(a.name, a.kind, {**a.params, key: PARAMS[key][0](raw)})
        if a.name == name else a
        for a in cfg.algorithms]
    return dataclasses.replace(cfg, algorithms=algorithms)


def steady_db(trace, change_at):
    ns = trace.sample_indices()
    mis = trace.misalignment_curve()
    pre = mis[ns < change_at]
    tail = max(1, math.ceil(0.1 * pre.size))
    return float(np.mean(pre[-tail:]))


def sign_tail(trace, change_at):
    ns = trace.sample_indices()
    sig = trace.column("sign_agreement")
    pre = sig[ns < change_at]
    tail = max(1, math.ceil(0.1 * pre.size))
    return float(np.mean(pre[-tail:]))


def kappa_tail(trace, change_at):
    ns = trace.sample_indices()
    kap = trace.kappa_curve()
    pre = kap[ns < change_at]
    tail = max(1, math.ceil(0.1 * pre.size))
    return float(np.mean(pre[-tail:]))


def report(kind, cfg, traces):
    print(f"--- {kind} grid: mu={cfg.mu} seeds={cfg.seeds}")
    for alg in cfg.algorithms:
        runs = [t for t in traces if t.algorithm == alg.name]
        steadies = [steady_db(t, cfg.change_at) for t in runs]
        finals = [t.final_misalignment_db for t in runs]
        recs = [recovery_time(t, cfg.change_at, 3.0) for t in runs]
        rec_txt = ",".join("-" if r is None else str(r) for r in recs)
        mean_rec = (float(np.mean([r for r in recs if r is not None]))
                    if any(r is not None for r in recs) else float("nan"))
        signs = [sign_tail(t, cfg.change_at) for t in runs]
        kmax = max(float(np.max(t.kappa_curve())) for t in runs)
        kss = np.mean([kappa_tail(t, cfg.change_at) for t in runs])
        print(f"{alg.name:14s} steady={np.mean(steadies):7.2f} dB  "
              f"final={np.mean(finals):7.2f} dB  rec_mean={mean_rec:7.0f}  "
              f"sign={np.mean(signs):5.3f}  k_ss={kss:.2e}  "
              f"k_max={kmax:.2e}  rec=[{rec_txt}]")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10,
                    help="run seeds 1..SEEDS")
    ap.add_argument("--set", action="append", default=[],
                    metavar="NAME.KEY=VALUE",
                    help="override a controller key or mu; repeatable")
    ap.add_argument("--kind", choices=("sparse", "dispersive", "both"),
                    default="both")
    args = ap.parse_args()
    kinds = ("sparse", "dispersive") if args.kind == "both" else (args.kind,)
    for kind in kinds:
        cfg = parse_config(ROOT / "configs" / f"{kind}.cfg")
        cfg = dataclasses.replace(cfg, seeds=list(range(1, args.seeds + 1)))
        try:
            for assignment in args.set:
                cfg = override(cfg, assignment)
        except ValueError as err:
            ap.error(str(err))
        traces = run_all(cfg, max_workers=1)
        report(kind, cfg, traces)


if __name__ == "__main__":
    main()
