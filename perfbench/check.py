"""Correctness check of one ``zapvss run`` output directory.

The check reads only the files the program wrote (trace CSV, aggregate CSV,
meta JSON) and recomputes the per-run summaries itself, so it does not trust
the code it measures:

* per run: recorded rows, divergence sample, final misalignment, and the
  recovery time after the path change (same definition as the harness: the
  first post-change sample from which the misalignment stays within
  ``RECOVERY_MARGIN_DB`` of the mean over the last 10 % of pre-change rows
  for ``RECOVERY_HOLD`` consecutive rows);
* per algorithm: the mean misalignment curve, reduced to ``CURVE_BLOCKS``
  block means.

At the default seed (0) these are compared with the reference stored in
``reference/<workload>.json``. Misalignments must agree within
``TOLERANCE_DB``, which is far looser than a reordered float sum moves them
(the batched engine is held to 1e-9 dB against the scalar path) and far
tighter than any change in behaviour. Row counts, divergence and recovery
times must agree exactly. At any other seed only divergence and finiteness
are checked. A run outside the check counts as failed; a mean curve outside
it fails every run of its algorithm.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOLERANCE_DB = 1e-6
CURVE_BLOCKS = 200
RECOVERY_MARGIN_DB = 3.0
RECOVERY_HOLD = 100


def parse_template(text: str) -> dict:
    """The scenario keys and algorithm names of a config file."""
    scenario, algorithms, section = {}, [], None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            section = line.strip("[]").strip()
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if section == "scenario":
            scenario[key] = value
        elif section == "algorithm" and key == "name":
            algorithms.append(value)
    return {"N": int(scenario["N"]),
            "record_every": int(scenario.get("record_every", 1)),
            "change_at": int(scenario["change_at"]) if "change_at" in scenario else None,
            "seeds": [int(s) for s in scenario["seeds"].split(",")],
            "algorithms": algorithms}


def render(template: str, seed_shift: int, **overrides) -> str:
    """The template with every run seed shifted and [scenario] keys replaced."""
    out, section = [], None
    for raw in template.splitlines():
        line = raw.strip()
        if line.startswith("["):
            section = line.strip("[]").strip()
        elif section == "scenario" and "=" in line and line[0] not in "#;":
            key, _, value = (part.strip() for part in line.partition("="))
            if key == "seeds":
                value = ",".join(str(int(s) + seed_shift) for s in value.split(","))
            raw = f"{key}={overrides.get(key, value)}"
        out.append(raw)
    return "\n".join(out) + "\n"


def recovery_time(n: np.ndarray, mis: np.ndarray, change_at: int) -> int | None:
    pre = mis[n < change_at]
    post = n >= change_at
    if pre.size == 0 or not post.any():
        return None
    tail = max(1, math.ceil(0.1 * pre.size))
    ok = mis[post] <= float(np.mean(pre[-tail:])) + RECOVERY_MARGIN_DB
    if ok.size < RECOVERY_HOLD:
        return None
    held = np.convolve(ok.astype(np.int64), np.ones(RECOVERY_HOLD, np.int64), "valid")
    hits = np.flatnonzero(held == RECOVERY_HOLD)
    return int(n[post][hits[0]] - change_at) if hits.size else None


def block_means(values: np.ndarray) -> list[float]:
    blocks = np.array_split(values, min(CURVE_BLOCKS, values.size))
    return [float(np.mean(b)) for b in blocks]


def summarize(out_dir: Path, scenario: str, change_at: int | None) -> dict:
    """Per-run and per-algorithm summaries of one output directory."""
    meta = json.loads((out_dir / f"{scenario}_meta.json").read_text())
    diverged = {(s["algorithm"], int(seed)): int(at)
                for s in meta["summary"] for seed, at in s["diverged"]}
    # trace columns: scenario,algorithm,seed,n,e,kappa,misalignment_db,...
    path = out_dir / f"{scenario}_trace.csv"
    values = np.loadtxt(path, delimiter=",", skiprows=1,
                        usecols=range(2, 9), ndmin=2)
    algs = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1,
                      dtype=str, ndmin=1)
    # rows come sorted by (algorithm, seed, n): a run is a contiguous block
    new = np.flatnonzero((algs[1:] != algs[:-1])
                         | (values[1:, 0] != values[:-1, 0])) + 1
    bounds = zip(np.r_[0, new], np.r_[new, len(algs)]) if len(algs) else ()
    runs = {}
    for lo, hi in bounds:
        key = (str(algs[lo]), int(values[lo, 0]))
        n, mis = values[lo:hi, 1], values[lo:hi, 4]
        runs[key] = {
            "rows": int(hi - lo) if key not in runs else -1,
            "finite": bool(np.isfinite(values[lo:hi]).all()),
            "diverged_at": diverged.get(key),
            "final_db": float(mis[-1]),
            "recovery": (recovery_time(n, mis, change_at)
                         if change_at is not None else None),
        }
    curves: dict[str, list[float]] = {}
    lines = (out_dir / f"{scenario}_aggregate.csv").read_text().splitlines()
    for line in lines[1:]:
        f = line.split(",")
        curves.setdefault(f[1], []).append(float(f[3]))
    means = {alg: {"rows": len(v), "finite": bool(np.isfinite(v).all()),
                   "block_means": block_means(np.array(v))}
             for alg, v in curves.items()}
    return {"runs": runs, "curves": means}


def reference_record(summary: dict) -> dict:
    """JSON form of a summary, stored as the reference."""
    return {
        "tolerance_db": TOLERANCE_DB,
        "runs": [{"algorithm": alg, "seed": seed, **{k: v for k, v in r.items()
                                                     if k != "finite"}}
                 for (alg, seed), r in sorted(summary["runs"].items())],
        "curves": {alg: {"rows": c["rows"], "block_means": c["block_means"]}
                   for alg, c in summary["curves"].items()},
    }


def failed_runs(summary: dict, template: dict, seed_shift: int,
                reference: dict | None) -> set[tuple[str, int]]:
    """The (algorithm, seed) runs that fail the check.

    ``reference`` is None for the divergence-and-finiteness check.
    """
    expected_rows = -(-template["N"] // template["record_every"])
    expected = [(alg, s + seed_shift) for alg in template["algorithms"]
                for s in template["seeds"]]
    ref_runs = ({(r["algorithm"], r["seed"]): r for r in reference["runs"]}
                if reference else {})
    failed = set()
    for key in expected:
        run = summary["runs"].get(key)
        if run is None or not run["finite"]:
            failed.add(key)
        elif reference is None:
            if run["diverged_at"] is not None or run["rows"] != expected_rows:
                failed.add(key)
        else:
            ref = ref_runs.get(key)
            if (ref is None or run["rows"] != ref["rows"]
                    or run["diverged_at"] != ref["diverged_at"]
                    or run["recovery"] != ref["recovery"]
                    or not _close(run["final_db"], ref["final_db"])):
                failed.add(key)
    for alg in template["algorithms"]:
        curve = summary["curves"].get(alg)
        ok = curve is not None and curve["finite"]
        if ok and reference is None:
            ok = curve["rows"] == expected_rows
        elif ok:
            ref = reference["curves"].get(alg)
            ok = (ref is not None and curve["rows"] == ref["rows"]
                  and len(curve["block_means"]) == len(ref["block_means"])
                  and all(map(_close, curve["block_means"], ref["block_means"])))
        if not ok:
            failed.update(k for k in expected if k[0] == alg)
    return failed


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOLERANCE_DB
