"""zapvss benchmark: end-to-end and per-layer metrics of ``zapvss run``.

    python3 perfbench/run.py --workload sparse-grid --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--workload all`` measures every workload in turn.

``--trace 0`` measures the end-to-end metrics with tracing off: a few
set-up-only interpreters, then as many full ``zapvss run`` repetitions as fit
in ``--seconds`` (at least one), each in a fresh interpreter at the default
worker count. Values are medians over the repetitions.

``--trace 1`` makes one traced run in one process with one worker and reports
the per-layer metrics (see tracer.py and README.md).

Every run seed of the workload is shifted by ``--seed``; the program only
sees the generated config. Outputs are checked after every repetition
(check.py). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count (algorithm, seed) runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sparse-grid", "dispersive-grid", "long-echo")
SETUP_PROBES = 9         # set-up-only interpreters per end-to-end run
CHILD_TIMEOUT_S = 170.0
CONTROLLER_KINDS = ("lms", "fixed_zap", "you", "liu", "proposed_l1", "proposed_norm")
# filtercore per sample, counted from predict_error and apply_update on
# float64 vectors of length L: the dot product is 2L flops and reads 2 vectors;
# w + (mu*e)*x - kappa*sign(w) is 5L flops over 5 numpy temporaries, plus
# the isfinite pass and its boolean reduction
FLOPS_PER_TAP = 2 + 5
BYTES_PER_TAP = 16 + (16 + 16 + 16 + 24 + 24) + (9 + 1)


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed child)."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def spawn(mode: str, config: Path, out_dir: Path, *extra: str) -> dict:
    """Run child.py in a fresh interpreter; its result plus ``setup_s``."""
    argv = [sys.executable, str(HERE / "child.py"), mode, str(ROOT),
            str(config), str(out_dir), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"{mode} child timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{mode} child exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = result["setup_done"] - t0
    return result


def failed_runs(exit_code: int, out_dir: Path, name: str, template: dict,
                seed: int, reference: dict | None) -> int:
    """Runs failing the check; all of them when the outputs are unusable."""
    if exit_code not in (0, 2):  # 2: outputs written, some run diverged
        return len(template["algorithms"]) * len(template["seeds"])
    try:
        summary = check.summarize(out_dir, name, template["change_at"])
    except (OSError, ValueError, KeyError, IndexError):
        return len(template["algorithms"]) * len(template["seeds"])
    return len(check.failed_runs(summary, template, seed, reference))


def measure_end_to_end(name: str, text: str, seed: int, seconds: float,
                       reference: dict | None, work: Path) -> dict:
    template = check.parse_template(text)
    runs = len(template["algorithms"]) * len(template["seeds"])
    config = work / f"{name}.cfg"
    config.write_text(check.render(text, seed))
    out_dir = work / "out"
    deadline = time.perf_counter() + seconds
    setups = [spawn("setup", config, work)["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        t0 = time.perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        rep = spawn("run", config, out_dir)
        setups.append(rep["setup_s"])
        rep["failed"] = failed_runs(rep["exit_code"], out_dir, name, template,
                                    seed, reference)
        reps.append(rep)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "wall_s": wall,
        "samples_per_s": runs * template["N"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return {"metrics": metrics, "attempted": runs * len(reps),
            "failed": sum(r["failed"] for r in reps), "env": reps[0]["env"],
            "repetitions": [{k: r[k] for k in ("wall_s", "setup_s",
                                                 "peak_rss_mb", "exit_code",
                                                 "failed")} for r in reps],
            "setup_samples": setups}


def layer_metrics(spans: dict, child: dict, out_dir: Path, name: str) -> dict:
    """Per-layer metrics of one traced run (spans as written by Tracer.save)."""
    names = [str(n) for n in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    start, end = spans["start_ns"], spans["end_ns"]
    self_ns = tracer.self_times(parent, start, end)
    table = tracer.summarize(names, name_id, self_ns, end - start)

    def count(span):
        return table[span]["count"] if span in table else 0

    def self_s(span):
        return table[span]["self_s"] if span in table else 0.0

    def per_call_us(span):
        c = count(span)
        return self_s(span) / c * 1e6 if c else 0.0

    def total_s(prefix):
        return sum(v["total_s"] for k, v in table.items() if k.startswith(prefix))

    def distinct_ratio(prefix):
        keys = [k for span, ks in child["keys"].items()
                if span.startswith(prefix) for k in ks]
        return len(set(keys)) / len(keys) if keys else 0.0

    # the run_all that cli.main called: its subtree's self times add up to it
    root = names.index("harness.run_all")
    root_span = int(np.flatnonzero(name_id == root)[0])
    stop = tracer.subtree_end(start, end, root_span)
    layers = sorted({n.split(".")[0] for n in names})
    layer_of = np.array([layers.index(n.split(".")[0]) for n in names])
    by_layer = np.bincount(layer_of[name_id[root_span:stop]],
                           weights=self_ns[root_span:stop], minlength=len(layers))
    traced_run_all_ns = int(end[root_span] - start[root_span])
    if int(by_layer.sum()) != traced_run_all_ns:
        raise BenchError("layer self times do not add up to the traced run_all")

    meta = json.loads((out_dir / f"{name}_meta.json").read_text())
    with open(out_dir / f"{name}_trace.csv") as f:
        csv_rows = sum(1 for _ in f) - 1
    serial = child["serial_run_all_s"]
    L = child["L"]
    metrics = {
        "filtercore.predict_us": per_call_us("filtercore.predict_error"),
        "filtercore.update_us": per_call_us("filtercore.apply_update"),
        "filtercore.step_self_us": per_call_us("filtercore.step"),
        "filtercore.samples": count("filtercore.step"),
        "filtercore.flops_per_sample": FLOPS_PER_TAP * L,
        "filtercore.bytes_per_sample": BYTES_PER_TAP * L,
        **{f"stepsize.update_us.{kind}": per_call_us(f"stepsize.update.{kind}")
           for kind in CONTROLLER_KINDS},
        "metrics.misalignment_us": per_call_us("metrics.misalignment_db"),
        "metrics.sign_agreement_us": per_call_us("metrics.sign_agreement"),
        "metrics.smoothed_mse_us": per_call_us("metrics.smoothed_mse"),
        "metrics.rows": csv_rows,
        "cli.parse_s": total_s("cli.parse_config"),
        "cli.emit_csv_s": total_s("cli.emit_csv"),
        "cli.emit_aggregate_s": total_s("cli.emit_aggregate_csv"),
        "cli.emit_svg_s": total_s("cli.emit_svg"),
        "cli.bytes_written": sum(p.stat().st_size for p in out_dir.iterdir()),
        "harness.serial_run_all_s": serial,
        "harness.loop_self_s": self_s("harness.run_scenario"),
        "harness.pool_efficiency":
            serial / (child["workers"] * child["pooled_run_all_s"]),
        "harness.ipc_bytes": child["ipc_bytes"],
        "harness.aggregate_s": total_s("harness.aggregate"),
        "harness.recovery_s": total_s("harness.recovery_time"),
        "harness.runs": count("harness.run_scenario"),
        "harness.diverged_runs": sum(len(s["diverged"]) for s in meta["summary"]),
        "harness.trace_overhead_ratio": (traced_run_all_ns / 1e9 - serial) / serial,
        "signal.synthesize_s": total_s("signal."),
        "signal.distinct_ratio": distinct_ratio("signal."),
        "channel.realize_s": total_s("channel."),
        "channel.distinct_ratio": distinct_ratio("channel."),
    }
    breakdown = {"traced_run_all_s": traced_run_all_ns / 1e9,
                 "self_s_by_layer": {layer: float(v) / 1e9
                                     for layer, v in zip(layers, by_layer)},
                 "spans": dict(sorted(table.items()))}
    return {"metrics": metrics, "breakdown": breakdown}


def measure_layers(name: str, text: str, seed: int, reference: dict | None,
                   work: Path) -> dict:
    template = check.parse_template(text)
    runs = len(template["algorithms"]) * len(template["seeds"])
    config = work / f"{name}.cfg"
    config.write_text(check.render(text, seed))
    warmup = work / "warmup.cfg"
    warmup.write_text(check.render(text, seed, N=200, change_at=100, record_every=1))
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    spans_path = work / "spans.npz"
    child = spawn("trace", config, out_dir, str(warmup), str(spans_path))
    failed = failed_runs(child["exit_code"], out_dir, name, template, seed,
                         reference)
    with np.load(spans_path) as spans:
        layers = layer_metrics(dict(spans), child, out_dir, name)
    return {"metrics": layers["metrics"], "attempted": runs, "failed": failed,
            "env": child["env"], "breakdown": layers["breakdown"],
            "setup_s": child["setup_s"], "spans_file": str(spans_path)}


def run(name: str, text: str, seed: int, seconds: float, trace: int,
        reference: dict | None, spec: dict) -> dict:
    """Measure one workload; writes and returns the full record."""
    work = HERE / "out" / name
    work.mkdir(parents=True, exist_ok=True)
    if trace:
        record = measure_layers(name, text, seed, reference, work)
    else:
        record = measure_end_to_end(name, text, seed, seconds, reference, work)
    if set(record["metrics"]) != set(spec[trace]):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(record['metrics']) ^ set(spec[trace]))}")
    record["env"]["git_commit"] = git_commit()
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  check="reference" if reference else "divergence+finite",
                  tolerance_db=check.TOLERANCE_DB,
                  units={k: spec[trace][k] for k in record["metrics"]})
    (work / f"result-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    """Print the record for a reader, then the one-line JSON result."""
    attempted, failed = record["attempted"], record["failed"]
    print("env: " + json.dumps(record["env"], sort_keys=True))
    check_text = record["check"]
    if check_text == "reference":
        check_text += f" (tolerance {record['tolerance_db']} dB)"
    print(f"check: {check_text}; failed_run_ratio {failed / attempted} ratio "
          f"({failed}/{attempted} runs)")
    if record["trace"]:
        for layer, s in record["breakdown"]["self_s_by_layer"].items():
            print(f"run_all self time {layer}: {s:.3f} s")
        print(f"run_all traced: {record['breakdown']['traced_run_all_s']:.3f} s")
    metrics = {k: {"value": v, "unit": record["units"][k]}
               for k, v in record["metrics"].items()}
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "zapvss" / "__init__.py").is_file():
        print(f"error: no zapvss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        text = (HERE / "workloads" / f"{name}.cfg").read_text()
        ref_path = HERE / "reference" / f"{name}.json"
        try:
            reference = json.loads(ref_path.read_text()) if args.seed == 0 else None
            record = run(name, text, args.seed, args.seconds, args.trace,
                         reference, spec)
        except (BenchError, OSError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print(f"workload: {name}")
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
