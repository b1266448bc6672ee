"""One benchmark measurement in a fresh interpreter.

    python3 perfbench/child.py <mode> <root> <config> <out_dir> [<warmup> <spans>]

Modes:
  setup  import zapvss, parse the config, realize its channels; exit
  run    setup, then ``zapvss run`` through ``zapvss.cli.main`` (tracing off)
  trace  setup, a warm-up run of <warmup>, then ``run_all`` pooled and
         serial without tracing, then ``zapvss run`` traced in this one
         process (one worker); the spans are written to <spans>

Prints one JSON object on the last line of standard output. The parent
stamps the time just before it starts this process; ``setup_done`` is the
same monotonic clock read once the channels are realized.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _setup(root: Path, config: str):
    sys.path.insert(0, str(root / "src"))
    import zapvss
    from zapvss.cli import parse_config
    from zapvss.harness import build_schedule

    if Path(zapvss.__file__).resolve().parent != (root / "src" / "zapvss").resolve():
        raise SystemExit(f"zapvss imported from {zapvss.__file__}, not {root}/src")
    cfg = parse_config(config)
    build_schedule(cfg)
    return zapvss, cfg, time.perf_counter()


def _environment(zapvss, cfg) -> dict:
    import numpy

    runs = len(cfg.algorithms) * len(cfg.seeds)
    resolve = getattr(zapvss.harness, "resolve_workers", None)
    return {
        "cpu_count": os.cpu_count(),
        "workers": resolve(runs) if resolve else None,
        "zapvss_threads": os.environ.get("ZAPVSS_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zapvss": getattr(zapvss, "__version__", "unknown"),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the joined pool
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _cli_run(zapvss, config: str, out_dir: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return zapvss.cli.main(["run", "--config", config, "--out", out_dir])


def mode_run(root: Path, config: str, out_dir: str) -> dict:
    zapvss, cfg, setup_done = _setup(root, config)
    env = _environment(zapvss, cfg)
    t0 = time.perf_counter()
    rc = _cli_run(zapvss, config, out_dir)
    wall = time.perf_counter() - t0
    return {"setup_done": setup_done, "wall_s": wall, "exit_code": rc,
            "peak_rss_mb": _peak_rss_mb(), "env": env}


def mode_trace(root: Path, config: str, out_dir: str, warmup: str,
               spans_path: str) -> dict:
    from multiprocessing.reduction import ForkingPickler

    from tracer import Tracer

    zapvss, cfg, setup_done = _setup(root, config)
    env = _environment(zapvss, cfg)
    workers = env["workers"] or os.cpu_count() or 1
    run_all = zapvss.harness.run_all

    # first calls into numpy and the controllers cost extra; pay them here
    run_all(zapvss.cli.parse_config(warmup), max_workers=1)

    t0 = time.perf_counter()
    traces = run_all(cfg, max_workers=workers)
    pooled_s = time.perf_counter() - t0
    ipc_bytes = sum(len(ForkingPickler.dumps(t)) for t in traces)
    del traces

    # the serial runs go back to back, so a slow spell of the machine
    # shifts the traced and untraced times alike
    t0 = time.perf_counter()
    run_all(cfg, max_workers=1)
    serial_s = time.perf_counter() - t0

    # traced last: nothing forks while the wrappers are installed
    tracer = Tracer()
    saved = os.environ.get("ZAPVSS_THREADS")
    os.environ["ZAPVSS_THREADS"] = "1"
    tracer.install(zapvss)
    try:
        rc = _cli_run(zapvss, config, out_dir)
    finally:
        tracer.uninstall()
        if saved is None:
            del os.environ["ZAPVSS_THREADS"]
        else:
            os.environ["ZAPVSS_THREADS"] = saved
    tracer.save(spans_path)
    return {"setup_done": setup_done, "exit_code": rc, "env": env,
            "workers": workers, "serial_run_all_s": serial_s,
            "pooled_run_all_s": pooled_s, "ipc_bytes": ipc_bytes,
            "L": cfg.L, "keys": tracer.keys}


def main(argv: list[str]) -> int:
    mode, root, config, out_dir = argv[:4]
    root = Path(root)
    if mode == "setup":
        result = {"setup_done": _setup(root, config)[2]}
    elif mode == "run":
        result = mode_run(root, config, out_dir)
    elif mode == "trace":
        result = mode_trace(root, config, out_dir, *argv[4:6])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
