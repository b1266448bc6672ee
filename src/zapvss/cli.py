"""Command-line entry points, scenario config files, CSV and SVG emission."""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .channel import save_channel
from .filtercore import build_info, format_rows
from .harness import (CHANNEL_FIELDS, RECOVERY_MARGIN_DB, AlgorithmAggregate,
                      AlgorithmConfig, ChannelSpec, ConfigError, RunTrace,
                      ScenarioConfig, aggregate, resolve_workers, run_all,
                      timed)
from .stepsize import PARAMS

CSV_HEADER = "scenario,algorithm,seed,n,e,kappa,misalignment_db,sign_agreement,smoothed_mse"
# the RunTrace fields behind the CSV columns from n on
CSV_FIELDS = ("n", "error", "kappa", "misalignment_db", "sign_agreement",
              "smoothed_mse")
AGGREGATE_HEADER = "scenario,algorithm,n,mean_misalignment_db"

# each section's text keys in canonical order with their types (list: of
# comma-separated ints); every default and rule is the config dataclasses'
_SCENARIO_KEYS = (
    ("L", int), ("N", int), ("snr_db", float), ("mu", float),
    ("change_at", int), ("record_every", int), ("seeds", list),
)
# a channel section holds kind= and its kind's fields, but a file channel
# only file=, its path
_CHANNEL_KEYS = {kind: (("file", str),) if kind == "file"
                 else (("kind", str), *used)
                 for kind, used in CHANNEL_FIELDS.items()}
_ALGORITHM_KEYS = (("name", str), ("kind", str))  # then the params, sorted
_PARAM_KEYS = tuple((key, spec[0]) for key, spec in PARAMS.items())

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")


def _collect_sections(text: str):
    """Split key=value text into (header, header_line, {key: (raw, line)})."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), lineno, {})
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section: {line!r}")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current[2]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        current[2][key] = (value, lineno)
    return sections


def _convert(raw: str, typ: type, key: str, lineno: int):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            v = float(raw)
            if math.isnan(v):
                raise ValueError("nan")
            return v
        if typ is list:
            return [int(part) for part in raw.split(",")]
        return raw
    except ValueError:
        expected = ("a comma-separated integer list" if typ is list
                    else typ.__name__)
        raise ConfigError(
            f"line {lineno}: key '{key}': expected {expected}, got {raw!r}"
        ) from None


def _read(kv: dict, keys: tuple, where: str) -> dict:
    """The section's values converted to the types of ``keys``; a key not
    among them raises ConfigError."""
    types = dict(keys)
    out = {}
    for key, (raw, lineno) in kv.items():
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in {where}")
        out[key] = _convert(raw, types[key], key, lineno)
    return out


def _require(cls, given: dict, where: str) -> None:
    """Raise ConfigError for the first field of ``cls`` without a default
    that ``given`` lacks."""
    for f in dataclasses.fields(cls):
        if (f.default is dataclasses.MISSING and f.name not in given
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"{where} is missing required key '{f.name}'")


def _parse_channel(hline: int, kv: dict) -> ChannelSpec:
    kind = "file" if "file" in kv else kv.get("kind", (None,))[0]
    if kind is None:
        raise ConfigError(f"line {hline}: channel section needs kind= or file=")
    # an unknown kind reads every channel key, so ChannelSpec names the kind
    keys = _CHANNEL_KEYS.get(kind) or sum(_CHANNEL_KEYS.values(), ())
    args = _read(kv, keys, f"{kind} channel")
    args["kind"] = kind
    if "file" in args:
        args["path"] = args.pop("file")
    try:
        return ChannelSpec(**args)
    except ConfigError as err:
        raise ConfigError(f"line {hline}: {err}") from None


def _parse_algorithm(hline: int, kv: dict) -> AlgorithmConfig:
    params = _read(kv, _ALGORITHM_KEYS + _PARAM_KEYS, "[algorithm]")
    head = {key: params.pop(key) for key, _ in _ALGORITHM_KEYS if key in params}
    _require(AlgorithmConfig, head, f"line {hline}: [algorithm]")
    return AlgorithmConfig(**head, params=params)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse config text; unknown sections or keys are rejected."""
    single = {"scenario": None, "channel.before": None, "channel.after": None}
    algorithms = []
    for header, hline, kv in _collect_sections(text):
        if header == "algorithm":
            algorithms.append(_parse_algorithm(hline, kv))
        elif header not in single:
            raise ConfigError(f"line {hline}: unknown section [{header}]")
        elif single[header] is not None:
            raise ConfigError(f"line {hline}: duplicate [{header}] section")
        else:
            single[header] = (hline, kv)
    scenario, before, after = single.values()
    if scenario is None:
        raise ConfigError("missing [scenario] section")
    if before is None:
        raise ConfigError("missing [channel.before] section")
    if not algorithms:
        raise ConfigError("at least one [algorithm] section is required")
    args = _read(scenario[1], _SCENARIO_KEYS, "[scenario]")
    args.update(channel_before=_parse_channel(*before), algorithms=algorithms,
                channel_after=_parse_channel(*after) if after else None)
    _require(ScenarioConfig, args, "[scenario]")
    return ScenarioConfig(**args)


def parse_config(source) -> ScenarioConfig:
    """Parse a config file given as a path or an open text file."""
    try:
        text = (source.read() if hasattr(source, "read")
                else Path(source).read_text())
    except UnicodeDecodeError as err:
        raise ConfigError(f"config is not text: {err}") from None
    return parse_config_text(text)


def _fmt(v) -> str:
    # full-precision scalar text that parses back to the identical value
    if isinstance(v, list):
        return ",".join(map(str, v))
    return repr(v) if isinstance(v, float) else str(v)


def canonical_config_text(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse_config of it yields an equal config."""
    sections = [("scenario", [(k, getattr(cfg, k)) for k, _ in _SCENARIO_KEYS])]
    for header, spec in (("channel.before", cfg.channel_before),
                         ("channel.after", cfg.channel_after)):
        if spec is not None:
            sections.append((header, [
                (k, spec.path if k == "file" else getattr(spec, k))
                for k, _ in _CHANNEL_KEYS[spec.kind]]))
    for alg in cfg.algorithms:
        sections.append(("algorithm", [
            *((k, getattr(alg, k)) for k, _ in _ALGORITHM_KEYS),
            *sorted(alg.params.items())]))
    return "\n".join(
        f"[{header}]\n" + "".join(f"{k}={_fmt(v)}\n" for k, v in pairs
                                  if v is not None)
        for header, pairs in sections)


def _write_chunks(destination, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``destination``, a binary file
    object or a path. A file at the path is removed and a new one created,
    not truncated: truncating a large file can stall the writes that follow
    it, and a hard link to the old file keeps the old bytes."""
    if hasattr(destination, "write"):
        for chunk in chunks:
            destination.write(chunk)
    else:
        Path(destination).unlink(missing_ok=True)
        with open(destination, "wb") as f:
            for chunk in chunks:
                f.write(chunk)


def _check_label(scenario: str) -> None:
    """The label opens every CSV row unquoted, so it may hold no comma and
    no line break (none that str.splitlines knows, a trailing one too). The
    files are UTF-8, so it must encode to it: an undecodable file name
    gives a label with lone surrogates."""
    if "," in scenario or len(f"{scenario}.".splitlines()) > 1:
        raise ConfigError(f"scenario label {scenario!r} must not contain a "
                          f"comma or a line break")
    try:
        scenario.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"scenario label {scenario!r} is not valid "
                          f"UTF-8") from None


def _trace_rows(trace: RunTrace, scenario: str) -> memoryview:
    return format_rows(f"{scenario},{trace.algorithm},{trace.seed},",
                       trace.column("n"),
                       [trace.column(name) for name in CSV_FIELDS[1:]])


def _in_order(pool, fn, items, limit: int):
    """``fn`` of each of ``items``, run on ``pool`` and yielded in order.
    An item is submitted only once the consumer is done with the one
    ``limit`` places before it, so at most ``limit`` are in flight."""
    pending = collections.deque()
    for item in items:
        if len(pending) == limit:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def emit_csv(traces: list[RunTrace], destination, scenario: str) -> None:
    """Per-sample trace CSV, rows sorted by (algorithm, seed, n), each value
    the shortest text that parses back to it; byte-identical for identical
    inputs. The runs are formatted on ``resolve_workers`` threads (the
    formatter releases the GIL) while this thread writes each run's bytes
    in order as they complete; at most twice as many runs as threads are
    formatted and not yet written. A failed write cancels the queued runs
    and joins the threads before its error propagates."""
    _check_label(scenario)
    ordered = sorted(traces, key=lambda t: (t.algorithm, t.seed))
    workers = resolve_workers(len(ordered))
    pool = ThreadPoolExecutor(workers)
    try:
        _write_chunks(destination, itertools.chain(
            [CSV_HEADER.encode() + b"\n"],
            _in_order(pool, lambda t: _trace_rows(t, scenario), ordered,
                      2 * workers)))
    finally:
        pool.shutdown(cancel_futures=True)


def emit_aggregate_csv(aggregates: list[AlgorithmAggregate], destination,
                       scenario: str) -> None:
    """Mean misalignment curves, one row per (algorithm, recorded sample)."""
    _check_label(scenario)
    _write_chunks(destination, [AGGREGATE_HEADER.encode() + b"\n"] + [
        format_rows(f"{scenario},{agg.name},", agg.n,
                    [agg.mean_misalignment_db]) for agg in aggregates])


def _escape(text: str) -> str:
    # XML character data: &, < and > as entities
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg(aggregates: list[AlgorithmAggregate], destination,
             title: str) -> None:
    """Convergence plot: one polyline per algorithm on a fixed 800x600
    canvas with 10-tick axes and a legend. Deterministic output.

    Each polyline's points are its recorded samples n and mean dB in data
    units, the dB scaled by sy / s, written as the CSVs write them; one
    uniform transform of scale s maps them onto the plot area, so the
    stroke width 1.5 / s draws 1.5 px on any SVG 1.1 renderer."""
    if not aggregates:
        raise ValueError("at least one curve is required")
    width, height = 800, 600
    left, right, top, bottom = 70, 180, 50, 60
    x0, y0 = left, top
    x1, y1 = width - right, height - bottom

    finite = [np.isfinite(agg.mean_misalignment_db) for agg in aggregates]
    values = np.concatenate([agg.mean_misalignment_db[keep]
                             for agg, keep in zip(aggregates, finite)])
    xmax = max((int(agg.n[-1]) for agg in aggregates if agg.n.size), default=1)
    xmax = max(xmax, 1)
    if values.size:
        ymin, ymax = math.floor(values.min()), math.ceil(values.max())
    else:
        ymin, ymax = -1, 1
    if ymin == ymax:
        ymin, ymax = ymin - 1, ymax + 1
    # pixels per sample, and per dB
    s, sy = (x1 - x0) / xmax, (y1 - y0) / (ymax - ymin)
    transform = f"matrix({s!r} 0 0 {-s!r} {x0} {y1 + ymin * sy!r})"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        f'fill="none" stroke="black"/>',
    ]
    for i in range(10):  # 10 ticks per axis, endpoints included
        fx = i / 9.0
        tx = x0 + fx * (x1 - x0)
        xv = fx * xmax
        parts.append(f'<line x1="{tx:.2f}" y1="{y1}" x2="{tx:.2f}" '
                     f'y2="{y1 + 5}" stroke="black"/>')
        parts.append(f'<text x="{tx:.2f}" y="{y1 + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{xv:.0f}</text>')
        ty = y1 - fx * (y1 - y0)
        yv = ymin + fx * (ymax - ymin)
        parts.append(f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" '
                     f'y2="{ty:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{ty + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{yv:.1f}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{height - 15}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">sample index n</text>')
    parts.append(f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">'
                 f'misalignment (dB)</text>')
    for i, (agg, keep) in enumerate(zip(aggregates, finite)):
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        rows = format_rows("", agg.n[keep],
                           [agg.mean_misalignment_db[keep] * (sy / s)])
        # "n,y" lines, the last line break dropped
        pts = str(rows[:-1], "ascii")
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{1.5 / s!r}" transform="{transform}" '
                     f'points="{pts}"/>')
        ly = y0 + 14 + 18 * i
        parts.append(f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 34}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 + 40}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_escape(agg.name)}</text>')
    parts.append("</svg>")
    _write_chunks(destination, ["\n".join(parts).encode() + b"\n"])


def _json_number(v: float) -> float | None:
    # strict JSON has no NaN or infinity: a mean over no run, or a -inf dB
    return v if math.isfinite(v) else None


def _build_block(cfg: ScenarioConfig) -> dict:
    from . import __version__

    return {
        "zapvss": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        **{f"kernel_{key}": value for key, value in build_info().items()},
        "cpu_count": os.cpu_count(),
        "workers": resolve_workers(len(cfg.seeds)),
        "config_sha256": hashlib.sha256(
            canonical_config_text(cfg).encode()).hexdigest(),
    }


def _cmd_run(args) -> int:
    scenario = Path(args.config).stem
    _check_label(scenario)
    cfg = parse_config(args.config)
    # the mean-square stability bound of LMS on unit-power input
    bound = 2.0 / (cfg.L + 2)
    if cfg.mu >= bound:
        print(f"warning: mu={cfg.mu!r} is at or above 2/(L+2) = {bound:.6g}, "
              f"the mean-square stability bound for unit-power input; the "
              f"runs may diverge", file=sys.stderr)
    timings = {}
    with timed(timings, "run_all_s"):
        traces = run_all(cfg, timings=timings)
    # after the runs: a config that fails in them leaves no directory
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with timed(timings, "aggregate_s"):
        aggs = aggregate(cfg, traces)
    with timed(timings, "emit_csv_s"):
        emit_csv(traces, outdir / f"{scenario}_trace.csv", scenario)
    with timed(timings, "emit_aggregate_csv_s"):
        emit_aggregate_csv(aggs, outdir / f"{scenario}_aggregate.csv", scenario)
    with timed(timings, "emit_svg_s"):
        emit_svg(aggs, outdir / f"{scenario}.svg", title=scenario)
    meta = {
        "scenario": scenario,
        "config": canonical_config_text(cfg),
        "conventions": {
            "snr_reference": "empirical clean echo power",
            "seed_aggregation": "pointwise mean of per-seed dB curves",
            "misalignment_recorded": "after each update, against the channel active at that sample",
            "recovery_margin_db": RECOVERY_MARGIN_DB,
        },
        "summary": [
            {
                "algorithm": a.name,
                "mean_final_misalignment_db": _json_number(
                    a.mean_final_misalignment_db),
                "mean_recovery_time": a.mean_recovery_time,
                "not_recovered": a.not_recovered,
                "recovery_times": a.recovery_times,
                "floor_db": _json_number(a.floor_db),
                "floor_kappa": _json_number(a.floor_kappa),
                "floor_sign_agreement": _json_number(a.floor_sign_agreement),
                "max_kappa": _json_number(a.max_kappa),
                "diverged": a.diverged,
            }
            for a in aggs
        ],
        # seconds of each stage: wall time but for synthesis_s and
        # engine_s, which overlap on run_all's threads and are summed
        # over the seeds' threads inside run_all_s
        "timings": timings,
        "build": _build_block(cfg),
    }
    _write_chunks(outdir / f"{scenario}_meta.json", [
        (json.dumps(meta, indent=2, allow_nan=False) + "\n").encode()])
    diverged = False
    for a in aggs:
        rec = ("-" if a.mean_recovery_time is None
               else f"{a.mean_recovery_time:.0f}")
        print(f"{scenario} {a.name}: final {a.mean_final_misalignment_db:.2f} dB, "
              f"mean recovery {rec}, diverged {len(a.diverged)}")
        diverged = diverged or bool(a.diverged)
    return 2 if diverged else 0


def _cmd_gen_channel(args) -> int:
    if args.type == "sparse" and args.active is None:
        raise ConfigError("--active is required for --type sparse")
    # a flag of the other generator raises ConfigError
    spec = ChannelSpec(args.type, args.active, args.seed, args.decay)
    ch = spec.realize(args.L)
    save_channel(ch, args.out)
    print(f"wrote {args.type} channel L={args.L} seed={args.seed} to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1 like any bad input: 2 means a run diverged
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="zapvss",
        description="Sparse adaptive-filter simulations with variable "
                    "zero-attractor step-sizes.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="run all (algorithm, seed) pairs; write CSV and SVG")
    run.add_argument("--config", required=True, help="scenario config file")
    run.add_argument("--out", default=".", help="output directory")
    gen = sub.add_parser("gen-channel", help="generate and save a channel file")
    gen.add_argument("--L", type=int, required=True)
    gen.add_argument("--type", choices=("sparse", "dispersive"), required=True)
    gen.add_argument("--active", type=int, default=None,
                     help="nonzero tap count (sparse only)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--decay", type=float, default=0.0,
                     help="exponential envelope rate (dispersive only)")
    gen.add_argument("--out", required=True, help="destination channel file")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_gen_channel(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # a fault of the program, not of its input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
