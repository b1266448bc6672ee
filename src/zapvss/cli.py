"""Command-line entry points, scenario config files, CSV and SVG emission."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from pathlib import Path
from xml.sax.saxutils import escape

from .channel import generate_dispersive, generate_sparse, save_channel
from .filtercore import DivergenceError
from .harness import (AlgorithmAggregate, AlgorithmConfig, ChannelSpec,
                      ConfigError, RunTrace, ScenarioConfig, aggregate,
                      run_all)
from .stepsize import CONTROLLER_KINDS, PARAM_SPECS, make_controller

CSV_HEADER = "scenario,algorithm,seed,n,e,kappa,misalignment_db,sign_agreement,smoothed_mse"
# the RunTrace fields behind the CSV columns from n on
CSV_FIELDS = ("n", "error", "kappa", "misalignment_db", "sign_agreement",
              "smoothed_mse")
AGGREGATE_HEADER = "scenario,algorithm,n,mean_misalignment_db"

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

_SCENARIO_KEYS = {
    "L": int, "N": int, "snr_db": float, "mu": float, "sigma_x": float,
    "change_at": int, "record_every": int, "seeds": str,
}
_CHANNEL_KEYS = {
    "sparse": {"kind", "active_count", "seed"},
    "dispersive": {"kind", "seed", "decay"},
    "file": {"file"},
}

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
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key '{key}': expected {typ.__name__}, got {raw!r}"
        ) from None


def _parse_scenario(kv: dict) -> dict:
    out = {}
    for key, (raw, lineno) in kv.items():
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [scenario]")
        out[key] = _convert(raw, _SCENARIO_KEYS[key], key, lineno)
        if key == "seeds":
            parts = [p.strip() for p in raw.split(",")]
            if not parts or any(not p for p in parts):
                raise ConfigError(f"line {lineno}: key 'seeds': expected a "
                                  f"comma-separated integer list, got {raw!r}")
            out["seeds"] = [_convert(p, int, "seeds", lineno) for p in parts]
    for key in ("L", "N", "snr_db", "mu", "seeds"):
        if key not in out:
            raise ConfigError(f"[scenario] is missing required key '{key}'")
    return out


def _parse_channel(section) -> ChannelSpec:
    hline, kv = section
    if "file" in kv:
        extra = sorted(set(kv) - _CHANNEL_KEYS["file"])
        if extra:
            lineno = kv[extra[0]][1]
            raise ConfigError(f"line {lineno}: key '{extra[0]}' not allowed "
                              f"with file=<path>")
        return ChannelSpec(kind="file", path=kv["file"][0])
    if "kind" not in kv:
        raise ConfigError(f"line {hline}: channel section needs kind= or file=")
    kind, kind_line = kv["kind"]
    if kind not in ("sparse", "dispersive"):
        raise ConfigError(f"line {kind_line}: channel kind must be 'sparse' "
                          f"or 'dispersive', got {kind!r}")
    extra = sorted(set(kv) - _CHANNEL_KEYS[kind])
    if extra:
        lineno = kv[extra[0]][1]
        raise ConfigError(f"line {lineno}: unknown key '{extra[0]}' for "
                          f"{kind} channel")
    try:
        if kind == "sparse":
            if "active_count" not in kv or "seed" not in kv:
                raise ConfigError(f"line {hline}: sparse channel requires "
                                  f"active_count and seed")
            return ChannelSpec(
                kind="sparse",
                active_count=_convert(kv["active_count"][0], int,
                                      "active_count", kv["active_count"][1]),
                seed=_convert(kv["seed"][0], int, "seed", kv["seed"][1]),
            )
        if "seed" not in kv:
            raise ConfigError(f"line {hline}: dispersive channel requires seed")
        decay = 0.0
        if "decay" in kv:
            decay = _convert(kv["decay"][0], float, "decay", kv["decay"][1])
        return ChannelSpec(
            kind="dispersive",
            seed=_convert(kv["seed"][0], int, "seed", kv["seed"][1]),
            decay=decay,
        )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"line {hline}: {err}") from None


def _parse_algorithm(section, mu: float) -> AlgorithmConfig:
    hline, kv = section
    if "name" not in kv:
        raise ConfigError(f"line {hline}: [algorithm] section needs name=")
    name, name_line = kv["name"]
    if not _NAME_RE.match(name):
        raise ConfigError(f"line {name_line}: algorithm name {name!r} may only "
                          f"use letters, digits, '_', '.', '-'")
    if "kind" not in kv:
        raise ConfigError(f"line {hline}: [algorithm] '{name}' needs kind=")
    kind, kind_line = kv["kind"]
    if kind not in CONTROLLER_KINDS:
        raise ConfigError(f"line {kind_line}: unknown algorithm kind {kind!r}; "
                          f"expected one of {', '.join(CONTROLLER_KINDS)}")
    params = {}
    for key, (raw, lineno) in kv.items():
        if key in ("name", "kind"):
            continue
        if key not in PARAM_SPECS[kind]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' for "
                              f"algorithm kind '{kind}'")
        params[key] = _convert(raw, PARAM_SPECS[kind][key], key, lineno)
    try:
        make_controller(kind, params, mu)
    except ValueError as err:
        raise ConfigError(f"line {hline}: [algorithm] '{name}': {err}") from None
    return AlgorithmConfig(name=name, kind=kind, params=params)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse config text; unknown sections or keys are rejected."""
    scenario = None
    before = None
    after = None
    algorithms = []
    for header, hline, kv in _collect_sections(text):
        if header == "scenario":
            if scenario is not None:
                raise ConfigError(f"line {hline}: duplicate [scenario] section")
            scenario = (hline, kv)
        elif header == "channel.before":
            if before is not None:
                raise ConfigError(f"line {hline}: duplicate [channel.before]")
            before = (hline, kv)
        elif header == "channel.after":
            if after is not None:
                raise ConfigError(f"line {hline}: duplicate [channel.after]")
            after = (hline, kv)
        elif header == "algorithm":
            algorithms.append((hline, kv))
        else:
            raise ConfigError(f"line {hline}: unknown section [{header}]")
    if scenario is None:
        raise ConfigError("missing [scenario] section")
    if before is None:
        raise ConfigError("missing [channel.before] section")
    if not algorithms:
        raise ConfigError("at least one [algorithm] section is required")
    scen = _parse_scenario(scenario[1])
    algs = [_parse_algorithm(a, mu=scen["mu"]) for a in algorithms]
    names = [a.name for a in algs]
    if len(set(names)) != len(names):
        dupe = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"duplicate algorithm name '{dupe}'")
    try:
        return ScenarioConfig(
            L=scen["L"], N=scen["N"], snr_db=scen["snr_db"], mu=scen["mu"],
            sigma_x=scen.get("sigma_x", 1.0),
            record_every=scen.get("record_every", 1),
            change_at=scen.get("change_at"),
            channel_before=_parse_channel(before),
            channel_after=_parse_channel(after) if after is not None else None,
            algorithms=algs, seeds=scen["seeds"])
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


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
    return repr(v) if isinstance(v, float) else str(v)


def _channel_lines(spec: ChannelSpec) -> list[str]:
    if spec.kind == "file":
        return [f"file={spec.path}"]
    lines = [f"kind={spec.kind}", f"seed={spec.seed}"]
    if spec.kind == "sparse":
        lines.insert(1, f"active_count={spec.active_count}")
    else:
        lines.append(f"decay={_fmt(spec.decay)}")
    return lines


def canonical_config_text(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse_config of it yields an equal config."""
    lines = [
        "[scenario]",
        f"L={cfg.L}",
        f"N={cfg.N}",
        f"snr_db={_fmt(cfg.snr_db)}",
        f"mu={_fmt(cfg.mu)}",
        f"sigma_x={_fmt(cfg.sigma_x)}",
    ]
    if cfg.change_at is not None:
        lines.append(f"change_at={cfg.change_at}")
    lines.append(f"record_every={cfg.record_every}")
    lines.append("seeds=" + ",".join(str(s) for s in cfg.seeds))
    lines += ["", "[channel.before]"] + _channel_lines(cfg.channel_before)
    if cfg.channel_after is not None:
        lines += ["", "[channel.after]"] + _channel_lines(cfg.channel_after)
    for alg in cfg.algorithms:
        lines += ["", "[algorithm]", f"name={alg.name}", f"kind={alg.kind}"]
        lines += [f"{k}={_fmt(alg.params[k])}" for k in sorted(alg.params)]
    return "\n".join(lines) + "\n"


def _write_chunks(destination, chunks) -> None:
    if hasattr(destination, "write"):
        for chunk in chunks:
            destination.write(chunk)
    else:
        with open(destination, "w") as f:
            for chunk in chunks:
                f.write(chunk)


def _trace_rows(trace: RunTrace, scenario: str) -> str:
    # tolist() yields Python floats, so the text is their shortest repr
    prefix = f"{scenario},{trace.algorithm},{trace.seed},"
    columns = [trace.column(name).tolist() for name in CSV_FIELDS]
    return "".join(f"{prefix}{n},{e!r},{k!r},{m!r},{a!r},{q!r}\n"
                   for n, e, k, m, a, q in zip(*columns))


def emit_csv(traces: list[RunTrace], destination, scenario: str) -> None:
    """Per-sample trace CSV, rows sorted by (algorithm, seed, n), full
    decimal precision; byte-identical for identical inputs. Written one run
    at a time."""
    if "," in scenario:
        raise ConfigError("scenario label must not contain a comma")
    ordered = sorted(traces, key=lambda t: (t.algorithm, t.seed))
    _write_chunks(destination, itertools.chain(
        [CSV_HEADER + "\n"], (_trace_rows(t, scenario) for t in ordered)))


def emit_aggregate_csv(aggregates: list[AlgorithmAggregate], destination,
                       scenario: str) -> None:
    """Mean misalignment curves, one row per (algorithm, recorded sample)."""
    rows = []
    for agg in aggregates:
        for n, v in zip(agg.n, agg.mean_misalignment_db):
            rows.append(f"{scenario},{agg.name},{n},{float(v)!r}")
    _write_chunks(destination, ["\n".join([AGGREGATE_HEADER] + rows) + "\n"])


def emit_svg(aggregates: list[AlgorithmAggregate], destination,
             title: str) -> None:
    """Convergence plot: one polyline per algorithm on a fixed 800x600
    canvas with 10-tick axes and a legend. Deterministic output."""
    if not aggregates:
        raise ValueError("at least one curve is required")
    width, height = 800, 600
    left, right, top, bottom = 70, 180, 50, 60
    x0, y0 = left, top
    x1, y1 = width - right, height - bottom

    finite = [v for agg in aggregates
              for v in agg.mean_misalignment_db if math.isfinite(v)]
    xmax = max((int(agg.n[-1]) for agg in aggregates if agg.n.size), default=1)
    xmax = max(xmax, 1)
    if finite:
        ymin, ymax = math.floor(min(finite)), math.ceil(max(finite))
    else:
        ymin, ymax = -1, 1
    if ymin == ymax:
        ymin, ymax = ymin - 1, ymax + 1

    def sx(v):
        return x0 + (v / xmax) * (x1 - x0)

    def sy(v):
        return y1 - (v - ymin) / (ymax - ymin) * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
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
    for i, agg in enumerate(aggregates):
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        pts = " ".join(
            f"{sx(n):.2f},{sy(v):.2f}"
            for n, v in zip(agg.n, agg.mean_misalignment_db)
            if math.isfinite(v))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        ly = y0 + 14 + 18 * i
        parts.append(f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 34}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 + 40}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(agg.name)}</text>')
    parts.append("</svg>")
    _write_chunks(destination, ["\n".join(parts) + "\n"])


def _cmd_run(args) -> int:
    if not args.margin_db > 0.0:
        raise ConfigError(f"--margin-db must be > 0, got {args.margin_db}")
    cfg = parse_config(args.config)
    scenario = Path(args.config).stem
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    traces = run_all(cfg)
    aggs = aggregate(cfg, traces, margin_db=args.margin_db)
    emit_csv(traces, outdir / f"{scenario}_trace.csv", scenario)
    emit_aggregate_csv(aggs, outdir / f"{scenario}_aggregate.csv", scenario)
    emit_svg(aggs, outdir / f"{scenario}.svg", title=scenario)
    meta = {
        "scenario": scenario,
        "config": canonical_config_text(cfg),
        "conventions": {
            "snr_reference": "empirical clean echo power",
            "seed_aggregation": "pointwise mean of per-seed dB curves",
            "misalignment_recorded": "after each update, against the channel active at that sample",
            "recovery_margin_db": args.margin_db,
        },
        "summary": [
            {
                "algorithm": a.name,
                "mean_final_misalignment_db": a.mean_final_misalignment_db,
                "mean_recovery_time": a.mean_recovery_time,
                "not_recovered": a.not_recovered,
                "diverged": a.diverged,
            }
            for a in aggs
        ],
    }
    (outdir / f"{scenario}_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
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
    try:
        if args.type == "sparse":
            ch = generate_sparse(args.L, args.active, args.seed)
        else:
            ch = generate_dispersive(args.L, args.seed, args.decay)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    save_channel(ch, args.out)
    print(f"wrote {args.type} channel L={args.L} seed={args.seed} to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zapvss",
        description="Sparse adaptive-filter simulations with variable "
                    "zero-attractor step-sizes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "run all (algorithm, seed) pairs; write CSV and SVG"),
            ("compare", "alias of run, emphasizing the aggregate outputs")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--margin-db", type=float, default=3.0,
                       help="recovery margin above the pre-change steady state")
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
        if args.command in ("run", "compare"):
            return _cmd_run(args)
        return _cmd_gen_channel(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"runtime error: {err} (sample {err.sample_index})", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # a fault of the program, not of its input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
