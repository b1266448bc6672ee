import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import run_scenario, trace_rows
from zapvss import filtercore
from zapvss.channel import generate_dispersive, generate_sparse, load_channel
from zapvss.cli import (CSV_HEADER, ConfigError, canonical_config_text,
                        emit_aggregate_csv, emit_csv, emit_svg, main,
                        parse_config, parse_config_text)
from zapvss.filtercore import SAMPLE_DTYPE, format_rows
from zapvss.harness import (AlgorithmConfig, ChannelSpec, RunTrace,
                            ScenarioConfig, aggregate, run_all)

MINIMAL = """\
[scenario]
L=16
N=50
snr_db=30
mu=0.01
seeds=1,2

[channel.before]
kind=sparse
active_count=4
seed=21

[algorithm]
name=lms
kind=lms
"""

# MINIMAL with a you controller, whose section is last
YOU = MINIMAL + """
[algorithm]
name=you
kind=you
kappa0=1e-4
eta=0.5
kappa_min=1e-6
"""

FULL = """\
# comparison grid with a path change
[scenario]
L=16
N=300
snr_db=30
mu=0.01
change_at=150
record_every=1
seeds=1,2

[channel.before]
kind=sparse
active_count=4
seed=21

[channel.after]
kind=sparse
active_count=4
seed=33

[algorithm]
name=lms
kind=lms

[algorithm]
name=zap
kind=fixed_zap
kappa0=1e-4

[algorithm]
name=pn
kind=proposed_norm
alpha=0.05
gamma=0.5
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.L == 16 and cfg.N == 50
        assert cfg.record_every == 1
        assert cfg.change_at is None and cfg.channel_after is None
        assert cfg.seeds == [1, 2]
        assert cfg.algorithms[0].kind == "lms"

    def test_full_round(self):
        cfg = parse_config_text(FULL)
        assert cfg.change_at == 150
        assert [a.name for a in cfg.algorithms] == ["lms", "zap", "pn"]
        assert cfg.algorithms[1].params == {"kappa0": 1e-4}

    def test_inf_snr(self):
        cfg = parse_config_text(MINIMAL.replace("snr_db=30", "snr_db=inf"))
        assert math.isinf(cfg.snr_db)

    def test_unknown_scenario_key_named(self):
        # the input has unit power, so no key sets it: mu carries the scale
        for key in ("unknown_key", "sigma_x"):
            bad = MINIMAL.replace("mu=0.01", f"mu=0.01\n{key}=1.0")
            with pytest.raises(ConfigError, match=rf"^line 6: unknown key "
                               rf"'{key}' in \[scenario\]$"):
                parse_config_text(bad)

    def test_unknown_algorithm_key_named(self):
        bad = MINIMAL + "rho=1\n"
        with pytest.raises(ConfigError, match="'rho'"):
            parse_config_text(bad)

    def test_liu_alpha_range_cited(self):
        bad = MINIMAL + ("\n[algorithm]\nname=liu\nkind=liu\n"
                         "lambda=0.5\nalpha=1.5\ngamma=1.0\n")
        with pytest.raises(ConfigError, match=r"\(0,1\)"):
            parse_config_text(bad)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="'mu'"):
            parse_config_text(MINIMAL.replace("mu=0.01\n", ""))

    def test_bad_algorithm_name(self):
        with pytest.raises(ConfigError, match="may only use"):
            parse_config_text(MINIMAL.replace("name=lms", "name=a b"))

    def test_duplicate_algorithm_names(self):
        with pytest.raises(ConfigError, match="duplicate algorithm name"):
            parse_config_text(MINIMAL + "\n[algorithm]\nname=lms\nkind=lms\n")

    @pytest.mark.parametrize("header",
                             ["scenario", "channel.before", "channel.after"])
    def test_duplicate_section_names_line(self, header):
        # FULL already has each of these sections once
        line = len(FULL.splitlines()) + 2
        text = FULL + f"\n[{header}]\nseed=1\n"
        with pytest.raises(ConfigError,
                           match=rf"line {line}: duplicate \[{header}\]"):
            parse_config_text(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[plot\]"):
            parse_config_text(MINIMAL + "\n[plot]\nstyle=fancy\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("L=16\n")

    def test_bad_value_type_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text(MINIMAL.replace("N=50", "N=five"))

    def test_missing_channel_section(self):
        text = MINIMAL.split("[channel.before]")[0] + (
            "[algorithm]\nname=lms\nkind=lms\n")
        with pytest.raises(ConfigError, match="channel.before"):
            parse_config_text(text)

    def test_channel_unknown_key(self):
        bad = MINIMAL.replace("seed=21", "seed=21\ndecay=1.0")
        with pytest.raises(ConfigError, match="'decay'"):
            parse_config_text(bad)

    def test_file_channel(self, tmp_path):
        import zapvss.channel as chan
        path = tmp_path / "h.txt"
        chan.save_channel(chan.generate_sparse(16, 4, 2), path)
        text = MINIMAL.replace(
            "kind=sparse\nactive_count=4\nseed=21", f"file={path}")
        cfg = parse_config_text(text)
        assert cfg.channel_before.kind == "file"

    def test_seeds_must_be_integers(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config_text(MINIMAL.replace("seeds=1,2", "seeds=1,,2"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seeds must be >= 0"):
            parse_config_text(MINIMAL.replace("seeds=1,2", "seeds=1,-2"))

    def test_canonical_round_trip(self):
        cfg = parse_config_text(FULL)
        assert parse_config_text(canonical_config_text(cfg)) == cfg

    def test_canonical_round_trip_minimal(self):
        cfg = parse_config_text(MINIMAL)
        assert parse_config_text(canonical_config_text(cfg)) == cfg

    def test_canonical_text_full(self):
        # pins the key order and the written defaults, which a round trip
        # alone would not notice
        assert canonical_config_text(parse_config_text(FULL)) == (
            "[scenario]\nL=16\nN=300\nsnr_db=30.0\nmu=0.01\nchange_at=150\n"
            "record_every=1\nseeds=1,2\n\n"
            "[channel.before]\nkind=sparse\nactive_count=4\nseed=21\n\n"
            "[channel.after]\nkind=sparse\nactive_count=4\nseed=33\n\n"
            "[algorithm]\nname=lms\nkind=lms\n\n"
            "[algorithm]\nname=zap\nkind=fixed_zap\nkappa0=0.0001\n\n"
            "[algorithm]\nname=pn\nkind=proposed_norm\nalpha=0.05\n"
            "gamma=0.5\n")

    def test_canonical_text_minimal(self):
        assert canonical_config_text(parse_config_text(MINIMAL)) == (
            "[scenario]\nL=16\nN=50\nsnr_db=30.0\nmu=0.01\nrecord_every=1\n"
            "seeds=1,2\n\n"
            "[channel.before]\nkind=sparse\nactive_count=4\nseed=21\n\n"
            "[algorithm]\nname=lms\nkind=lms\n")

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config_text(MINIMAL)


def tiny_traces():
    samples = np.rec.array([(0, -1.5, 1e-6, 0.25, 1.0, 0.0625),
                            (1, -math.inf, 2e-6, 0.125, 1.0, 0.03125),
                            (2, -3.5, 0.0, 0.0625, 0.75, 0.015625)],
                           dtype=SAMPLE_DTYPE)
    return [RunTrace("lms", 1, samples, -3.5)]


class TestEmitCsv:
    def test_empty_results_header_only(self):
        buf = io.BytesIO()
        emit_csv([], buf, scenario="s")
        assert buf.getvalue() == (b"scenario,algorithm,seed,n,e,kappa,"
                                  b"misalignment_db,sign_agreement,"
                                  b"smoothed_mse\n")

    def test_row_count(self):
        buf = io.BytesIO()
        emit_csv(tiny_traces(), buf, scenario="s")
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4

    def test_neg_inf_sentinel(self):
        buf = io.BytesIO()
        emit_csv(tiny_traces(), buf, scenario="s")
        assert buf.getvalue().splitlines()[2].split(b",")[6] == b"-inf"

    def test_round_trip_exact_values(self):
        buf = io.BytesIO()
        traces = tiny_traces()
        emit_csv(traces, buf, scenario="s")
        for line, sample in zip(buf.getvalue().splitlines()[1:],
                                traces[0].samples):
            fields = line.split(b",")
            assert float(fields[4]) == sample.error
            assert float(fields[5]) == sample.kappa
            assert float(fields[6]) == sample.misalignment_db
            assert float(fields[8]) == sample.smoothed_mse

    def test_byte_identical(self):
        a, b = io.BytesIO(), io.BytesIO()
        emit_csv(tiny_traces(), a, scenario="s")
        emit_csv(tiny_traces(), b, scenario="s")
        assert a.getvalue() == b.getvalue()

    def test_sorted_by_algorithm_seed(self):
        t1 = tiny_traces()[0]
        t2 = RunTrace("apf", 2, t1.samples, -3.5)
        t3 = RunTrace("apf", 1, t1.samples, -3.5)
        buf = io.BytesIO()
        emit_csv([t1, t2, t3], buf, scenario="s")
        keys = [tuple(line.split(b",")[1:3])
                for line in buf.getvalue().splitlines()[1:]]
        assert keys == sorted(keys)

    def test_comma_in_scenario_rejected(self):
        for label in ("a,b", "a\n"):  # either would break the rows
            with pytest.raises(ValueError):
                emit_csv([], io.BytesIO(), scenario=label)

    def test_label_without_utf8_rejected(self):
        # a lone surrogate, as an undecodable file name gives, has no UTF-8
        with pytest.raises(ConfigError, match="not valid UTF-8"):
            emit_csv(tiny_traces(), io.BytesIO(), scenario="bad\udcff")


def mixed_traces():
    """Runs of every shape emit_csv meets: record arrays from run_all, one
    of them cut short by a divergence; a record array from run_scenario;
    plain rows; a -inf misalignment; an empty trace."""
    # at mu=2.5 seed 4 diverges inside the run and seeds 1 and 2 do not
    cfg = ScenarioConfig(
        L=16, N=400, snr_db=30.0, mu=2.5, record_every=3,
        channel_before=ChannelSpec(kind="sparse", active_count=4, seed=21),
        channel_after=ChannelSpec(kind="sparse", active_count=4, seed=33),
        change_at=200, seeds=[1, 2, 4],
        algorithms=[AlgorithmConfig("lms", "lms"),
                    AlgorithmConfig("zap", "fixed_zap", {"kappa0": 1e-4})])
    traces = run_all(cfg, max_workers=1)
    assert {t.seed for t in traces if t.diverged_at is not None} == {4}
    scalar = dataclasses.replace(run_scenario(cfg, "zap", 1),
                                 algorithm="scalar")
    rows = [SimpleNamespace(**dict(zip(SAMPLE_DTYPE.names, r)))
            for r in scalar.samples.tolist()]
    rows = RunTrace("rows", 1, rows, scalar.final_misalignment_db)
    empty = RunTrace("empty", 0, [], math.nan)
    return traces + [scalar, rows, empty] + tiny_traces()


@pytest.fixture
def pools(monkeypatch):
    """The thread count of every thread pool started, in order: the kernel
    calls' (run_all) and the trace CSV's (emit_csv)."""
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("zapvss.harness.ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr("zapvss.cli.ThreadPoolExecutor", CountingPool)
    return started


@pytest.fixture
def formatted(monkeypatch):
    """The prefix of every run emit_csv has started to format, in order,
    and a condition notified at each start."""
    started = []
    changed = threading.Condition()
    real = format_rows

    def counting(prefix, n, columns):
        with changed:
            started.append(prefix)
            changed.notify_all()
        return real(prefix, n, columns)

    monkeypatch.setattr("zapvss.cli.format_rows", counting)
    return started, changed


class TestPooledEmission:
    """The trace CSV's runs are formatted on ZAPVSS_THREADS threads (the
    formatter releases the GIL) while the calling thread writes the bytes
    of the runs done, in order; the bytes never depend on the count."""

    def test_bytes_independent_of_worker_count(self, monkeypatch, pools):
        traces = mixed_traces()
        pools.clear()  # the pools that made the traces
        texts = []
        interval = sys.getswitchinterval()
        for threads in ("1", "2", "3", "6"):
            monkeypatch.setenv("ZAPVSS_THREADS", threads)
            buf = io.BytesIO()
            # six threads over ten runs, switching as often as they can
            if threads == "6":
                sys.setswitchinterval(1e-6)
            try:
                emit_csv(traces, buf, scenario="s")
            finally:
                sys.setswitchinterval(interval)
            texts.append(buf.getvalue())
        assert len(traces) == 10 and pools == [1, 2, 3, 6]
        assert all(text == texts[0] for text in texts[1:])
        ordered = sorted(traces, key=lambda t: (t.algorithm, t.seed))
        assert texts[0] == (CSV_HEADER + "\n" + "".join(
            trace_rows(t, "s") for t in ordered)).encode()
        lines = texts[0].splitlines()
        assert len(lines) == 1 + sum(len(t.samples) for t in traces)
        assert sum(line.split(b",")[6] == b"-inf" for line in lines) == 1

    @pytest.mark.parametrize("threads", [1, 3])
    def test_at_most_twice_the_workers_ahead_of_the_writer(
            self, monkeypatch, formatted, threads):
        # at each run's write, wait until every run the pipeline may start
        # has started: the count must reach the bound and never pass it
        started, changed = formatted
        traces = mixed_traces()
        monkeypatch.setenv("ZAPVSS_THREADS", str(threads))
        bound = 2 * threads
        ahead = []

        class Writer(io.BytesIO):
            def write(self, data):
                if self.tell():  # a run's bytes, not the header
                    done = len(ahead)  # the runs written before this one
                    with changed:
                        changed.wait_for(lambda: len(started) >= min(
                            done + bound, len(traces)), timeout=30.0)
                        ahead.append(len(started) - done)
                return super().write(data)

        emit_csv(traces, Writer(), scenario="s")
        assert len(ahead) == len(traces)
        assert max(ahead) == bound
        assert all(count <= bound for count in ahead)

    def test_failed_write_stops_workers_at_once(self, monkeypatch, pools):
        # the first run formats at once; every other run holds its thread
        # until a while after the first run's write has failed, so the runs
        # still queued then must be cancelled, not formatted
        traces = mixed_traces()
        pools.clear()  # the pools that made the traces
        first = min(traces, key=lambda t: (t.algorithm, t.seed))
        release = threading.Event()
        started = []

        def gated(prefix, n, columns):
            started.append(prefix)
            if prefix != f"s,{first.algorithm},{first.seed},":
                release.wait(timeout=30.0)
            return format_rows(prefix, n, columns)

        timers = []

        class FullDisk(io.BytesIO):
            def write(self, data):
                if self.tell():  # the header got through
                    timers.append(threading.Timer(0.2, release.set))
                    timers[0].start()
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        monkeypatch.setattr("zapvss.cli.format_rows", gated)
        monkeypatch.setenv("ZAPVSS_THREADS", "2")
        threads = threading.active_count()
        with pytest.raises(OSError) as failure:
            emit_csv(traces, FullDisk(), scenario="s")
        assert failure.value.errno == errno.ENOSPC
        assert pools == [2]  # the emission's
        # 2 x 2 runs were submitted: the first, one or two held on the
        # threads, and at least one that never started
        assert len(traces) == 10 and 2 <= len(started) <= 3
        timers[0].join(timeout=30.0)
        assert not timers[0].is_alive()
        assert threading.active_count() == threads

    def test_failed_write_exits_3_and_stops_workers(self, tmp_path, capsys,
                                                    monkeypatch, pools):
        real_open = open

        class FullDisk:
            def __init__(self, f):
                self.f = f
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:  # the header and one run got through
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.f.write(data)

        def fake_open(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            return FullDisk(f) if str(path).endswith("_trace.csv") else f

        monkeypatch.setattr("zapvss.cli.open", fake_open, raising=False)
        monkeypatch.setenv("ZAPVSS_THREADS", "2")
        cfg_path = tmp_path / "grid.cfg"
        # 16 runs: most are still to be written when the write fails
        cfg_path.write_text(MINIMAL.replace("seeds=1,2", "seeds=1,2,3,4,5,6,7,8")
                            + "\n[algorithm]\nname=zap\nkind=fixed_zap\n"
                              "kappa0=1e-4\n")
        codes = []
        threads = threading.active_count()
        runner = threading.Thread(target=lambda: codes.append(main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])))
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive()
        assert codes == [3]
        assert "No space left on device" in capsys.readouterr().err
        assert pools == [2, 2]  # the kernel calls', then the CSV's
        # every thread of both pools was joined, not left for the interpreter
        assert threading.active_count() == threads


def tiny_aggregates(cfg_text=FULL, n=60):
    cfg = parse_config_text(cfg_text)
    cfg.N = n
    cfg.change_at = None
    cfg.channel_after = None
    traces = run_all(cfg, max_workers=1)
    return aggregate(cfg, traces)


class TestEmitSvg:
    def test_polyline_per_algorithm(self):
        aggs = tiny_aggregates()
        buf = io.BytesIO()
        emit_svg(aggs, buf, title="t")
        root = ET.fromstring(buf.getvalue())
        polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polys) == 3

    def test_single_point_curve_well_formed(self):
        aggs = tiny_aggregates(n=1)
        buf = io.BytesIO()
        emit_svg(aggs, buf, title="t")
        ET.fromstring(buf.getvalue())

    def test_byte_identical(self):
        aggs = tiny_aggregates()
        a, b = io.BytesIO(), io.BytesIO()
        emit_svg(aggs, a, title="t")
        emit_svg(aggs, b, title="t")
        assert a.getvalue() == b.getvalue()

    def test_non_finite_points_dropped(self):
        aggs = tiny_aggregates(n=3)
        aggs[0].mean_misalignment_db[1] = -math.inf
        buf = io.BytesIO()
        emit_svg(aggs, buf, title="t")
        root = ET.fromstring(buf.getvalue())
        poly = root.find(".//{http://www.w3.org/2000/svg}polyline")
        assert len(poly.attrib["points"].split()) == 2

    def test_markup_in_names_escaped(self):
        aggs = tiny_aggregates(n=5)
        aggs[0].name = "a&b<c>"
        buf = io.BytesIO()
        emit_svg(aggs, buf, title="<t & u>")
        assert b"&lt;t &amp; u&gt;" in buf.getvalue()
        root = ET.fromstring(buf.getvalue())
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "<t & u>" in texts and "a&b<c>" in texts

    def test_requires_curves(self):
        with pytest.raises(ValueError):
            emit_svg([], io.BytesIO(), title="t")

    def test_points_match_per_point_formatting(self):
        # each point is (n, mean dB * sy / s) as repr writes it, drawn on the
        # plot area by one uniform transform
        aggs = tiny_aggregates(n=40)
        aggs[1].mean_misalignment_db[3] = math.nan
        # a curve with no included run: every seed diverged
        aggs[2] = dataclasses.replace(aggs[2], n=np.array([], dtype=np.int64),
                                      mean_misalignment_db=np.array([]))
        buf = io.BytesIO()
        emit_svg(aggs, buf, title="t")
        polys = ET.fromstring(buf.getvalue()).findall(
            ".//{http://www.w3.org/2000/svg}polyline")
        finite = [v for agg in aggs for v in agg.mean_misalignment_db.tolist()
                  if math.isfinite(v)]
        ymin, ymax = math.floor(min(finite)), math.ceil(max(finite))
        # the plot area spans x 70..620 and y 50..540; n runs to 39
        s, sy = 550 / 39, 490 / (ymax - ymin)
        assert polys[2].attrib["points"] == ""
        for agg, poly in zip(aggs, polys):
            a, b, c, d, e, f = map(float, re.fullmatch(
                r"matrix\((.*)\)", poly.attrib["transform"])[1].split())
            assert (a, b, c, d) == (s, 0.0, 0.0, -s)
            assert float(poly.attrib["stroke-width"]) * s == pytest.approx(
                1.5, rel=0.0, abs=1e-12)
            points = [p.split(",") for p in poly.attrib["points"].split()]
            x = np.array([float(px) for px, _ in points])
            y = np.array([float(py) for _, py in points])
            keep = np.isfinite(agg.mean_misalignment_db)
            n, v = agg.n[keep], agg.mean_misalignment_db[keep]
            assert x.tolist() == n.tolist()
            assert y.tolist() == (v * (sy / s)).tolist()
            assert np.all(np.abs(a * x + e - (70 + n / 39 * 550)) <= 1e-9)
            assert np.all(np.abs(
                d * y + f - (540 - (v - ymin) / (ymax - ymin) * 490)) <= 1e-9)


class TestAggregateCsv:
    def test_long_format_rows(self):
        aggs = tiny_aggregates(n=5)
        buf = io.BytesIO()
        emit_aggregate_csv(aggs, buf, scenario="s")
        lines = buf.getvalue().splitlines()
        assert lines[0] == b"scenario,algorithm,n,mean_misalignment_db"
        assert len(lines) == 1 + 3 * 5

    def test_rows_are_the_values_repr(self):
        aggs = tiny_aggregates(n=5)
        buf = io.BytesIO()
        emit_aggregate_csv(aggs, buf, scenario="s{0}")
        assert buf.getvalue().decode().splitlines()[1:] == [
            f"s{{0}},{agg.name},{n},{float(v)!r}" for agg in aggs
            for n, v in zip(agg.n, agg.mean_misalignment_db)]

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\r"])
    def test_bad_scenario_label_rejected(self, label):
        with pytest.raises(ConfigError, match="scenario label"):
            emit_aggregate_csv(tiny_aggregates(n=5), io.BytesIO(), label)


# zapvss's main in a fresh interpreter whose address space is limited to
# 3 GiB: room for the interpreter, numpy and the kernel, none for 2**40 taps
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from zapvss.cli import main
sys.exit(main(sys.argv[1:]))
"""


def main_in_limited_child(argv):
    env = {**os.environ, "PYTHONPATH": str(filtercore.SOURCE.parents[1])}
    return subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv],
                          capture_output=True, text=True, env=env)


class TestMain:
    def test_run_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        csv_text = (out / "grid_trace.csv").read_text()
        assert len(csv_text.splitlines()) == 1 + 3 * 2 * 300
        ET.fromstring((out / "grid.svg").read_text())
        assert (out / "grid_meta.json").exists()
        assert (out / "grid_aggregate.csv").exists()
        assert "grid lms" in capsys.readouterr().out

    def test_run_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "grid_trace.csv").read_bytes() == \
            (out_b / "grid_trace.csv").read_bytes()
        assert (out_a / "grid.svg").read_bytes() == \
            (out_b / "grid.svg").read_bytes()

    def test_a_rerun_writes_new_files(self, tmp_path):
        # a rerun into an existing --out replaces each output by a new
        # file: a hard link to an old one keeps the old bytes, and the new
        # outputs are a fresh run's
        def outputs(out):
            meta = json.loads((out / "grid_meta.json").read_text())
            del meta["timings"]
            return [meta] + [(out / name).read_bytes() for name in (
                "grid_trace.csv", "grid_aggregate.csv", "grid.svg")]

        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        old = (out / "grid_trace.csv").read_bytes()
        os.link(out / "grid_trace.csv", tmp_path / "old.csv")
        cfg_path.write_text(YOU)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (tmp_path / "old.csv").read_bytes() == old
        assert main(["run", "--config", str(cfg_path), "--out", str(fresh)]) == 0
        assert outputs(out) == outputs(fresh)
        assert (out / "grid_trace.csv").read_bytes() != old

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("mu=0.01", "mu=-1"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_infinite_controller_param_exit_code(self, tmp_path, capsys):
        # gamma=inf would parse as a float and diverge at the first sample
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(FULL.replace("gamma=0.5", "gamma=inf"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "gamma must be > 0 and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_recorded_sample_after_change_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL.replace("record_every=1", "record_every=300"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: record_every=300" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("every", [2**64 - 1, 2**63])
    def test_record_every_beyond_int64_records_sample_0(self, tmp_path, every):
        # no int64 holds it, and ctypes would wrap it into a negative one
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("N=50", "N=400").replace(
            "seeds=1,2", f"seeds=1\nrecord_every={every}"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "grid_trace.csv").read_text().splitlines()
        assert [row.split(",")[1:4] for row in rows[1:]] == [["lms", "1", "0"]]

    @pytest.mark.parametrize("key", ["window", "cooldown"])
    def test_you_int_key_beyond_int64_exit_code(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(YOU + f"{key}={10**20}\n")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"config error: [algorithm] 'you': {key} must be" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, text", [
        ("N", f"L=16\nN={10**20}"), ("L", f"L={10**20}\nN=400")])
    def test_scenario_int_key_beyond_int64_exit_code(self, tmp_path, capsys,
                                                     key, text):
        # numpy's input and channel draws failed on these (exit 4); an N
        # that fits an int64 but not memory still fails at its allocation
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("L=16\nN=50", text))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_you_window_beyond_memory_runs(self, tmp_path):
        # the kernel keeps no more slots than samples
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(YOU + f"window={10**11}\n")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_comma_in_label_exit_code(self, tmp_path, capsys):
        # the label is the config's file name, checked before any run
        cfg_path = tmp_path / "a,b.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: scenario label" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_undecodable_label_exit_code(self, tmp_path, capsys):
        # a file name that is not UTF-8 gives a label with a lone surrogate,
        # which the UTF-8 files cannot hold: refused before any run
        cfg_path = tmp_path / "bad\udcff.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: scenario label" in err and "UTF-8" in err
        assert not (tmp_path / "o").exists()

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = tmp_path / "div.cfg"
        text = MINIMAL.replace("mu=0.01", "mu=50").replace("N=50", "N=500")
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_duplicate_seed_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("seeds=1,2", "seeds=1,1,2"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: duplicate seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_meta_reports_floors_and_recoveries(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "grid_meta.json").read_text())
        assert meta["conventions"]["recovery_margin_db"] == 3.0
        cfg = parse_config_text(FULL)
        for entry, agg in zip(meta["summary"],
                              aggregate(cfg, run_all(cfg, max_workers=1))):
            assert entry["recovery_times"] == agg.recovery_times
            for key in ("floor_db", "floor_kappa", "floor_sign_agreement",
                        "max_kappa"):
                assert entry[key] == getattr(agg, key)

    def test_all_diverged_meta_is_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-finite literal {constant}")

        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL.replace("mu=0.01", "mu=50"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        meta = json.loads((out / "grid_meta.json").read_text(),
                          parse_constant=reject)
        for entry in meta["summary"]:
            assert entry["diverged"] and entry["recovery_times"] == []
            for key in ("mean_final_misalignment_db", "mean_recovery_time",
                        "floor_db", "floor_kappa", "floor_sign_agreement",
                        "max_kappa"):
                assert entry[key] is None

    def test_meta_reports_stage_timings_and_build(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "grid_meta.json").read_text())
        timings = meta["timings"]
        assert set(timings) == {"synthesis_s", "engine_s", "run_all_s",
                                "aggregate_s", "emit_csv_s",
                                "emit_aggregate_csv_s", "emit_svg_s"}
        assert all(math.isfinite(t) and t >= 0.0 for t in timings.values())
        build = meta["build"]
        assert set(build) == {"zapvss", "numpy", "python", "kernel_compiler",
                              "kernel_flags", "cpu_count", "workers",
                              "config_sha256"}
        assert build["numpy"] == np.__version__
        assert "-ffp-contract=off" in build["kernel_flags"]
        assert build["workers"] >= 1
        assert build["config_sha256"] == hashlib.sha256(
            meta["config"].encode()).hexdigest()

    @pytest.mark.parametrize("mu, warned", [("0.11", False), ("0.12", True),
                                            ("50", True)])
    def test_stability_warning(self, tmp_path, capsys, mu, warned):
        # 2/(L+2) = 0.111 for L=16; the exit code stays that of the runs
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL.replace("mu=0.01", f"mu={mu}"))
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
        assert code == (2 if mu == "50" else 0)
        err = capsys.readouterr().err
        assert ("warning: mu=" in err) == warned
        if warned:
            assert "2/(L+2) = 0.111111" in err

    def test_gen_channel_round_trip(self, tmp_path):
        dest = tmp_path / "h.txt"
        code = main(["gen-channel", "--L", "32", "--type", "sparse",
                     "--active", "4", "--seed", "9", "--out", str(dest)])
        assert code == 0
        ch = load_channel(dest)
        assert ch.L == 32
        assert int(np.count_nonzero(ch.taps)) == 4
        assert np.array_equal(ch.taps, generate_sparse(32, 4, 9).taps)

    def test_gen_channel_writes_a_new_file(self, tmp_path):
        # the old file is replaced, not truncated: a link to it keeps it
        dest, link = tmp_path / "h.txt", tmp_path / "link.txt"
        argv = ["gen-channel", "--L", "8", "--type", "sparse", "--active",
                "2", "--out", str(dest)]
        assert main([*argv, "--seed", "1"]) == 0
        old = dest.read_bytes()
        os.link(dest, link)
        assert main([*argv, "--seed", "2"]) == 0
        assert link.read_bytes() == old
        assert np.array_equal(load_channel(dest).taps,
                              generate_sparse(8, 2, 2).taps)
        assert dest.read_bytes() != old

    def test_gen_channel_dispersive(self, tmp_path):
        dest = tmp_path / "h.txt"
        assert main(["gen-channel", "--L", "16", "--type", "dispersive",
                     "--seed", "3", "--decay", "1.5", "--out", str(dest)]) == 0
        ch = load_channel(dest)
        assert ch.L == 16
        assert np.array_equal(ch.taps, generate_dispersive(16, 3, 1.5).taps)

    def test_gen_channel_sparse_needs_active(self, tmp_path, capsys):
        assert main(["gen-channel", "--L", "16", "--type", "sparse",
                     "--seed", "3", "--out", str(tmp_path / "h.txt")]) == 1
        assert "--active" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--type", "dispersive", "--active", "3"],
        ["--type", "sparse", "--active", "3", "--decay", "1.5"]])
    def test_gen_channel_flag_of_the_other_generator(self, tmp_path, capsys,
                                                     flags):
        dest = tmp_path / "h.txt"
        assert main(["gen-channel", "--L", "16", *flags, "--seed", "3",
                     "--out", str(dest)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("flags", [["--type", "sparse", "--active", "3"],
                                       ["--type", "dispersive"]])
    def test_gen_channel_length_beyond_int64(self, tmp_path, capsys, flags):
        dest = tmp_path / "h.txt"
        assert main(["gen-channel", "--L", str(10**20), *flags,
                     "--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "L must be > 1 and < 2**63" in err
        assert not dest.exists()

    # 2**40 taps do not fit in memory, 2**62 not in numpy's largest array
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS limits the address space on Linux")
    @pytest.mark.parametrize("L", [2**40, 2**62])
    @pytest.mark.parametrize("flags", [["--type", "sparse", "--active", "3"],
                                       ["--type", "dispersive"]])
    def test_gen_channel_length_beyond_memory(self, tmp_path, flags, L):
        dest = tmp_path / "h.txt"
        done = main_in_limited_child(["gen-channel", "--L", str(L), *flags,
                                      "--out", str(dest)])
        assert done.returncode == 1, done.stderr
        assert f"config error: {flags[1]} channel: L={L} taps do not fit " \
            f"in memory" in done.stderr
        assert not dest.exists()

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS limits the address space on Linux")
    @pytest.mark.parametrize("L", [2**40, 2**62])
    def test_run_length_beyond_memory(self, tmp_path, L):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("L=16", f"L={L}"))
        done = main_in_limited_child(["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
        assert done.returncode == 1, done.stderr
        assert f"config error: sparse channel: L={L} taps do not fit in " \
            f"memory" in done.stderr
        assert not (tmp_path / "o").exists()

    # 2 * 10**9 samples do not fit in memory, 2**62 not in numpy's largest
    # array
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS limits the address space on Linux")
    @pytest.mark.parametrize("N", [2 * 10**9, 2**62])
    def test_run_samples_beyond_memory(self, tmp_path, N):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("N=50", f"N={N}"))
        done = main_in_limited_child(["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
        assert done.returncode == 1, done.stderr
        assert f"config error: N={N} samples do not fit in memory" in \
            done.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS limits the address space on Linux")
    def test_run_records_beyond_memory(self, tmp_path):
        # each seed's streams fit, but its 14 rows of 5 * 10**6 records take
        # 3.1 GiB: no seed reaches the kernel, so the child stays small
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("N=50", "N=5000000") + "".join(
            f"\n[algorithm]\nname=lms{i}\nkind=lms\n" for i in range(13)))
        done = main_in_limited_child(["run", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "o")])
        assert done.returncode == 1, done.stderr
        assert "config error: N=5000000 samples do not fit in memory " \
            "(L=16, record_every=1)" in done.stderr
        assert not (tmp_path / "o").exists()

    def test_kernel_scratch_beyond_memory(self, tmp_path, capsys,
                                          monkeypatch):
        # the kernel's scratch is the config's too: exit 1, no directory
        class FailingKernel:
            zap_echo = filtercore._library().zap_echo

            @staticmethod
            def zap_run(*args):
                return -1

        monkeypatch.setattr(filtercore, "_kernel", FailingKernel())
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: N=50 samples do not fit in memory " \
            "(L=16, record_every=1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_generator_argument_is_config_error(self, tmp_path, capsys):
        assert main(["gen-channel", "--L", "16", "--type", "sparse",
                     "--active", "17", "--out", str(tmp_path / "h.txt")]) == 1
        assert "config error" in capsys.readouterr().err
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace("active_count=4",
                                            "active_count=99"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        [], ["run"], ["compare", "--config", "grid.cfg"],
        ["run", "--config", "grid.cfg", "--margin-db", "3"],
        ["gen-channel", "--L", "16", "--type", "bogus", "--out", "h.txt"],
        ["gen-channel", "--L", "x", "--type", "sparse", "--out", "h.txt"]])
    def test_usage_error_exits_1(self, argv, capsys):
        # 2 is the code of a diverged run; argparse would use it here
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert "usage: zapvss" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: zapvss" in capsys.readouterr().out

    def test_program_fault_is_internal_error(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(cfg, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("zapvss.cli.run_all", broken)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "internal error: ValueError: boom" in err
        assert "config error" not in err

    @pytest.mark.parametrize("missing", ["config", "channel"])
    def test_an_unopenable_input_is_io_error(self, tmp_path, capsys,
                                             missing):
        # a path that cannot be opened is an I/O error, not a config error
        path = tmp_path / "missing"
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace(
            "kind=sparse\nactive_count=4\nseed=21", f"file={path}"))
        config = path if missing == "config" else cfg_path
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: [Errno 2] ")
        assert str(path) in err
        assert not (tmp_path / "o").exists()

    def test_undecodable_channel_file_is_config_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "h.bin"
        path.write_bytes(b"L=16\n\xff\n")
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL.replace(
            "kind=sparse\nactive_count=4\nseed=21", f"file={path}"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: file channel: " in err
        assert "codec can't decode" in err
        assert not (tmp_path / "o").exists()

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(blocker)]) == 3


# a grid whose echo paths have 64 taps, dispersive then sparse: long enough
# that OpenBLAS's ddot kernels sum them in different orders
BLAS_GRID = """\
[scenario]
L=64
N=400
snr_db=30
mu=0.01
change_at=200
seeds=1,2

[channel.before]
kind=dispersive
seed=5

[channel.after]
kind=sparse
active_count=6
seed=21

[algorithm]
name=lms
kind=lms

[algorithm]
name=pn
kind=proposed_norm
alpha=0.05
gamma=0.5
"""
# OpenBLAS core types (OPENBLAS_CORETYPE, read by its DYNAMIC_ARCH build),
# each with the x86 CPU flags its kernels need
CORE_TYPES = {"Prescott": {"pni"}, "Sandybridge": {"avx"},
              "Haswell": {"avx2", "fma"}}


def run_in_child(directory, core_type):
    """The trace CSV, aggregate CSV and SVG bytes of ``zapvss run`` on
    BLAS_GRID in a fresh interpreter, OPENBLAS_CORETYPE set to ``core_type``
    or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(filtercore.SOURCE.parents[1])
    if core_type is not None:
        env["OPENBLAS_CORETYPE"] = core_type
    directory.mkdir()
    (directory / "grid.cfg").write_text(BLAS_GRID)
    done = subprocess.run(
        [sys.executable, "-m", "zapvss", "run", "--config",
         str(directory / "grid.cfg"), "--out", str(directory / "out")],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return [(directory / "out" / name).read_bytes() for name in (
        "grid_trace.csv", "grid_aggregate.csv", "grid.svg")]


@pytest.fixture(scope="module")
def default_blas_outputs(tmp_path_factory):
    return run_in_child(tmp_path_factory.mktemp("blas") / "default", None)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS core types of x86-64")
@pytest.mark.parametrize("core_type", sorted(CORE_TYPES))
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path, core_type,
                                                  default_blas_outputs):
    # the clean echo and each span's ||h|| are summed by the filter kernel
    # in its own order, so no output byte depends on which ddot kernel
    # OpenBLAS picks for this CPU
    flags = set(filtercore._cpu_flags().partition(":")[2].split())
    if not CORE_TYPES[core_type] <= flags:
        pytest.skip(f"this CPU lacks {CORE_TYPES[core_type] - flags}")
    assert run_in_child(tmp_path / core_type, core_type) == \
        default_blas_outputs
