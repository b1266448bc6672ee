import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from zapvss.channel import load_channel
from zapvss.cli import (ConfigError, canonical_config_text, emit_aggregate_csv,
                        emit_csv, emit_svg, main, parse_config,
                        parse_config_text)
from zapvss.harness import RunTrace, aggregate, run_all
from zapvss.metrics import MetricSample

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

FULL = """\
# comparison grid with a path change
[scenario]
L=16
N=300
snr_db=30
mu=0.01
sigma_x=1.0
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
        assert cfg.sigma_x == 1.0
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
        bad = MINIMAL.replace("mu=0.01", "mu=0.01\nunknown_key=3")
        with pytest.raises(ConfigError, match="unknown_key"):
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

    def test_duplicate_algorithm_names(self):
        with pytest.raises(ConfigError, match="duplicate algorithm name"):
            parse_config_text(MINIMAL + "\n[algorithm]\nname=lms\nkind=lms\n")

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

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config_text(MINIMAL)


def tiny_traces():
    samples = [MetricSample(0, -1.5, 1e-6, 0.25, 1.0, 0.0625),
               MetricSample(1, -math.inf, 2e-6, 0.125, 1.0, 0.03125),
               MetricSample(2, -3.5, 0.0, 0.0625, 0.75, 0.015625)]
    return [RunTrace("lms", 1, samples, -3.5)]


class TestEmitCsv:
    def test_empty_results_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf, scenario="s")
        assert buf.getvalue() == ("scenario,algorithm,seed,n,e,kappa,"
                                  "misalignment_db,sign_agreement,"
                                  "smoothed_mse\n")

    def test_row_count(self):
        buf = io.StringIO()
        emit_csv(tiny_traces(), buf, scenario="s")
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4

    def test_neg_inf_sentinel(self):
        buf = io.StringIO()
        emit_csv(tiny_traces(), buf, scenario="s")
        assert buf.getvalue().splitlines()[2].split(",")[6] == "-inf"

    def test_round_trip_exact_values(self):
        buf = io.StringIO()
        traces = tiny_traces()
        emit_csv(traces, buf, scenario="s")
        for line, sample in zip(buf.getvalue().splitlines()[1:],
                                traces[0].samples):
            fields = line.split(",")
            assert float(fields[4]) == sample.error
            assert float(fields[5]) == sample.kappa
            assert float(fields[6]) == sample.misalignment_db
            assert float(fields[8]) == sample.smoothed_mse

    def test_byte_identical(self):
        a, b = io.StringIO(), io.StringIO()
        emit_csv(tiny_traces(), a, scenario="s")
        emit_csv(tiny_traces(), b, scenario="s")
        assert a.getvalue() == b.getvalue()

    def test_sorted_by_algorithm_seed(self):
        t1 = tiny_traces()[0]
        t2 = RunTrace("apf", 2, t1.samples, -3.5)
        t3 = RunTrace("apf", 1, t1.samples, -3.5)
        buf = io.StringIO()
        emit_csv([t1, t2, t3], buf, scenario="s")
        keys = [tuple(line.split(",")[1:3])
                for line in buf.getvalue().splitlines()[1:]]
        assert keys == sorted(keys)

    def test_comma_in_scenario_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([], io.StringIO(), scenario="a,b")


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
        buf = io.StringIO()
        emit_svg(aggs, buf, title="t")
        root = ET.fromstring(buf.getvalue())
        polys = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polys) == 3

    def test_single_point_curve_well_formed(self):
        aggs = tiny_aggregates(n=1)
        buf = io.StringIO()
        emit_svg(aggs, buf, title="t")
        ET.fromstring(buf.getvalue())

    def test_byte_identical(self):
        aggs = tiny_aggregates()
        a, b = io.StringIO(), io.StringIO()
        emit_svg(aggs, a, title="t")
        emit_svg(aggs, b, title="t")
        assert a.getvalue() == b.getvalue()

    def test_non_finite_points_dropped(self):
        aggs = tiny_aggregates(n=3)
        aggs[0].mean_misalignment_db[1] = -math.inf
        buf = io.StringIO()
        emit_svg(aggs, buf, title="t")
        root = ET.fromstring(buf.getvalue())
        poly = root.find(".//{http://www.w3.org/2000/svg}polyline")
        assert len(poly.attrib["points"].split()) == 2

    def test_requires_curves(self):
        with pytest.raises(ValueError):
            emit_svg([], io.StringIO(), title="t")


class TestAggregateCsv:
    def test_long_format_rows(self):
        aggs = tiny_aggregates(n=5)
        buf = io.StringIO()
        emit_aggregate_csv(aggs, buf, scenario="s")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scenario,algorithm,n,mean_misalignment_db"
        assert len(lines) == 1 + 3 * 5


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

    def test_compare_alias(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("mu=0.01", "mu=-1"))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = tmp_path / "div.cfg"
        text = MINIMAL.replace("mu=0.01", "mu=50").replace("N=50", "N=500")
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_gen_channel_round_trip(self, tmp_path):
        dest = tmp_path / "h.txt"
        code = main(["gen-channel", "--L", "32", "--type", "sparse",
                     "--active", "4", "--seed", "9", "--out", str(dest)])
        assert code == 0
        ch = load_channel(dest)
        assert ch.L == 32
        assert int(np.count_nonzero(ch.taps)) == 4

    def test_gen_channel_dispersive(self, tmp_path):
        dest = tmp_path / "h.txt"
        assert main(["gen-channel", "--L", "16", "--type", "dispersive",
                     "--seed", "3", "--decay", "1.5", "--out", str(dest)]) == 0
        assert load_channel(dest).L == 16

    def test_gen_channel_sparse_needs_active(self, tmp_path, capsys):
        assert main(["gen-channel", "--L", "16", "--type", "sparse",
                     "--seed", "3", "--out", str(tmp_path / "h.txt")]) == 1
        assert "--active" in capsys.readouterr().err

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

    def test_bad_margin_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(FULL)
        assert main(["run", "--config", str(cfg_path), "--margin-db", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert "--margin-db" in capsys.readouterr().err

    def test_program_fault_is_internal_error(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(cfg):
            raise ValueError("boom")

        monkeypatch.setattr("zapvss.cli.run_all", broken)
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "internal error: ValueError: boom" in err
        assert "config error" not in err

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "grid.cfg"
        cfg_path.write_text(MINIMAL)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(blocker)]) == 3
