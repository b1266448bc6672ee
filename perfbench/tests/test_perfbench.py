"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = """
[scenario]
L=16
N=400
snr_db=30
mu=0.01
change_at=200
record_every=1
seeds=1,2

[channel.before]
kind=sparse
active_count=3
seed=297

[channel.after]
kind=sparse
active_count=3
seed=310

[algorithm]
name=lms
kind=lms

[algorithm]
name=norm
kind=proposed_norm
alpha=0.05
gamma=0.15
"""


def test_names_and_units_are_well_formed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT_RE.fullmatch(m["unit"]) for m in metrics)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    for name in run.WORKLOADS:
        assert (run.HERE / "workloads" / f"{name}.cfg").is_file()
        assert (run.HERE / "reference" / f"{name}.json").is_file()


def test_self_times_on_a_synthetic_tree():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]; then c [100,130]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0, 10, 15, 50, 100], dtype=np.int64)
    end = np.array([100, 40, 25, 90, 130], dtype=np.int64)
    self_ns = tracer.self_times(parent, start, end)
    assert self_ns.tolist() == [30, 20, 10, 40, 30]
    stop = tracer.subtree_end(start, end, 0)
    assert stop == 4
    assert self_ns[0:stop].sum() == end[0] - start[0]
    assert tracer.subtree_end(start, end, 1) == 3
    table = tracer.summarize(["root", "leaf"], np.array([0, 1, 1, 1, 0]),
                             self_ns, end - start)
    assert table["root"] == {"count": 2, "self_s": 60e-9, "total_s": 130e-9}


def test_tracer_records_nested_calls():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Module.inner(x) * 2

    t = tracer.Tracer()
    Module.inner = staticmethod(t.wrap(Module.inner, "m.inner"))
    assert t.wrap(outer, "m.outer")(1) == 4
    spans = t.spans()
    assert [t.names[i] for i in spans["name_id"]] == ["m.outer", "m.inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["start_ns"][0] <= spans["start_ns"][1]
    assert spans["end_ns"][1] <= spans["end_ns"][0]


def test_tracer_install_wraps_and_uninstall_restores():
    sys.path.insert(0, str(run.ROOT / "src"))
    import zapvss

    before = {m: dict(vars(getattr(zapvss, m))) for m in tracer.TRACED_MODULES}
    t = tracer.Tracer()
    t.install(zapvss)
    try:
        assert zapvss.harness.step.__wrapped__ is before["harness"]["step"]
        assert zapvss.filtercore.apply_update.__wrapped__ is \
            before["filtercore"]["apply_update"]
        controller = zapvss.harness.make_controller("lms", {}, 0.01)
        assert controller.update.__wrapped__
    finally:
        t.uninstall()
    assert {m: dict(vars(getattr(zapvss, m)))
            for m in tracer.TRACED_MODULES} == before


@pytest.fixture(scope="module")
def tiny_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    config = work / "tiny.cfg"
    config.write_text(check.render(TINY, 0))
    result = run.spawn("run", config, work / "out")
    assert result["exit_code"] == 0
    return work / "out"


def _failed(out_dir, reference, seed=0):
    template = check.parse_template(TINY)
    summary = check.summarize(out_dir, "tiny", template["change_at"])
    return check.failed_runs(summary, template, seed, reference)


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_perturbed_output_fails_the_check(tiny_output, tmp_path):
    template = check.parse_template(TINY)
    reference = check.reference_record(
        check.summarize(tiny_output, "tiny", template["change_at"]))
    assert _failed(tiny_output, reference) == set()
    assert _failed(tiny_output, None) == set()

    # one trace row of one run, 1e-4 dB off: that run fails
    out = _copy(tiny_output, tmp_path / "row")
    path = out / "tiny_trace.csv"
    lines = path.read_text().splitlines()
    f = lines[-1].split(",")
    f[6] = repr(float(f[6]) + 1e-4)
    lines[-1] = ",".join(f)
    path.write_text("\n".join(lines) + "\n")
    assert _failed(out, reference) == {(f[1], int(f[2]))}

    # one mean-curve point 1e-2 dB off: every run of that algorithm fails
    out = _copy(tiny_output, tmp_path / "curve")
    path = out / "tiny_aggregate.csv"
    lines = path.read_text().splitlines()
    f = lines[1].split(",")
    f[3] = repr(float(f[3]) + 1e-2)
    lines[1] = ",".join(f)
    path.write_text("\n".join(lines) + "\n")
    assert _failed(out, reference) == {(f[1], 1), (f[1], 2)}

    # a missing row, and a non-finite value, fail either check
    for mode in ("drop", "nan"):
        out = _copy(tiny_output, tmp_path / mode)
        path = out / "tiny_trace.csv"
        lines = path.read_text().splitlines()
        if mode == "drop":
            del lines[5]
        else:
            lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        assert len(_failed(out, reference)) == 1
        assert len(_failed(out, None)) == 1


def test_recovery_matches_the_program(tiny_output):
    sys.path.insert(0, str(run.ROOT / "src"))
    from zapvss.cli import parse_config_text
    from zapvss.harness import RunTrace, recovery_time

    summary = check.summarize(tiny_output, "tiny", 200)
    values = np.loadtxt(tiny_output / "tiny_trace.csv", delimiter=",",
                        skiprows=1, usecols=(2, 3, 6))
    algs = np.loadtxt(tiny_output / "tiny_trace.csv", delimiter=",",
                      skiprows=1, usecols=1, dtype=str)
    assert parse_config_text(TINY).change_at == 200
    for (alg, seed), r in summary["runs"].items():
        mask = (algs == alg) & (values[:, 0] == seed)
        samples = [SimpleNamespace(n=int(n), misalignment_db=m)
                   for n, m in values[mask][:, 1:]]
        trace = RunTrace(alg, seed, samples, samples[-1].misalignment_db)
        assert r["recovery"] == recovery_time(trace, 200)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(trace, capsys):
    spec = run.load_spec()
    run.report(run.run("tiny", TINY, 3, 1, trace, None, spec))
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 4 and last["failed"] == 0
    assert {k: m["unit"] for k, m in last["metrics"].items()} == spec[trace]
    for name, unit in spec[trace].items():
        assert any(re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)}", line)
                   for line in lines), name
    if trace:
        m = last["metrics"]
        assert m["harness.runs"]["value"] == 4
        assert m["filtercore.samples"]["value"] == 1600
        assert m["signal.distinct_ratio"]["value"] == 0.5
        assert m["channel.distinct_ratio"]["value"] == 0.25
