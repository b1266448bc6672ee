import importlib
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import zapvss
from zapvss.cli import _SCENARIO_KEYS, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"
TINY = """[scenario]
L=16
N=400
snr_db=30
mu=0.01
change_at=200
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
"""


def test_every_export_resolves_and_is_unique():
    names = zapvss.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(zapvss, name)]
    assert not missing


def test_readme_config_example_names_every_scenario_key():
    # the example explains its values in notes after them, which a config
    # file does not take: strip them, then it must parse as it stands
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    text = re.sub(r"[ \t]+#.*", "", block)
    parse_config_text(text)
    scenario = text.split("[scenario]\n")[1].split("\n[")[0]
    keys = [line.partition("=")[0] for line in scenario.split("\n") if line]
    assert keys == [key for key, _ in _SCENARIO_KEYS]


def test_the_names_the_benchmark_reaches_into_exist():
    # perfbench/ traces the public functions of these three modules and
    # calls the names below; a rename in the package would break it, not
    # a test
    modules = {name: importlib.import_module(f"zapvss.{name}")
               for name in ("harness", "filtercore", "cli")}
    wanted = {"harness": ("build_schedule", "run_all", "resolve_workers",
                          "RunTrace", "recovery_time"),
              "cli": ("main", "parse_config", "parse_config_text")}
    missing = [f"{module}.{name}" for module, names in wanted.items()
               for name in names
               if not callable(getattr(modules[module], name, None))]
    assert not missing
    # and the call shapes it uses: a trace of plain rows with n and
    # misalignment_db (its check of the recovery time), that trace's
    # recovery time, and a serial run_all
    harness = modules["harness"]
    rows = [SimpleNamespace(n=n, misalignment_db=0.0 if 200 <= n < 300
                            else -30.0) for n in range(600)]
    trace = harness.RunTrace("lms", 1, rows, rows[-1].misalignment_db)
    assert harness.recovery_time(trace, 200) == 100
    traces = harness.run_all(parse_config_text(TINY), max_workers=1)
    assert [(t.algorithm, t.seed, t.column("n").size) for t in traces] == [
        ("lms", 1, 400), ("lms", 2, 400)]


def test_import_loads_no_network_or_mail_modules():
    # xml.sax.saxutils would pull in urllib.request, http.client and email,
    # about 30 modules that a run never uses
    code = ("import sys, zapvss; print(sorted(m for m in ('urllib.request', "
            "'http.client', 'email') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          cwd=Path(zapvss.__file__).resolve().parents[1])
    assert done.stdout.strip() == "[]"
