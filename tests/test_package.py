import importlib
import re
import subprocess
import sys
from pathlib import Path

import zapvss
from zapvss.cli import _SCENARIO_KEYS, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_import_loads_no_network_or_mail_modules():
    # xml.sax.saxutils would pull in urllib.request, http.client and email,
    # about 30 modules that a run never uses
    code = ("import sys, zapvss; print(sorted(m for m in ('urllib.request', "
            "'http.client', 'email') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          cwd=Path(zapvss.__file__).resolve().parents[1])
    assert done.stdout.strip() == "[]"
