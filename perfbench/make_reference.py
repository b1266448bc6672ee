"""Write reference/<workload>.json from one run at the default seed.

    python3 perfbench/make_reference.py [workload ...]

Run from the repository root, only when a change is meant to alter the
program's outputs; the reference is what later runs are checked against.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run


def main(names: list[str]) -> int:
    for name in names or run.WORKLOADS:
        text = (run.HERE / "workloads" / f"{name}.cfg").read_text()
        work = run.HERE / "out" / name
        work.mkdir(parents=True, exist_ok=True)
        config = work / f"{name}.cfg"
        config.write_text(check.render(text, 0))
        out_dir = work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result = run.spawn("run", config, out_dir)
        if result["exit_code"] != 0:
            raise SystemExit(f"{name}: zapvss run exited {result['exit_code']}")
        template = check.parse_template(text)
        summary = check.summarize(out_dir, name, template["change_at"])
        if check.failed_runs(summary, template, 0, None):
            raise SystemExit(f"{name}: a run diverged or wrote non-finite values")
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(check.reference_record(summary), indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
