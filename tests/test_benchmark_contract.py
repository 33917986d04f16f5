"""Every benchmark workload, run in-process, must pass the benchmark's own
output checker at the reference seed: no crash, a manifest that matches its
files, gate values that agree with the verdicts the program reports,
headlines within tolerance of the recorded references, and no gate failure.

A change that makes one more benchmark call fail (a new invariants row, a
renamed report quantity, a gate that flips) must fail here, not only in a
benchmark run.  perfbench/workloads.py and perfbench/check.py are
stdlib-only and are loaded by path; the benchmark itself is not started.
"""

import importlib.util
import json
import traceback
from pathlib import Path

import pytest

from fermicond.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 20240901


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())[str(SEED)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_benchmark_checker(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))  # fresh per workload
    for i, (experiment, cfg) in enumerate(workloads.plan(name, SEED)):
        config = tmp_path / f"config-{i}-{experiment}.json"
        config.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        out = tmp_path / f"{i}-{experiment}"
        code, error = None, None
        try:
            code = main(["run", experiment, "--config", str(config), "--out", str(out)])
        except Exception:  # the benchmark counts a crash as a failed call
            error = traceback.format_exc()
        call = {"experiment": experiment, "out": str(out), "exit_code": code, "error": error}
        verdict = check.check_call(call, REFERENCES[name])
        assert verdict["problems"] == [], (experiment, verdict["problems"])
        assert verdict["gate_failures"] == [], (experiment, verdict["gate_failures"])
