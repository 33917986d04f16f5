"""Every benchmark workload, run in-process, must pass the benchmark's own
output checker: no crash, a manifest that matches its files, gate values
that agree with the verdicts the program reports, and headlines within
tolerance of the recorded references.  At the reference seed no gate fails;
at seed 5 exactly the gates listed below fail.

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
# (workload, experiment) -> prefix of its one gate failure, per seed.  Seed 5
# fails two gates on every pass: the Ohm remainder order (1.775 < 1.9) and the
# Green-Kubo trend; pinning them makes a flipped gate fail here, call named.
EXPECTED_GATE_FAILURES = {
    20240901: {},
    5: {("drive", "ohm"): "Ohm remainder order",
        ("study", "green-kubo"): "Green-Kubo residuals not decreasing"},
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


def _check_workload(tmp_path, monkeypatch, name, seed):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))  # fresh per workload
    expected = {exp: prefix for (wl, exp), prefix in EXPECTED_GATE_FAILURES[seed].items()
                if wl == name}
    for i, (experiment, cfg) in enumerate(workloads.plan(name, seed)):
        config = tmp_path / f"config-{i}-{experiment}.json"
        config.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        out = tmp_path / f"{i}-{experiment}"
        code, error = None, None
        try:
            code = main(["run", experiment, "--config", str(config), "--out", str(out)])
        except Exception:  # the benchmark counts a crash as a failed call
            error = traceback.format_exc()
        call = {"experiment": experiment, "out": str(out), "exit_code": code, "error": error}
        verdict = check.check_call(call, REFERENCES[str(seed)][name])
        assert verdict["problems"] == [], (experiment, verdict["problems"])
        failures = verdict["gate_failures"]
        if experiment in expected:
            assert len(failures) == 1 and failures[0].startswith(expected.pop(experiment)), \
                (experiment, failures)
        else:
            assert failures == [], (experiment, failures)
    assert expected == {}, f"calls not run: {sorted(expected)}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_benchmark_checker(tmp_path, monkeypatch, name):
    _check_workload(tmp_path, monkeypatch, name, 20240901)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_gate_verdicts_at_a_failing_seed(tmp_path, monkeypatch, name):
    _check_workload(tmp_path, monkeypatch, name, 5)
