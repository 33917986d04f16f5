"""fermicond benchmark.

    python3 perfbench/run.py --workload {sweep,drive,study,battery,all} \
        --seed N --seconds T --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src/`.  One client runs the workload in a closed loop: passes
over the workload's calls, back to back, each in a fresh worker process
(perfbench/worker.py) with BLAS/OpenMP pinned to one thread, until --seconds
are used (at least one pass).  The seed becomes the disorder master seed of
the generated configs.

--trace 0 reports the end-to-end metrics:
  wall_s        median wall time of one pass (all of its experiment calls)
  setup_s       median of interpreter start -> first experiment call, over
                SETUP_PROBES probe processes and the pass processes
  peak_rss_mib  median over passes of the pass process's peak resident memory
--trace 1 reports the per-layer metrics of perfbench/tracer.py from one
traced pass, plus its wall time and its overhead over the untraced median.

Every call's outputs are checked (perfbench/check.py).  The last stdout line
is one JSON object {correct, attempted, failed, metrics}; `failed` counts
calls that raised, exited non-zero, failed a numerical gate or produced
output that does not check out, so failed/attempted is the failure fraction.
Scratch space, per-run summaries and spans go to `.perfbench/` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {**{name: unit for name, (unit, _, _) in tracer.PER_LAYER.items()},
             "trace.wall_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir)]
    log = workdir / "worker.log"
    with open(log, "w") as fh:
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} worker passed the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        tail = "".join(log.read_text().splitlines(keepends=True)[-20:])
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{tail}")
    result = json.loads((workdir / "worker.json").read_text())
    result["setup_s"] = result["ready"] - start
    result["process_s"] = time.monotonic() - start
    return result


def _source_id() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    out = {"src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        out["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else None
    else:
        out["git_commit"] = None
    return out


def _references() -> dict:
    path = HERE / "references.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    setups = [] if trace else [
        spawn(name, seed, "probe", work / f"probe{i}", deadline)["setup_s"]
        for i in range(SETUP_PROBES)]
    # closed loop, one client: passes back to back until --seconds are used;
    # another starts only if it is expected to end in time
    start, passes = time.monotonic(), []
    while not passes or time.monotonic() - start + passes[-1]["process_s"] <= seconds:
        passes.append(spawn(name, seed, "pass", work / f"pass{len(passes)}", deadline))
    setups += [p["setup_s"] for p in passes]
    walls = [p["pass"]["wall_s"] for p in passes]
    traced = spawn(name, seed, "traced", work / "traced", deadline) if trace else None

    reference = _references().get(str(seed), {}).get(name)
    checked = passes + ([traced] if trace else [])
    verdicts = [check.check_call(c, reference) for p in checked for c in p["pass"]["calls"]]
    problems = [f"{v['experiment']}: {p}" for v in verdicts for p in v["problems"]]
    if trace:
        layers = traced["layers"]
        problems += [f"self-test: {p}" for p in tracer.self_test(name, layers)]
        values = {**layers, "trace.wall_s": traced["pass"]["wall_s"],
                  "trace.overhead_s": traced["pass"]["wall_s"] - statistics.median(walls)}
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                  "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes)}
        units = END_TO_END
    result = {"correct": not problems, "attempted": len(verdicts),
              "failed": sum(v["failed"] for v in verdicts),
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    summary = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "why": workloads.WORKLOADS[name][0], "source": _source_id(),
               "environment": passes[0]["environment"], "passes": len(passes),
               "pass_wall_s": walls, "setup_samples_s": setups,
               "reference_checked": reference is not None,
               "problems": problems, "calls": verdicts, "result": result}
    if trace:
        summary["bindings"] = traced["bindings"]
        shutil.move(str(work / "traced" / "spans.json"), str(WORK / f"{work.name}-spans.json"))
    (WORK / f"{work.name}.json").write_text(json.dumps(summary, indent=1))
    shutil.rmtree(work)
    return result, summary


def _print_summary(summary: dict) -> None:
    r = summary["result"]
    print(f"== {summary['workload']} (seed {summary['seed']}, trace {summary['trace']}): "
          f"{summary['why']}")
    print(f"   passes {summary['passes']}, attempted {r['attempted']}, "
          f"failed {r['failed']}, failed_frac {r['failed'] / r['attempted']:.4g} (1)")
    for k, m in r["metrics"].items():
        print(f"   {k} = {m['value']:.6g} {m['unit']}")
    shown = set()
    for v in summary["calls"]:
        if v["experiment"] in shown:
            continue
        shown.add(v["experiment"])
        for g, gate in v["gates"].items():
            print(f"   gate {g} = {gate['value']!r} (pass if {gate['threshold']}) "
                  f"{'pass' if gate['passed'] else 'FAIL'}")
        for g in v["gate_failures"]:
            print(f"   gate failure reported by {v['experiment']}: {g}")
    if not summary["reference_checked"]:
        print(f"   no recorded reference for seed {summary['seed']}: headline numbers "
              "not compared")
    for p in summary["problems"]:
        print(f"   PROBLEM {p}")
    print(f"   environment {json.dumps(summary['environment'], sort_keys=True)}")
    print(f"   source {json.dumps(summary['source'], sort_keys=True)}")


def _check_spec() -> None:
    """The metric names printed must be those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    if declared != (END_TO_END, PER_LAYER):
        raise BenchError("BENCHMARK.json metrics differ from the ones the benchmark reports")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "fermicond" / "__init__.py").is_file():
        print(f"no fermicond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        _check_spec()
        WORK.mkdir(exist_ok=True)
        results = []
        for name in names:
            result, summary = run_workload(name, args.seed, args.seconds, args.trace)
            _print_summary(summary)
            results.append((name, result))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": m for n, r in results
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
