"""Workload process of the fermicond benchmark: one pass of one client.

    python3 perfbench/worker.py --workload W --seed N --mode probe|pass|traced \
        --workdir DIR

Set-up (imports, config generation, a fresh cache directory under DIR) runs
first; the monotonic clock reading just before the first experiment call is
reported so the parent can time interpreter start -> first call.  A probe
stops there.  A pass runs the workload's calls in sequence through
`fermicond.cli.main`; a traced pass does so with the span tracer installed.
Every pass is a fresh process, so each one pays the same first-use costs a
`fermicond run` user pays.  Results go to DIR/worker.json; the program's own
output goes to whatever stdout the parent gave.
"""

import os

# BLAS/OpenMP pools are sized when numpy loads, so pin them first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _write_configs(workdir: Path, plan) -> list[tuple[str, Path]]:
    configs = []
    for i, (experiment, cfg) in enumerate(plan):
        path = workdir / f"config-{i}-{experiment}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        configs.append((experiment, path))
    return configs


def run_pass(configs, workdir: Path, main, tracer=None) -> dict:
    """One pass over the workload's calls, timed as a whole and per call."""
    calls = []
    start = time.perf_counter()
    for i, (experiment, config) in enumerate(configs):
        out = workdir / f"{i}-{experiment}"
        argv = ["run", experiment, "--config", str(config), "--out", str(out)]
        t0 = time.perf_counter()
        code, error = None, None
        try:
            code = main(argv) if tracer is None else tracer.call(i, main, argv)
        except Exception:  # a crashing call is a failed call, not a crashed run
            error = traceback.format_exc()
        calls.append({"experiment": experiment, "out": str(out), "exit_code": code,
                      "error": error, "seconds": time.perf_counter() - t0})
    return {"wall_s": time.perf_counter() - start, "calls": calls}


def _bytes_written(calls) -> int:
    return sum(f.stat().st_size for c in calls if Path(c["out"]).is_dir()
               for f in Path(c["out"]).iterdir())


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("probe", "pass", "traced"))
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    from fermicond import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"fermicond imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    configs = _write_configs(workdir, workloads.plan(args.workload, args.seed))
    (workdir / "cache").mkdir()
    os.environ["FERMICOND_CACHE_DIR"] = str(workdir / "cache")
    result = {"ready": time.monotonic()}
    if args.mode == "pass":
        result["pass"] = run_pass(configs, workdir, cli.main)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["environment"] = _environment()
    elif args.mode == "traced":
        import tracer
        tr = tracer.Tracer()
        tr.install()
        result["pass"] = run_pass(configs, workdir, cli.main, tr)
        result["layers"] = tr.layer_metrics()
        result["layers"]["experiments.bytes_written"] = _bytes_written(result["pass"]["calls"])
        result["bindings"] = tr.bindings
        (workdir / "spans.json").write_text(json.dumps(tr.dump()))
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
