"""Output parity of the benchmark workloads between two checkouts.

    python tools/output_parity.py run --seeds 0-31,20240901 --out new.json
    python tools/output_parity.py run --root ../parent --seeds 0-31,20240901 --out old.json
    python tools/output_parity.py compare old.json new.json

`run` executes every call of the chosen workloads of perfbench/workloads.py
in-process, for each seed, with the program and the workload definitions of
the checkout at --root (default: the checkout holding this file), and a fresh
spectral cache per workload and seed.  Per call it records the exit code, a
crash traceback, the manifest's gate failures and the sha256 of every output
file except the manifest, whose wall time changes from run to run.

`compare` lists every call whose exit code or crash differs, every output
file whose bytes differ (or exists on one side only) and every gate failure
that appears on one side only.  It exits 1 when anything differs.

Pin BLAS to one thread (OPENBLAS_NUM_THREADS=1 and the like) for runs that are
compared: threaded reductions need not repeat bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_call(main, experiment: str, cfg: dict, workdir: Path) -> dict:
    config = workdir / f"config-{experiment}.json"
    config.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    out = workdir / experiment
    code, error = None, None
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["run", experiment, "--config", str(config), "--out", str(out)])
    except Exception:  # a crash is a result to compare, not a reason to stop
        error = traceback.format_exc()
    manifest = out / "manifest.json"
    gates = json.loads(manifest.read_text())["gate_failures"] if manifest.exists() else None
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.glob("*")) if p.is_file() and p.name != "manifest.json"}
    return {"exit_code": code, "error": error, "gate_failures": gates, "files": files}


def run(root: Path, seeds: list[int], names: list[str]) -> dict:
    sys.path.insert(0, str(root / "src"))
    from fermicond.cli import main

    workloads = _load_workloads(root)
    calls = {}
    for seed in seeds:
        for name in names:
            with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
                os.environ["FERMICOND_CACHE_DIR"] = str(Path(tmp) / "cache")
                for i, (experiment, cfg) in enumerate(workloads.plan(name, seed)):
                    workdir = Path(tmp) / str(i)
                    workdir.mkdir()
                    key = f"{name}/seed{seed}/{i}-{experiment}"
                    calls[key] = _run_call(main, experiment, cfg, workdir)
                    print(key, calls[key]["exit_code"], file=sys.stderr)
    return {"root": str(root), "seeds": seeds, "workloads": names, "calls": calls}


def compare(old: dict, new: dict) -> list[str]:
    """One line per difference between two run records."""
    lines = []
    for key in sorted(set(old["calls"]) | set(new["calls"])):
        a, b = old["calls"].get(key), new["calls"].get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        if (a["exit_code"], a["error"] is None) != (b["exit_code"], b["error"] is None):
            lines.append(f"{key}: exit {a['exit_code']} -> {b['exit_code']}"
                         f"{' (crash)' if b['error'] else ''}")
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"{key}: {name} differs")
        gates_a, gates_b = set(a["gate_failures"] or []), set(b["gate_failures"] or [])
        lines += [f"{key}: gate fails only in old: {g}" for g in sorted(gates_a - gates_b)]
        lines += [f"{key}: gate fails only in new: {g}" for g in sorted(gates_b - gates_a)]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the workloads and record their outputs")
    runp.add_argument("--root", type=Path, default=ROOT, help="checkout to run")
    runp.add_argument("--seeds", default="20240901", help="e.g. 0-31,20240901")
    runp.add_argument("--workloads", default="all", help="comma list, or all")
    runp.add_argument("--out", type=Path, required=True, help="JSON record to write")
    cmpp = sub.add_parser("compare", help="list the differences of two records")
    cmpp.add_argument("old", type=Path)
    cmpp.add_argument("new", type=Path)
    args = p.parse_args(argv)

    if args.command == "run":
        root = args.root.resolve()
        names = (sorted(_load_workloads(root).WORKLOADS) if args.workloads == "all"
                 else args.workloads.split(","))
        record = run(root, parse_seeds(args.seeds), names)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True))
        failing = sum(bool(c["error"] or c["exit_code"] or c["gate_failures"])
                      for c in record["calls"].values())
        print(f"{len(record['calls'])} calls, {failing} with a crash, exit code or gate failure")
        return 0

    old, new = (json.loads(path.read_text()) for path in (args.old, args.new))
    lines = compare(old, new)
    print("\n".join(lines))
    print(f"{len(old['calls'])} / {len(new['calls'])} calls compared, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
