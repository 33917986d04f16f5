"""Record the headline references of the benchmark's output checker.

    python3 perfbench/record_references.py OUT.json SEED [SEED ...]

Runs one pass of every workload per seed and merges the headline numbers
(perfbench/check.py) into OUT.json, keyed by seed and workload.  Recording
refuses outputs that do not check out on their own (manifest, exit code and
gate consistency).  References are meant to be recorded once, at the commit
that defined the benchmark, and kept: re-recording them at a later commit
would hide a change in the numbers instead of catching it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import check
import run
import workloads


def record(seed: int) -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        work = run.WORK / f"record-{name}-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        res = run.spawn(name, seed, "pass", work, time.monotonic() + 3600)
        headlines = {}
        for call in res["pass"]["calls"]:
            verdict = check.check_call(call, None)
            if verdict["problems"]:
                raise SystemExit(f"{name} seed {seed}: {verdict['problems']}")
            headlines.update(verdict["headlines"])
        out[name] = headlines
        shutil.rmtree(work)
        print(f"seed {seed} {name}: {res['pass']['wall_s']:.1f} s", flush=True)
    return out


def main(argv) -> int:
    path = Path(argv[0])
    refs = json.loads(path.read_text()) if path.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    for seed in map(int, argv[1:]):
        refs[str(seed)] = record(seed)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
