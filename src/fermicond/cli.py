"""Command line interface.

    fermicond run <experiment> --config cfg.json [--seed N] [--workers K] [--out DIR]
    fermicond validate-config cfg.json
    fermicond cache stats|clear [--cache-dir DIR]

Exit codes: 0 success, 2 invalid config, 3 numerical-gate failure.
"""

from __future__ import annotations

import argparse
import sys

from .cache import SpectralCache
from .config import ConfigError, ExperimentConfig
from .experiments import REGISTRY, UnknownExperimentError, run_experiment

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_GATE_FAILURE = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fermicond",
                                description="finite-volume transport laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a registered experiment")
    runp.add_argument("experiment", help=f"one of {sorted(REGISTRY)}")
    runp.add_argument("--config", required=True)
    runp.add_argument("--seed", type=int, default=None, help="override master seed")
    runp.add_argument("--workers", type=int, default=None)
    runp.add_argument("--out", default=None, help="output directory")

    valp = sub.add_parser("validate-config", help="validate a config file")
    valp.add_argument("path")

    cachep = sub.add_parser("cache", help="inspect or clear the spectral cache")
    cachep.add_argument("action", choices=("stats", "clear"))
    cachep.add_argument("--cache-dir", default=None)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate-config":
        try:
            cfg = ExperimentConfig.load(args.path)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return EXIT_BAD_CONFIG
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        print(f"ok (hash {cfg.hash()})")
        return EXIT_OK

    if args.command == "cache":
        cache = SpectralCache(args.cache_dir)
        if args.action == "stats":
            st = cache.stats()
            print(f"dir: {st['dir']}\nentries: {st['entries']}\nbytes: {st['bytes']}")
        else:
            print(f"removed {cache.clear()} files")
        return EXIT_OK

    # run
    try:
        cfg = ExperimentConfig.load(args.config)
        if args.seed is not None:
            cfg.disorder.seed = args.seed
        if args.workers is not None:
            cfg.run.workers = args.workers
        errors = cfg.validate()  # the overrides pass the same checks as the file
        if errors:
            raise ConfigError(errors)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    outdir = args.out or cfg.run.out_dir
    try:
        manifest = run_experiment(args.experiment, cfg, outdir)
    except UnknownExperimentError as exc:
        print(exc, file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"wrote {len(manifest['files'])} files to {outdir} "
          f"in {manifest['wall_seconds']:.1f}s")
    if manifest["gate_failures"]:
        for f in manifest["gate_failures"]:
            print(f"GATE FAILURE: {f}", file=sys.stderr)
        return EXIT_GATE_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
