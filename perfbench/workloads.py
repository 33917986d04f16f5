"""Workload definitions of the fermicond benchmark.

Each workload is a fixed sequence of `fermicond run <experiment>` calls on
generated configs.  The benchmark seed becomes the disorder master seed; the
program sees nothing but the generated config files.  Sizes are part of the
definition: changing one is a new benchmark, not a tuning.

Pure Python on purpose: the benchmark's parent process imports this module
and must not import numpy (thread settings are fixed before numpy loads, in
the workload process only).
"""

from __future__ import annotations

import copy

# Blocks copied from configs/default.json and configs/disordered.json as they
# stood when the benchmark was defined, so that editing a shipped config does
# not silently change a workload.
_DEFAULT_JSON = {
    "model": {"d": 1, "sites": 6, "theta": 0.5, "lambda": 1.0, "beta": 1.0,
              "interaction": "none", "decay_form": "polynomial", "decay_epsilon": 3.0},
    "field": {"shape": "flat-sin2", "t0": 0.0, "t1": 1.0, "etas": [0.02, 0.04, 0.08],
              "w": [1.0], "halfwidth": 1.0, "scale": 2.0},
    "disorder": {"kind": "deterministic-zero", "seed": 20240901, "n_samples": 8},
    "run": {"t_max": 10.0, "n_times": 201, "dt": 0.02, "workers": 1},
}
_DISORDERED_INTERACTION = {"interaction": "density-density", "U": 1.0, "range": 1}

# 9-site Hubbard chain with generic (complex-hopping) disorder
_HUBBARD9 = {"d": 1, "sites": 9, "theta": 0.5, "lambda": 1.0, "beta": 1.0,
             "interaction": "hubbard", "U": 1.0,
             "decay_form": "polynomial", "decay_epsilon": 3.0}


def _config(seed: int, model: dict, n_samples: int, kind: str = "iid-uniform",
            etas=None, dt=None) -> dict:
    cfg = copy.deepcopy(_DEFAULT_JSON)
    cfg["model"] = dict(model)
    cfg["disorder"] = {"kind": kind, "seed": seed, "n_samples": n_samples}
    if etas is not None:
        cfg["field"]["etas"] = list(etas)
    if dt is not None:
        cfg["run"]["dt"] = dt
    return cfg


def _sweep(seed):
    return [("transport", _config(seed, _HUBBARD9, n_samples=4))]


def _drive(seed):
    model = dict(_DEFAULT_JSON["model"], sites=8, **_DISORDERED_INTERACTION)
    cfg = _config(seed, model, n_samples=32, etas=(0.02, 0.04), dt=0.04)
    return [("ohm", cfg), ("joule", cfg)]


def _study(seed):
    cfg = _config(seed, _HUBBARD9, n_samples=4)
    return [(name, cfg) for name in
            ("measure", "drude-compare", "levy", "lieb-robinson", "green-kubo")]


def _battery(seed):
    cfg = copy.deepcopy(_DEFAULT_JSON)
    cfg["disorder"]["seed"] = seed
    return [("invariants", cfg)]


# name -> (why it exists, seed -> [(experiment, config dict)])
WORKLOADS = {
    "sweep": ("disorder averaging: transport over 4 samples of a 9-site Hubbard chain, "
              "cold cache; H assembly, eigh and kernel build, no propagator", _sweep),
    "drive": ("real-time path: ohm then joule on an 8-site interacting chain; W_t "
              "assembly and CF4 propagator steps dominate", _drive),
    "study": ("five analyses of one 9-site system sharing one cache: the first lookup "
              "misses, the rest hit; measures, Levy sampler, Lieb-Robinson", _study),
    "battery": ("invariants oracle battery over ~100 small systems (N=4,6,8): per-call "
                "overhead, CAR checks, KMS and the work functional", _battery),
}


def plan(name: str, seed: int) -> list[tuple[str, dict]]:
    """The experiment calls of one iteration of workload `name`."""
    return WORKLOADS[name][1](seed)
