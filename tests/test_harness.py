import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fermicond import cache as cache_module
from fermicond import fock
from fermicond.cache import CacheCorruptionError, CacheCorruptionWarning, SpectralCache
from fermicond.cli import main
from fermicond.config import ConfigError, ExperimentConfig
from fermicond.equilibrium import DiagonalizationError, SpectralData
from fermicond.csvout import write_csv
from fermicond.experiments import REGISTRY, UnknownExperimentError, build_system, run_experiment
from fermicond.lattice import DisorderDistribution
from fermicond.model import build_hamiltonian


BASE_CONFIG = {
    "model": {"d": 1, "sites": 4, "theta": 0.0, "lambda": 0.0, "beta": 1.0,
              "interaction": "none"},
    "field": {"shape": "flat-sin2", "t0": 0.0, "t1": 1.0,
              "etas": [0.02, 0.04, 0.08], "w": [1.0]},
    "disorder": {"kind": "deterministic-zero", "seed": 11, "n_samples": 2},
    "run": {"t_max": 5.0, "n_times": 41, "dt": 0.02, "workers": 1},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    data = json.loads(json.dumps(BASE_CONFIG))
    for path, value in (overrides or {}).items():
        block, key = path.split(".")
        data.setdefault(block, {})[key] = value
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_config_round_trip(tmp_path):
    p = write_config(tmp_path)
    cfg = ExperimentConfig.load(p)
    # load -> canonicalize -> dump -> load yields the identical canonical form
    again = ExperimentConfig.from_dict(json.loads(cfg.canonical()))
    assert again.canonical() == cfg.canonical()
    assert again.hash() == cfg.hash()


def test_config_hash_stable_under_key_order(tmp_path):
    p1 = write_config(tmp_path, name="a.json")
    data = json.loads(p1.read_text())
    shuffled = {k: data[k] for k in reversed(list(data))}
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps(shuffled))
    assert ExperimentConfig.load(p1).hash() == ExperimentConfig.load(p2).hash()


def test_config_field_level_errors(tmp_path):
    p = write_config(tmp_path, {"model.beta": -1.0, "disorder.kind": "bogus",
                                "run.dt": 0.0})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(p)
    msgs = "\n".join(err.value.errors)
    assert "model.beta" in msgs and "disorder.kind" in msgs and "run.dt" in msgs
    # field input that would otherwise run: a nan Richardson check that passes
    # its gate, an SVD crash, a field that never switches on, a remainder slope
    # fitted through one eta
    bad_fields = [("field.w", [0.0]), ("field.w", [float("nan")]),
                  ("field.w", [float("inf")]), ("field.etas", [0.02, 0.0]),
                  ("field.etas", [-0.04]), ("field.etas", [0.04]),
                  ("field.etas", [0.04, 0.04]), ("field.halfwidth", 0.0),
                  ("field.halfwidth", -1.0)]
    for i, (key, value) in enumerate(bad_fields):
        p = write_config(tmp_path, {key: value}, name=f"field{i}.json")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.load(p)
        assert any(e.startswith(key) for e in err.value.errors), (key, value)
        assert main(["run", "ohm", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("overrides, key", [
    ({"model.sites": 15}, "model.sites"),  # above DEFAULT_SITE_CAP
    ({"model.d": 2, "model.sites": None, "model.shape": [4, 4]}, "model.shape"),
    ({"model.d": 3, "model.sites": None, "model.l": 1}, "model.l"),
    ({"model.interaction": "density-density", "model.U": 1.0, "model.range": 6},
     "model.range"),  # beyond the 4-site box's extent of 5
    ({"disorder.kind": "iid-uniform", "disorder.seed": -1}, "disorder.seed"),
    # these three ended in a traceback (TypeError, ZeroDivisionError) and exit 1
    ({"disorder.kind": "iid-uniform", "disorder.seed": 1.5}, "disorder.seed"),
    ({"model.sites": 4.5}, "model.sites"),
    ({"model.d": 2, "model.sites": None, "model.shape": [2, -3]}, "model.shape"),
    # ran to exit 0 with a decay function F(r) that grows with r
    ({"model.decay_form": "exponential", "model.decay_sigma": -3}, "model.decay_sigma"),
    ({"model.decay_sigma": 0.0}, "model.decay_sigma"),
])
def test_config_rejects_what_would_crash_the_run(tmp_path, capsys, overrides, key):
    p = write_config(tmp_path, overrides)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(p)
    assert any(e.startswith(key) for e in err.value.errors), err.value.errors
    assert main(["run", "transport", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides", [
    # each ended in a TypeError traceback and exit 1, in validation or in the run;
    # a nan beta ran to exit 0 with an all-zero measure
    {"model.theta": "0.5"}, {"model.beta": [1]}, {"field.etas": ["0.02", "0.04"]},
    {"field.w": ["1"]}, {"field.halfwidth": None}, {"run.t_max": "10"}, {"run.dt": None},
    {"model.U": "1", "model.interaction": "hubbard"},
    {"model.lambda": True}, {"model.beta": float("nan")}, {"field.t1": float("inf")},
    {"model.range": "1", "model.interaction": "density-density", "model.U": 1.0},
], ids=lambda o: "{}={!r}".format(*next(iter(o.items()))))
def test_config_rejects_non_numbers(tmp_path, capsys, overrides):
    key = next(iter(overrides))
    p = write_config(tmp_path, overrides)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(p)
    assert len(err.value.errors) == 1 and err.value.errors[0].startswith(key), err.value.errors
    assert main(["validate-config", str(p)]) == 2
    assert key in capsys.readouterr().err
    assert main(["run", "measure", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, key", [("--seed", "-1", "disorder.seed"),
                                              ("--workers", "0", "run.workers")])
def test_cli_overrides_are_validated(tmp_path, monkeypatch, capsys, flag, value, key):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    p = write_config(tmp_path, {"disorder.kind": "iid-uniform"})
    out = tmp_path / "o"
    assert main(["run", "transport", "--config", str(p), flag, value, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_unknown_keys(tmp_path):
    p = write_config(tmp_path, {"model.flux": 3})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(p)
    assert any("model.flux" in e for e in err.value.errors)


def test_cache_round_trip(tmp_path):
    cache = SpectralCache(str(tmp_path / "cache"))
    h = np.diag([0.0, 1.0, 3.0])
    sd = SpectralData.from_hamiltonian(h)
    cache.put("abc", 7, sd)
    back = cache.get("abc", 7)
    assert np.array_equal(back.eigenvalues, sd.eigenvalues)
    assert back.source_hash == sd.source_hash
    assert cache.get("abc", 8) is None
    st = cache.stats()
    assert st["entries"] == 1 and st["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0


def test_cache_corruption_detected(tmp_path):
    cache = SpectralCache(str(tmp_path / "cache"))
    sd = SpectralData.from_hamiltonian(np.diag([0.0, 2.0]))
    path = cache.put("abc", 1, sd)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptionError):
        cache.get("abc", 1)


def test_cache_returns_the_entry_it_verified(tmp_path, monkeypatch):
    """A writer that replaces the entry right after get() has read it for the
    checksum must not change what get() returns."""
    cache = SpectralCache(str(tmp_path / "cache"))
    sd = SpectralData.from_hamiltonian(np.diag([0.0, 2.0]))
    path = cache.put("abc", 1, sd)
    other = SpectralCache(str(tmp_path / "other"))
    swapped = other.put("abc", 1, SpectralData.from_hamiltonian(np.diag([5.0, 7.0])))
    read_bytes = Path.read_bytes

    def read_then_swap(self):
        data = read_bytes(self)
        if self == path:
            os.replace(swapped, path)
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_swap)
    back = cache.get("abc", 1)
    assert np.array_equal(back.eigenvalues, sd.eigenvalues)
    assert back.source_hash == sd.source_hash
    assert not swapped.exists() and path.exists()  # the swap did happen


def _assert_same_spectral(a, b):
    """Bit-identical eigenvalues, U blocks, column positions and source hash."""
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert len(a.blocks) == len(b.blocks)
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
    assert np.array_equal(a.columns, b.columns)
    assert a.source_hash == b.source_hash


def test_cache_round_trips_the_blocks(tmp_path):
    # the sector blocks of an interacting chain, and the one block of an H
    # that changes the particle number
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.model.interaction, cfg.model.U, cfg.model.theta = "hubbard", 1.0, 0.5
    cfg.disorder.kind = "iid-uniform"
    system = build_system(cfg, 0, use_cache=False)
    h = build_hamiltonian(system.rep, system.box, system.omega, 0.5, 0.0, cfg.model.ip())
    a = system.rep.annihilator(system.box.sites[1])
    cache = SpectralCache(str(tmp_path / "cache"))
    for seed, mat in enumerate((h, h + 0.3 * (a + a.conj().T))):
        sd = SpectralData.from_hamiltonian(mat)
        cache.put("abc", seed, sd)
        back = cache.get("abc", seed)
        _assert_same_spectral(back, sd)
        assert back.layout is sd.layout
        assert len(sd.blocks) == (len(fock.number_sectors(len(mat))) if seed == 0 else 1)


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "envcache"))
    cache = SpectralCache("ignored-when-env-set")
    assert str(cache.dir).endswith("envcache")


def _count_diagonalizations(monkeypatch):
    calls = []
    original = SpectralData.from_hamiltonian.__func__

    def counted(cls, h):
        calls.append(1)
        return original(cls, h)

    monkeypatch.setattr(SpectralData, "from_hamiltonian", classmethod(counted))
    return calls


def test_build_system_uses_cache(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.run.cache_dir = str(tmp_path / "cache")
    monkeypatch.delenv("FERMICOND_CACHE_DIR", raising=False)
    calls = _count_diagonalizations(monkeypatch)
    sys1 = build_system(cfg, 0)
    assert len(calls) == 1
    sys2 = build_system(cfg, 0)
    assert len(calls) == 1  # a hit is validated without a new eigendecomposition
    assert np.array_equal(sys1.spectral.eigenvalues, sys2.spectral.eigenvalues)
    assert SpectralCache(cfg.run.cache_dir).stats()["entries"] >= 1


def test_cache_key_separates_disorder_kinds(tmp_path, monkeypatch):
    monkeypatch.delenv("FERMICOND_CACHE_DIR", raising=False)
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.run.cache_dir = str(tmp_path / "cache")
    cfg.model.theta = 0.5
    systems = {}
    for kind in ("iid-uniform", "iid-real-hopping"):
        cfg.disorder.kind = kind
        systems[kind] = build_system(cfg, 0)
    assert SpectralCache(cfg.run.cache_dir).stats()["entries"] == 2
    calls = _count_diagonalizations(monkeypatch)
    for kind, first in systems.items():
        cfg.disorder.kind = kind
        again = build_system(cfg, 0)
        assert np.array_equal(again.spectral.eigenvalues, first.spectral.eigenvalues)
    assert calls == []


def test_cache_format_bump_rebuilds_old_entries(tmp_path, monkeypatch):
    # entries of format 1 (a dense U from one full eigh) and format 2 (the
    # sector eigh scattered into a dense U) are not served; the rebuilt entry
    # holds U's sector blocks and hits with no eigh
    monkeypatch.delenv("FERMICOND_CACHE_DIR", raising=False)
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.run.cache_dir = str(tmp_path / "cache")
    cfg.disorder.kind = "iid-uniform"
    fresh = build_system(cfg, 0, use_cache=False)
    m = cfg.model
    h = build_hamiltonian(fresh.rep, fresh.box, fresh.omega, m.theta, m.lam, m.ip())
    key = f"{cfg.model_hash()}:{cfg.disorder.kind}"
    seed = DisorderDistribution(cfg.disorder.kind, cfg.disorder.seed).derived(0).seed
    cache = SpectralCache(cfg.run.cache_dir)
    old = {1: np.linalg.eigh(h), 2: (fresh.spectral.eigenvalues, fresh.spectral.dense_u())}
    for version, (evals, evecs) in old.items():
        with monkeypatch.context() as mp:
            mp.setattr(cache_module, "CACHE_FORMAT_VERSION", version)
            path = cache._path(key, seed)
        np.savez(path, eigenvalues=evals, eigenvectors=evecs,
                 source_hash=np.str_(fresh.spectral.source_hash))
        path.with_suffix(".sha256").write_text(
            hashlib.sha256(path.read_bytes()).hexdigest() + "\n")
    assert cache_module.CACHE_FORMAT_VERSION == 3
    assert cache.get(key, seed) is None
    calls = _count_diagonalizations(monkeypatch)
    rebuilt = build_system(cfg, 0).spectral
    assert len(calls) == 1
    assert rebuilt.layout is fock.sector_layout(h)
    assert cache.stats()["entries"] == 3
    again = build_system(cfg, 0).spectral
    assert len(calls) == 1
    _assert_same_spectral(again, fresh.spectral)


@pytest.mark.parametrize("damage", ["flip-byte", "drop-sidecar"])
def test_build_system_recovers_corrupt_entry(tmp_path, monkeypatch, damage):
    monkeypatch.delenv("FERMICOND_CACHE_DIR", raising=False)
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.run.cache_dir = str(tmp_path / "cache")
    build_system(cfg, 0)
    (entry,) = SpectralCache(cfg.run.cache_dir).dir.glob("*.npz")
    if damage == "flip-byte":
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
    else:
        entry.with_suffix(".sha256").unlink()
    with pytest.warns(CacheCorruptionWarning):
        rebuilt = build_system(cfg, 0).spectral
    fresh = build_system(cfg, 0, use_cache=False).spectral  # from_hamiltonian, no cache
    _assert_same_spectral(rebuilt, fresh)
    # the entry left behind is valid: the next build is a silent hit with no eigh
    assert SpectralCache(cfg.run.cache_dir).stats()["entries"] == 1
    calls = _count_diagonalizations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = build_system(cfg, 0).spectral
    assert calls == []
    _assert_same_spectral(again, fresh)


def test_corrupt_entry_is_evicted_before_recompute(tmp_path, monkeypatch):
    # a recompute that fails must not leave the corrupt entry behind
    monkeypatch.delenv("FERMICOND_CACHE_DIR", raising=False)
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.run.cache_dir = str(tmp_path / "cache")
    build_system(cfg, 0)
    (entry,) = SpectralCache(cfg.run.cache_dir).dir.glob("*.npz")
    entry.write_bytes(entry.read_bytes()[:-1])

    def failing(cls, h):
        raise DiagonalizationError("recompute failed")

    monkeypatch.setattr(SpectralData, "from_hamiltonian", classmethod(failing))
    with pytest.warns(CacheCorruptionWarning), pytest.raises(DiagonalizationError):
        build_system(cfg, 0)
    assert not entry.exists() and not entry.with_suffix(".sha256").exists()


def test_unknown_experiment(tmp_path):
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    with pytest.raises(UnknownExperimentError):
        run_experiment("bogus", cfg, tmp_path)


def test_write_csv_cells(tmp_path):
    # no rows: header-only file
    path = write_csv(tmp_path / "empty.csv", ["a", "b"], [])
    assert path.read_text() == "a,b\n"
    # provenance line: sorted keys, k=v
    path = write_csv(tmp_path / "p.csv", ["x"], [[1.5]], {"seed": 3, "beta": 0.5})
    assert path.read_text().splitlines() == ["# beta=0.5,seed=3", "x", "1.5"]
    path = write_csv(tmp_path / "c.csv", ["f", "i", "b", "nb", "s"],
                     [[np.float64(0.1), np.int64(7), True, np.bool_(False), "xi_d"]])
    assert path.read_text().splitlines()[1] == "0.1,7,1,0,xi_d"


def test_measure_plot_csvs(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    # a one-site chain has no bond, so its measure has no atoms
    cfg = ExperimentConfig.load(write_config(tmp_path, {"model.sites": 1}))
    manifest = run_experiment("measure", cfg, tmp_path / "out")
    assert manifest["gate_failures"] == []
    names = {f["name"] for f in manifest["files"]}
    assert {"measure.csv", "density.csv"} <= names
    meas_lines = (tmp_path / "out" / "measure.csv").read_text().splitlines()
    assert len(meas_lines) == 2  # header + zero-atom row
    dens_lines = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert len(dens_lines) == 1 + 201
    assert all(line.endswith(",0.0") for line in dens_lines[1:])


def test_measure_experiment_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    manifest = run_experiment("measure", cfg, tmp_path / "out")
    assert manifest["gate_failures"] == []
    assert (tmp_path / "out" / "manifest.json").exists()
    names = {f["name"] for f in manifest["files"]}
    assert {"measure.csv", "density.csv", "cesaro.csv"} <= names
    # every listed file carries a correct checksum
    import hashlib
    for f in manifest["files"]:
        body = (tmp_path / "out" / f["name"]).read_bytes()
        assert hashlib.sha256(body).hexdigest() == f["sha256"]


def test_rerun_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    m1 = run_experiment("transport", cfg, tmp_path / "a")
    m2 = run_experiment("transport", cfg, tmp_path / "b")
    assert [f["sha256"] for f in m1["files"]] == [f["sha256"] for f in m2["files"]]


def test_parallel_equals_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.disorder.kind = "iid-uniform"
    cfg.disorder.n_samples = 4
    m1 = run_experiment("transport", cfg, tmp_path / "serial")
    cfg.run.workers = 4
    m2 = run_experiment("transport", cfg, tmp_path / "par")
    assert [f["sha256"] for f in m1["files"]] == [f["sha256"] for f in m2["files"]]


def test_cli_validate_config(tmp_path, capsys):
    good = write_config(tmp_path, name="good.json")
    assert main(["validate-config", str(good)]) == 0
    bad = write_config(tmp_path, {"run.dt": -1.0}, name="bad.json")
    assert main(["validate-config", str(bad)]) == 2
    assert main(["validate-config", str(tmp_path / "missing.json")]) == 2
    notjson = tmp_path / "nj.json"
    notjson.write_text("{oops")
    assert main(["validate-config", str(notjson)]) == 2


def test_cli_cache_commands(tmp_path, capsys):
    cdir = tmp_path / "cache"
    assert main(["cache", "stats", "--cache-dir", str(cdir)]) == 0
    out = capsys.readouterr().out
    assert "entries: 0" in out
    assert main(["cache", "clear", "--cache-dir", str(cdir)]) == 0


def test_cli_run_and_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg_path = write_config(tmp_path)
    code = main(["run", "measure", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert main(["run", "bogus", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out2")]) == 2
    # seed override propagates
    code = main(["run", "measure", "--config", str(cfg_path), "--seed", "99",
                 "--out", str(tmp_path / "out3")])
    assert code == 0
    m = json.loads((tmp_path / "out3" / "manifest.json").read_text())
    assert m["gate_failures"] == []


def test_invariants_experiment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg = ExperimentConfig.from_dict(BASE_CONFIG)
    cfg.model.sites = 6
    manifest = run_experiment("invariants", cfg, tmp_path / "inv")
    assert manifest["gate_failures"] == []
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    # check name and detail are text; passed is an integer
    assert_plain_csv(tmp_path / "inv" / "invariants.csv", text_columns=(0, 2))
    # the passivity row reports the least L itself, not min(0, L): a cyclic
    # drive of a Gibbs state does positive work
    with open(tmp_path / "inv" / "invariants.csv") as fh:
        detail = {row[0]: row[2] for row in csv.reader(fh)}["passivity-work-functional"]
    assert detail.startswith("min L = ") and float(detail.split("=")[1]) > 0


def test_invariants_average_a_chain_on_any_box(tmp_path, monkeypatch):
    # the battery's disorder average runs on a 4-site d=1 chain whatever box
    # the config sets: a d=2 config given by 'l' ended in a ConfigError, and
    # on a 2x3 config the "4-site member" was the whole 2x3 box
    from fermicond import experiments
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(experiments, "DEFAULT_BATTERY", {
        "sites": (4,), "betas": (1.0,), "thetas": (0.0,), "lambdas": (0.0,),
        "interactions": ("none",), "n_samples": 2})
    boxes = []
    build = experiments.build_system

    def recorded(cfg, index=0, **kwargs):
        system = build(cfg, index, **kwargs)
        boxes.append(system.box.sites)
        return system

    monkeypatch.setattr(experiments, "build_system", recorded)
    cube = {"model.d": 2, "model.sites": None, "model.l": 1, "field.w": [1.0, 0.0]}
    for i, overrides in enumerate((cube, SQUARE_2X3)):
        boxes.clear()
        p = write_config(tmp_path, overrides, f"cfg{i}.json")
        assert main(["run", "invariants", "--config", str(p),
                     "--out", str(tmp_path / f"inv{i}")]) == 0
        assert boxes == [((-1,), (0,), (1,), (2,))] * 2


def test_registry_complete():
    assert {"transport", "ohm", "joule", "measure", "drude-compare", "levy",
            "invariants", "lieb-robinson", "time-reversal"} <= set(REGISTRY)


SQUARE_2X3 = {"model.d": 2, "model.shape": [2, 3], "model.theta": 0.5, "model.lambda": 1.0,
              "model.beta": 0.5, "field.w": [1.0, 0.0], "disorder.kind": "iid-uniform",
              "disorder.seed": 3}

SMOKE_OVERRIDES = {
    "ohm": {"model.sites": 4},
    "joule": {"model.sites": 5, "field.scale": 1.0},
    "levy": {"model.sites": 5},
    "drude-compare": {"model.sites": 5, "disorder.kind": "iid-uniform",
                      "model.theta": 0.3, "model.lambda": 0.5},
    "lieb-robinson": {"model.sites": 6},
    "time-reversal": {"model.sites": 4, "disorder.kind": "iid-real-hopping",
                      "model.theta": 0.5},
    "green-kubo": {},
}


def assert_plain_csv(path, text_columns=(0,)):
    """Past the provenance line and the header, every row has one cell per
    column and every cell is a float unless it sits in one of text_columns
    (row labels); no numpy repr leaks anywhere."""
    text = path.read_text()
    assert "np." not in text, path.name
    header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    for row in rows:
        assert len(row) == len(header), path.name
        for i, cell in enumerate(row):
            if i not in text_columns:
                float(cell)  # raises on reprs such as np.float64(1.9)


# ohm on a 2d box with [Xi_p]_- != 0: the driven response follows Xi_p(t-s)^T
@pytest.mark.parametrize("experiment,overrides",
                         [*SMOKE_OVERRIDES.items(), ("ohm", SQUARE_2X3)])
def test_experiment_smoke(tmp_path, monkeypatch, experiment, overrides):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    p = write_config(tmp_path, overrides)
    cfg = ExperimentConfig.load(p)
    manifest = run_experiment(experiment, cfg, tmp_path / "out")
    assert manifest["gate_failures"] == [], manifest["gate_failures"]
    assert manifest["files"]


def test_ohm_richardson_any_eta_ratio(tmp_path, monkeypatch):
    # eta2 / eta1 = 2.5: the two-point extrapolation (r x - y) / (r - 1) of the
    # scaled currents x = j(eta1)/eta1, y = j(eta2)/eta2 cancels their O(eta) term
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg = ExperimentConfig.load(write_config(tmp_path, {
        "model.theta": 0.5, "disorder.kind": "iid-uniform", "field.etas": [0.02, 0.05]}))
    run_experiment("ohm", cfg, tmp_path / "out")
    header, *rows = [line.split(",") for line in
                     (tmp_path / "out" / "ohm.csv").read_text().splitlines()
                     if not line.startswith("#")]
    last = dict(zip(header, map(float, rows[-1])))
    r = 0.05 / 0.02
    x, y = last["J_p_eta0.02[0]"], last["J_p_eta0.05[0]"]
    expected = abs((r * x - y) / (r - 1) - last["J_lin[0]"])
    report = dict(line.split(",") for line in
                  (tmp_path / "out" / "ohm_report.csv").read_text().splitlines()[1:])
    assert abs(float(report["richardson_vs_convolution"]) - expected) <= 1e-12 * expected


def test_report_csvs_plain_floats(tmp_path, monkeypatch):
    # every manifest file of every registered experiment but invariants, whose
    # cells test_invariants_experiment checks
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    for experiment in sorted(set(REGISTRY) - {"invariants"}):
        overrides = SMOKE_OVERRIDES.get(experiment, {})
        cfg = ExperimentConfig.load(write_config(tmp_path, overrides, f"{experiment}.json"))
        manifest = run_experiment(experiment, cfg, tmp_path / experiment)
        assert manifest["files"], experiment
        for f in manifest["files"]:
            assert_plain_csv(tmp_path / experiment / f["name"])
    for experiment in ("ohm", "joule"):
        lines = (tmp_path / experiment / f"{experiment}_report.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
    lines = (tmp_path / "levy" / "levy_quantiles.csv").read_text().splitlines()
    assert lines[0] == "t,q5,q25,q50,q75,q95"


def test_levy_anisotropy_is_a_gate_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    p = write_config(tmp_path, SQUARE_2X3)
    assert main(["run", "levy", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
    m = json.loads((tmp_path / "out" / "manifest.json").read_text())
    [failure] = m["gate_failures"]
    assert "anisotropy" in failure and "threshold 1e-08" in failure
    sup = build_system(ExperimentConfig.load(p), 0).kernel.xi_minus_sup()
    assert sup > 1e-8 and f"= {sup!r} " in failure


def test_green_kubo_sweeps_three_boxes(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    # a d=1 config given by shape: the sweep must still build 3-, 5- and 7-site chains
    cfg = ExperimentConfig.load(write_config(tmp_path, {"model.shape": [4]}))
    manifest = run_experiment("green-kubo", cfg, tmp_path / "gk")
    assert manifest["gate_failures"] == []
    rows = [line.split(",") for line in
            (tmp_path / "gk" / "green_kubo.csv").read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [3, 5, 7]
    assert len({r[2] for r in rows}) == 3
    # a 2x3 config has no chain family: a named gate failure, no residual rows
    cfg2 = ExperimentConfig.load(write_config(tmp_path, SQUARE_2X3, "sq.json"))
    manifest = run_experiment("green-kubo", cfg2, tmp_path / "gk2")
    assert manifest["files"] == []
    [failure] = manifest["gate_failures"]
    assert "chains of 3, 5 and 7 sites" in failure


def test_driven_runs_import_no_scipy(tmp_path):
    """scipy is a test dependency only: ohm and joule run on numpy alone."""
    import fermicond
    p = write_config(tmp_path)
    script = (
        "import sys\n"
        "from fermicond.cli import main\n"
        "for exp in ('ohm', 'joule'):\n"
        f"    code = main(['run', exp, '--config', {str(p)!r}, '--out', {str(tmp_path)!r} + '/' + exp])\n"
        "    assert code == 0, (exp, code)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, FERMICOND_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(fermicond.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
