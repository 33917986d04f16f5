import numpy as np
import pytest
from scipy import stats

from fermicond.config import ExperimentConfig
from fermicond.experiments import build_system, run_experiment
from fermicond.levy import (AnisotropyError, LevyTriple, char_exponent,
                            drude_jump_stats, drude_levy_measure, from_conductivity,
                            sample_paths, validate_char)
from fermicond.measure import DrudeSpec, MatrixMeasure, extract_measure

from conftest import make_system


def test_char_exponent_closed_forms():
    gauss = LevyTriple(0.7, np.zeros(0), np.zeros(0))
    assert char_exponent(gauss, 0.0) == 0.0
    alphas = np.linspace(-2, 2, 9)
    assert np.allclose(char_exponent(gauss, alphas), -0.35 * alphas ** 2)
    atom = LevyTriple(0.0, np.array([1.5]), np.array([0.4]))
    # +-nu pair with weight w each: 2 w (cos(alpha nu) - 1)
    assert np.allclose(char_exponent(atom, alphas),
                       2 * 0.4 * (np.cos(1.5 * alphas) - 1.0))


def test_from_conductivity_round_trip():
    sys = make_system(5, "deterministic-zero", seed=0)
    meas = extract_measure(sys["kernel"])
    triple = from_conductivity(meas, [1.0], sys["kernel"].xi_minus_sup())
    ts = np.linspace(-10, 10, 101)
    direct = sys["kernel"].xi_plus(ts)[:, 0, 0]
    assert np.abs(char_exponent(triple, ts) - direct).max() <= 1e-8
    # zero measure -> trivial triple
    empty = MatrixMeasure(np.zeros(0), np.zeros((0, 1, 1)), np.zeros((1, 1)))
    t0 = from_conductivity(empty, [1.0])
    assert t0.D0 == 0.0 and t0.total_rate == 0.0


def test_from_conductivity_anisotropy_gate():
    sys = make_system(4, "deterministic-zero", seed=0)
    meas = extract_measure(sys["kernel"])
    with pytest.raises(AnisotropyError):
        from_conductivity(meas, [1.0], xi_minus_sup=1e-3)


def test_brownian_only_paths():
    d0 = 0.8
    triple = LevyTriple(d0, np.zeros(0), np.zeros(0))
    ens = sample_paths(triple, 20000, 4.0, 0.05, seed=42)
    assert np.all(ens.paths[:, 0] == 0.0)
    t = ens.times[-1]
    var = ens.paths[:, -1].var()
    # Var F_t = D0 t within 3 sigma of the chi^2 sampling error
    se = d0 * t * np.sqrt(2.0 / (ens.n_paths - 1))
    assert abs(var - d0 * t) <= 3 * se
    # exactly-known law: KS against N(0, sqrt(D0 t))
    ks = stats.kstest(ens.paths[:, -1], "norm", args=(0.0, np.sqrt(d0 * t)))
    assert ks.pvalue > 0.01


def test_compound_poisson_interjump_law():
    nu, w = 2.0, 0.6
    triple = LevyTriple(0.0, np.array([nu]), np.array([w]))
    rate = triple.total_rate
    rng_seed = 7
    ens = sample_paths(triple, 4000, 10.0, 0.01, seed=rng_seed)
    # jump counts are Poisson(rate * t_max): mean within 4 sigma
    counts = ens.jump_counts
    mean = counts.mean()
    se = np.sqrt(rate * 10.0 / len(counts))
    assert abs(mean - rate * 10.0) <= 4 * se
    # inter-jump times exponential with the total rate (KS test)
    gaps = []
    rng = np.random.default_rng(1)
    # reconstruct jump times from path steps of a fresh fine-grid ensemble
    fine = sample_paths(triple, 400, 50.0, 0.001, seed=rng_seed + 1)
    for i in range(fine.n_paths):
        steps = np.abs(np.diff(fine.paths[i]))
        jt = fine.times[1:][steps > 1e-12]
        gaps.extend(np.diff(jt))
    gaps = np.array(gaps)
    assert len(gaps) > 3000
    ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate))
    assert ks.pvalue > 0.01


def test_symmetric_measure_zero_mean():
    triple = LevyTriple(0.0, np.array([1.0, 2.5]), np.array([0.3, 0.2]))
    ens = sample_paths(triple, 30000, 5.0, 0.05, seed=3)
    m = ens.paths[:, -1].mean()
    se = ens.paths[:, -1].std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(m) <= 3 * se


def test_path_dump(tmp_path, monkeypatch):
    # levy_quantiles.csv is the experiment's dump of its sampled paths: one
    # row per grid time, the 5/25/50/75/95% quantiles of F_t over the paths
    monkeypatch.setenv("FERMICOND_CACHE_DIR", str(tmp_path / "cache"))
    cfg = ExperimentConfig.from_dict({
        "model": {"d": 1, "sites": 5, "theta": 0.0, "lambda": 0.0, "beta": 1.0,
                  "interaction": "none"},
        "field": {"shape": "flat-sin2", "t0": 0.0, "t1": 1.0, "w": [1.0]},
        "disorder": {"kind": "deterministic-zero", "seed": 11, "n_samples": 1},
        "run": {"t_max": 5.0, "n_times": 41, "dt": 0.02, "workers": 1},
    })
    manifest = run_experiment("levy", cfg, tmp_path / "out")
    assert manifest["gate_failures"] == [], manifest["gate_failures"]
    header, *rows = (tmp_path / "out" / "levy_quantiles.csv").read_text().splitlines()
    assert header == "t,q5,q25,q50,q75,q95"
    table = np.array([[float(c) for c in row.split(",")] for row in rows])
    kernel = build_system(cfg, 0).kernel
    meas = extract_measure(kernel, {})
    triple = from_conductivity(meas, np.array([1.0]), kernel.xi_minus_sup())
    ens = sample_paths(triple, n=20000, t_max=5.0, dt=0.05, seed=cfg.disorder.seed)
    assert np.array_equal(table[:, 0], ens.times)
    qs = np.quantile(ens.paths, (0.05, 0.25, 0.5, 0.75, 0.95), axis=0).T
    assert np.array_equal(table[:, 1:], qs)
    assert np.all(np.diff(table[:, 1:], axis=1) >= 0.0)


def test_stationary_increments():
    triple = LevyTriple(0.3, np.array([1.2]), np.array([0.5]))
    ens = sample_paths(triple, 20000, 6.0, 0.05, seed=9)
    j = len(ens.times) // 3
    inc1 = ens.increments(0, j)
    inc2 = ens.increments(j, 2 * j)
    ks = stats.ks_2samp(inc1, inc2)
    assert ks.pvalue > 0.01
    # increments over disjoint windows are uncorrelated
    corr = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(ens.n_paths)


def test_validate_char_alpha_zero_exact():
    triple = LevyTriple(0.5, np.array([1.0]), np.array([0.2]))
    ens = sample_paths(triple, 5000, 2.0, 0.1, seed=4)
    rep = validate_char(ens, triple, np.array([0.0]))
    row = rep["rows"][0]
    assert row["mc_re"] == 1.0 and row["exact_re"] == 1.0 and row["pass"]


def test_validate_char_mixed_triple():
    triple = LevyTriple(0.2, np.array([0.8, 2.0]), np.array([0.4, 0.15]))
    ens = sample_paths(triple, 50000, 5.0, 0.05, seed=5)
    idx = [np.argmin(np.abs(ens.times - 1.0)), len(ens.times) - 1]
    rep = validate_char(ens, triple, np.linspace(-3, 3, 21), idx)
    assert rep["pass_fraction"] >= 0.99


def test_compensated_small_jump_channel():
    # synthetic infinite-activity-like measure: a power-law density near zero,
    # discretized and truncated at epsilon; all its atoms sit below |nu| = 1
    # and run through the compensated (martingale) channel. The exponent
    # identity must still hold (the drift vanishes for symmetric measures).
    eps = 0.02
    edges = np.geomspace(eps, 1.0, 40)
    mids = 0.5 * (edges[:-1] + edges[1:])
    wts = mids ** -1.5 * np.diff(edges) * 0.08  # dm ~ 0.08 nu^-3/2 dnu
    triple = LevyTriple(0.0, mids, wts)
    assert triple.total_rate > 1.0  # busy jump channel
    ens = sample_paths(triple, 50000, 3.0, 0.05, seed=6, small_jump_cut=eps)
    rep = validate_char(ens, triple, np.linspace(-2, 2, 11), [len(ens.times) - 1])
    assert rep["pass_fraction"] >= 0.99


def test_drude_jump_statistics():
    rep = drude_jump_stats(lambda T: DrudeSpec(T=T, D=1.1), [0.1, 1.0, 10.0],
                           nu_max=400.0)
    rows = rep["rows"]
    # total rate ~ pi D independent of T (up to truncation)
    for r in rows:
        assert abs(r["total_rate"] - np.pi * 1.1) <= 0.05 * np.pi * 1.1
    # large-jump probability increases toward the isolator limit T -> 0+
    assert rows[0]["tail_prob"] > rows[-1]["tail_prob"]
    assert rep["monotone_decreasing_in_T"]
    # conductor limit: mass concentrates near zero frequency
    # (analytic check: arctan(10)/arctan(4e4) = 0.937; fine bins resolve 1/T)
    tight = drude_levy_measure(DrudeSpec(T=100.0, D=1.1), 400.0, n_atoms=40000)
    frac_small = tight.weights[tight.nus <= 0.1].sum() / tight.weights.sum()
    assert frac_small > 0.9
