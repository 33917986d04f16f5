"""Experiment registry and orchestration.

Every experiment is a pure function of (config, output dir) returning the
files it wrote plus a list of numerical-gate failures; run_experiment wraps it
with manifest writing (the manifest lands last, as an atomicity marker).
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .cache import CacheCorruptionError, CacheCorruptionWarning, SpectralCache
from .config import ExperimentConfig
from .csvout import write_csv
from .equilibrium import (GibbsState, SpectralData, _hash_matrix, lieb_robinson_check,
                          work_functional)
from .fock import FockRep, anticommutator, bilinear, opnorm_mat
from .joule import energy_increments, joule_integrand_x
from .lattice import Box, DisorderDistribution, shift
from .levy import (AnisotropyError, char_exponent, from_conductivity, sample_paths,
                   validate_char)
from .measure import (cesaro_constant, cesaro_mean, drude_tail_compare, extract_measure,
                      levy_khintchine, mass_matched_drude)
from .model import InterparticleInteraction, build_hamiltonian, full_interaction_norm, rescale
from .transport import (TransportKernel, current_obs, disorder_average, driven_currents,
                        green_kubo_residual, ohm_linear, pulse_efield_and_integral,
                        thermal_current)


@dataclass
class System:
    """One disorder realization wired up to its thermal state and kernel."""

    cfg: ExperimentConfig
    box: Box
    rep: FockRep
    omega: object
    spectral: SpectralData
    state: GibbsState
    kernel: TransportKernel
    sample_index: int


def build_system(cfg: ExperimentConfig, sample_index: int = 0,
                 use_cache: bool = True) -> System:
    m = cfg.model
    box = m.box()
    rep = FockRep.of_box(box)
    dist = DisorderDistribution(cfg.disorder.kind, cfg.disorder.seed).derived(sample_index)
    omega = dist.sample(box)
    h = build_hamiltonian(rep, box, omega, m.theta, m.lam, m.ip())
    spectral = None
    cache = SpectralCache(cfg.run.cache_dir) if use_cache else None
    # model_hash covers only the model block; the disorder kind changes H too
    key = f"{cfg.model_hash()}:{cfg.disorder.kind}"
    if cache is not None:
        try:
            spectral = cache.get(key, dist.seed)
        except CacheCorruptionError as exc:
            warnings.warn(f"{exc}; evicting the entry and recomputing",
                          CacheCorruptionWarning, stacklevel=2)
            cache.evict(key, dist.seed)
    if spectral is None or spectral.source_hash != _hash_matrix(h):
        spectral = SpectralData.from_hamiltonian(h)
        if cache is not None:
            cache.put(key, dist.seed, spectral)
    state = GibbsState.of(spectral, m.beta)
    kernel = TransportKernel(rep, box, omega, m.theta, state)
    return System(cfg, box, rep, omega, spectral, state, kernel, sample_index)


def _chain_config(cfg: ExperimentConfig, n_sites: int) -> ExperimentConfig:
    """A copy of cfg whose model is the d=1 chain of n_sites ('l' and 'shape'
    cleared); the other blocks are unchanged."""
    sub = ExperimentConfig.from_dict(json.loads(cfg.canonical()))
    sub.model.d = 1
    sub.model.sites = n_sites
    sub.model.l = None
    sub.model.shape = None
    return sub


def _provenance(cfg: ExperimentConfig, extra: dict | None = None) -> dict:
    out = {"config": cfg.hash(), "seed": cfg.disorder.seed, "beta": cfg.model.beta,
           "theta": cfg.model.theta, "lambda": cfg.model.lam, "d": cfg.model.d}
    out.update(extra or {})
    return out


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _series_for_sample(canonical_cfg: str, index: int):
    cfg = ExperimentConfig.from_dict(json.loads(canonical_cfg))
    return _sample_series(cfg, build_system(cfg, index))


def _sample_series(cfg: ExperimentConfig, system: System):
    return system.kernel.series(cfg.run.times(),
                                _provenance(cfg, {"sample": system.sample_index}))


def _kernel_defects(kernel: TransportKernel, t_grid, theta: float) -> tuple:
    """(max |Xi_p(0)|, which is exactly 0; the Xi_p(-t) vs Xi_p(t)^T defect
    over t_grid; whether xi_d lies in [-2(theta+1), 2(theta+1)])."""
    zero = float(np.abs(kernel.xi_p(0.0)).max())
    sym = float(np.abs(kernel.xi_p(-t_grid)
                       - np.transpose(kernel.xi_p(t_grid), (0, 2, 1))).max())
    return zero, sym, bool(np.abs(np.diag(kernel.xi_d())).max() <= 2 * (theta + 1) + 1e-12)


def run_transport(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    n = cfg.disorder.n_samples
    canon = cfg.canonical()
    rest = range(1, n)
    if cfg.run.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.run.workers) as pool:
            others = list(pool.map(_series_for_sample, [canon] * len(rest), rest))
    else:
        others = [_series_for_sample(canon, i) for i in rest]
    # sample 0 is built once, here, after the others so that only one System is
    # alive at a time; it also feeds the thermal current and the gates
    sys0 = build_system(cfg, 0)
    first = _sample_series(cfg, sys0)
    series = [first] + others
    files.append(first.to_csv(outdir / "transport_sample0.csv"))
    if n >= 2:
        mean = disorder_average(lambda i: series[i], n)
        mean.provenance.update(_provenance(cfg))
        files.append(mean.to_csv(outdir / "transport_mean.csv"))
    files.append(write_csv(outdir / "thermal_current.csv", ["axis", "J_th"],
                           enumerate(thermal_current(sys0.kernel))))
    zero, sym, codomain_ok = _kernel_defects(sys0.kernel, cfg.run.times(), cfg.model.theta)
    if zero != 0.0:
        failures.append(f"Xi_p(0) = {zero} != 0")
    if sym > 1e-10:
        failures.append(f"Xi_p(-t) vs Xi_p(t)^T defect {sym}")
    if not codomain_ok:
        failures.append("xi_d outside [-2(theta+1), 2(theta+1)]")
    return files, failures


def run_ohm(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    sys0 = build_system(cfg, 0)
    m, f = cfg.model, cfg.field_
    a_base = f.base_potential(m.d)
    w = np.asarray(f.w, dtype=float)
    # pulse end lands on an even Simpson panel edge
    times = f.t0 + (f.t1 - f.t0) * np.linspace(0.0, 1.4, 71)
    efield, eint = pulse_efield_and_integral(a_base, w)
    # the driven response follows Xi_p(t-s)^T (see ohm_linear); same as Xi_p for d=1
    j_lin, j_d_lin = ohm_linear(sys0.kernel, efield, w, times, eint, transpose_kernel=True)
    etas = sorted(cfg.field_.etas)
    scale = max(f.scale, float(len(sys0.box)))  # flat across every box bond
    traces = {}
    for eta in etas:
        a_scaled = rescale(a_base, scale, eta)
        traces[eta] = driven_currents(sys0.rep, sys0.box, sys0.omega, m.theta, m.lam,
                                      m.ip(), sys0.state, a_scaled, times, cfg.run.dt)
    cols = ["t"] + [f"J_lin[{k}]" for k in range(m.d)] \
        + [f"J_d_lin[{k}]" for k in range(m.d)] \
        + [f"J_p_eta{eta}[{k}]" for eta in etas for k in range(m.d)]
    rows = [[t, *j_lin[i], *j_d_lin[i], *(v for eta in etas for v in traces[eta].j_p[i] / eta)]
            for i, t in enumerate(times)]
    files.append(write_csv(outdir / "ohm.csv", cols, rows, _provenance(cfg)))

    # quadratic remainder fit over the eta scan at the final time
    resid = np.array([np.linalg.norm(traces[eta].j_p[-1] - eta * j_lin[-1]) for eta in etas])
    if np.all(resid > 1e-14):
        order = np.polyfit(np.log(etas), np.log(resid), 1)[0]
    else:
        order = 2.0
    # two-point Richardson: j(eta)/eta = J_lin + O(eta), cancelled for any ratio;
    # x and y are the scaled currents ohm.csv holds
    r = etas[1] / etas[0]
    x, y = (traces[eta].j_p[-1] / eta for eta in etas[:2])
    rich = (r * x - y) / (r - 1)
    extr_err = float(np.linalg.norm(rich - j_lin[-1]))
    files.append(write_csv(outdir / "ohm_report.csv", ["quantity", "value"],
                           [["remainder_order", order],
                            ["richardson_vs_convolution", extr_err]]))
    if order < 1.9:
        failures.append(f"Ohm remainder order {order:.3f} < 1.9")
    if extr_err > 1e-4:
        failures.append(f"Richardson vs convolution {extr_err:.2e} > 1e-4")
    return files, failures


def run_joule(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    sys0 = build_system(cfg, 0)
    m, f = cfg.model, cfg.field_
    a_base = f.base_potential(m.d)
    times = np.linspace(f.t0, f.t1 + 0.5, 41)
    etas = sorted(cfg.field_.etas)
    traces = {}
    for eta in etas:
        traces[eta] = energy_increments(sys0.rep, sys0.box, sys0.omega, m.theta, m.lam,
                                        m.ip(), sys0.state, a_base, eta, f.scale,
                                        times, cfg.run.dt, warn_margin=False)
    for eta, tr in traces.items():
        norm = tr.normalization()
        files.append(write_csv(
            outdir / f"energy_eta{eta}.csv", ["t", "S", "P", "Ip", "Id", "S_norm"],
            zip(tr.times, tr.S, tr.P, tr.Ip, tr.Id, tr.S / norm)))
    for eta, tr in traces.items():
        scale = max(np.abs(tr.Ip).max(), np.abs(tr.S).max(), 1e-30)
        if tr.balance_defect() > 1e-6 * scale:
            failures.append(f"energy balance defect {tr.balance_defect():.2e} at eta={eta}")
        after = tr.times >= f.t1 - 1e-9
        if np.any(tr.S[after] < -1e-9):
            failures.append(f"negative heat production at eta={eta}")
    # eta^2 scaling of the final heat production
    s_end = np.array([traces[eta].S[-1] for eta in etas])
    if np.all(s_end > 0):
        slope = np.polyfit(np.log(etas), np.log(s_end), 1)[0]
        if abs(slope - 2.0) > 0.04 * 2.0:
            failures.append(f"S eta-scaling exponent {slope:.3f} not 2 within 2%")
    # X integrand vs Ip
    xint = joule_integrand_x(sys0.kernel, a_base, f.scale, times)
    ip_norm = traces[etas[0]].Ip[-1] / traces[etas[0]].normalization()
    xx = xint.double_integral(times[-1])
    files.append(write_csv(outdir / "joule_report.csv", ["quantity", "value"],
                           [["Ip_normalized", ip_norm], ["double_integral_X", xx],
                            ["difference", abs(ip_norm - xx)]]))
    return files, failures


def run_measure(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    sys0 = build_system(cfg, 0)
    meas = extract_measure(sys0.kernel, _provenance(cfg))
    files.append(meas.to_csv(outdir / "measure_full.csv"))
    grid = np.linspace(-(meas.spectral_diameter() + 1.0), meas.spectral_diameter() + 1.0, 201)
    d = meas.dim
    files.append(write_csv(outdir / "measure.csv",
                           ["nu"] + [f"w[{k}][{q}]" for k in range(d) for q in range(d)],
                           [[0.0, *meas.zero_atom.ravel()]]
                           + [[nu, *w.ravel()] for nu, w in zip(meas.nus, meas.weights)]))
    files.append(write_csv(outdir / "density.csv",
                           ["nu"] + [f"rho[{k}][{q}]" for k in range(d) for q in range(d)],
                           [[g, *rho.ravel()] for g, rho in zip(grid, meas.density_view(grid))]))
    times = cfg.run.times()
    rec = levy_khintchine(meas, times)
    direct = sys0.kernel.xi_plus(times)
    err = float(np.abs(rec - direct).max())
    if err > 1e-8:
        failures.append(f"Levy-Khintchine round trip error {err:.2e} > 1e-8")
    worst = meas.check()
    if worst < -1e-10:
        failures.append(f"atom weight min eigenvalue {worst:.2e} < -1e-10")
    neg = min(float(np.linalg.eigvalsh(-0.5 * (x + x.T)).min()) for x in direct)
    if neg < -1e-10:
        failures.append(f"-[Xi_p]_+ not PSD: min eig {neg:.2e}")
    # Cesaro trend
    cs = []
    for t_mean in (50.0, 100.0, 200.0):
        c = cesaro_mean(sys0.kernel.xi_plus, t_mean)
        cs.append(float(np.linalg.norm(c + meas.ac_total(), 2)))
    c_const = cesaro_constant(meas)
    files.append(write_csv(outdir / "cesaro.csv", ["T", "residual", "rigorous_C_over_T"],
                           [[t_mean, r, c_const / t_mean]
                            for t_mean, r in zip((50.0, 100.0, 200.0), cs)]))
    for t_mean, r in zip((50.0, 100.0, 200.0), cs):
        if r > c_const / t_mean + 1e-12:
            failures.append(f"Cesaro residual at T={t_mean} above rigorous C/T")
    return files, failures


def run_drude_compare(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    sys0 = build_system(cfg, 0)
    meas = extract_measure(sys0.kernel, _provenance(cfg))
    w = np.zeros(cfg.model.d)
    w[0] = 1.0
    spec = mass_matched_drude(meas, w, T=1.0)
    diam = meas.spectral_diameter()
    grid = np.linspace(0.5, 2 * diam + 5.0, 200)
    rep = drude_tail_compare(meas, spec, w, grid)
    files.append(write_csv(outdir / "drude_tails.csv",
                           ["nu", "measure_tail_nu2", "drude_tail_nu2"],
                           zip(rep["nu"], rep["measure_tail_nu2"], rep["drude_tail_nu2"])))
    if not rep["crossover_exists"]:
        failures.append("no frequency beyond which the computed tail is 0 < Drude tail")
    big = grid > max(2.0 / spec.T, diam + 1.0)
    slope = np.polyfit(grid[big], rep["drude_tail_nu2"][big], 1)[0]
    if abs(slope - spec.D / spec.T) > 0.05 * spec.D / spec.T:
        failures.append(f"Drude tail slope {slope:.4f} vs D/T {spec.D / spec.T:.4f} (5%)")
    return files, failures


def run_levy(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    sys0 = build_system(cfg, 0)
    meas = extract_measure(sys0.kernel, _provenance(cfg))
    w = np.zeros(cfg.model.d)
    w[0] = 1.0
    try:
        triple = from_conductivity(meas, w, sys0.kernel.xi_minus_sup())
    except AnisotropyError as exc:
        failures.append(f"anisotropy gate: sup_t ||[Xi_p]_-|| = {exc.value!r} exceeds "
                        f"threshold {exc.threshold!r}; no Levy triple built")
        return files, failures
    times = cfg.run.times()
    rec = char_exponent(triple, times)
    direct = np.einsum("k,tkq,q->t", w, sys0.kernel.xi_plus(times), w)
    err = float(np.abs(rec - direct).max())
    if err > 1e-8:
        failures.append(f"char exponent vs directional [Xi_p]_+ error {err:.2e}")
    ens = sample_paths(triple, n=20000, t_max=5.0, dt=0.05, seed=cfg.disorder.seed)
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    files.append(write_csv(outdir / "levy_quantiles.csv",
                           ["t"] + [f"q{int(q * 100)}" for q in qs],
                           [[t, *np.quantile(ens.paths[:, j], qs)]
                            for j, t in enumerate(ens.times)]))
    alphas = np.linspace(-3, 3, 21)
    idx = [np.argmin(np.abs(ens.times - 1.0)), len(ens.times) - 1]
    rep = validate_char(ens, triple, alphas, idx)
    cols = ["t", "alpha", "mc_re", "exact_re", "stderr_re", "pass"]
    files.append(write_csv(outdir / "levy_char.csv", cols,
                           [[r[c] for c in cols] for r in rep["rows"]]))
    if rep["pass_fraction"] < 0.99:
        failures.append(f"characteristic function pass fraction {rep['pass_fraction']:.3f}")
    return files, failures


DEFAULT_BATTERY = {
    "sites": (4, 6, 8),
    "betas": (0.5, 1.0, 2.0),
    "thetas": (0.0, 0.5),
    "lambdas": (0.0, 1.0),
    "interactions": ("none", "hubbard"),
    "n_samples": 32,
}


def _battery_systems(cfg: ExperimentConfig):
    bat = DEFAULT_BATTERY
    # the battery is fixed: generic (complex-hopping) disorder regardless of
    # the config's production kind, keyed by the master seed
    dist = DisorderDistribution("iid-uniform", cfg.disorder.seed)
    for n, beta, theta, lam, kind in product(bat["sites"], bat["betas"],
                                             bat["thetas"], bat["lambdas"],
                                             bat["interactions"]):
        box = Box.chain(n)
        rep = FockRep.of_box(box)
        omega = dist.derived(n).sample(box)
        ip = InterparticleInteraction(kind, U=1.0 if kind == "hubbard" else 0.0)
        h = build_hamiltonian(rep, box, omega, theta, lam, ip)
        state = GibbsState.of(SpectralData.from_hamiltonian(h), beta)
        kernel = TransportKernel(rep, box, omega, theta, state)
        yield {"label": f"N{n}-b{beta}-th{theta}-l{lam}-{kind}", "n": n,
               "theta": theta, "rep": rep, "state": state, "kernel": kernel}


def run_invariants(cfg: ExperimentConfig, outdir: Path):
    """The oracle battery over the fixed default grid: d=1, N in {4,6,8},
    beta in {0.5,1,2}, theta in {0,0.5}, lambda in {0,1}, interactions
    {none, hubbard(1)}; 32 disorder samples feed the averaging check."""
    files, failures = [], []
    rows = []

    def check(name, ok, detail=""):
        rows.append((name, bool(ok), detail))
        if not ok:
            failures.append(f"{name}: {detail}")

    rng = np.random.default_rng(7)
    # CAR relations at the battery sizes
    worst = 0.0
    for n in DEFAULT_BATTERY["sites"]:
        rep = FockRep.of_box(Box.chain(n))
        ann = [rep.annihilator(s) for s in rep.site_order]
        for i in range(len(ann)):
            for j in range(i, len(ann)):
                worst = max(worst, opnorm_mat(anticommutator(ann[i], ann[j])))
                delta = np.eye(rep.dim) * (1.0 if i == j else 0.0)
                worst = max(worst, opnorm_mat(anticommutator(ann[i], ann[j].conj().T) - delta))
    check("car-anticommutators", worst <= 1e-12, f"defect {worst:.2e}")

    t_grid = cfg.run.times()
    worst_kms = worst_zero = worst_sym = worst_rt = 0.0
    codomain_ok = True
    worst_work = np.inf  # the least L over the small members
    for sysd in _battery_systems(cfg):
        k = sysd["kernel"]
        for _ in range(3):
            b1 = _random_local(rng, sysd["rep"])
            b2 = _random_local(rng, sysd["rep"])
            worst_kms = max(worst_kms, sysd["state"].kms_defect(b1, b2)
                            / (opnorm_mat(b1) * opnorm_mat(b2)))
        zero, sym, in_codomain = _kernel_defects(k, t_grid, sysd["theta"])
        worst_zero = max(worst_zero, zero)
        worst_sym = max(worst_sym, sym)
        codomain_ok &= in_codomain
        meas = extract_measure(k)
        worst_rt = max(worst_rt, float(np.abs(
            levy_khintchine(meas, t_grid) - k.xi_plus(t_grid)).max()))
        if sysd["n"] == 4:  # work functional on the small members
            b = _random_local(rng, sysd["rep"])
            b = 0.5 * (b + b.conj().T)

            def a_of_t(s, b=b):
                if s <= 0.0 or s >= 1.0:
                    return np.zeros_like(b)
                return float(np.sin(np.pi * s) ** 2) * b

            worst_work = min(worst_work,
                             work_functional(sysd["state"], a_of_t, 0.0, 1.0, 0.02))
    check("kms-identity", worst_kms <= 1e-9, f"relative defect {worst_kms:.2e}")
    check("xi_p-zero-at-0", worst_zero == 0.0, f"{worst_zero:.2e}")
    check("xi_p-transpose-symmetry", worst_sym <= 1e-10, f"{worst_sym:.2e}")
    check("xi_d-codomain", codomain_ok)
    check("levy-khintchine-round-trip", worst_rt <= 1e-8, f"{worst_rt:.2e}")
    check("passivity-work-functional", worst_work >= -1e-9, f"min L = {worst_work:.2e}")

    # 32-sample disorder average on a 4-site chain: stderr finite, mean sane
    ts = np.linspace(0.0, 5.0, 11)
    sub = _chain_config(cfg, 4)
    sub.disorder.kind = "iid-uniform"

    def builder(i):
        return build_system(sub, i).kernel.series(ts)

    mean = disorder_average(builder, DEFAULT_BATTERY["n_samples"])
    check("disorder-average-stderr",
          np.isfinite(mean.stderr_p).all() and float(np.abs(mean.xi_p).max()) < 10.0,
          f"max stderr {float(mean.stderr_p.max()):.2e}")

    files.append(write_csv(outdir / "invariants.csv", ["check", "passed", "detail"], rows))
    for name, ok, detail in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    return files, failures


def _random_local(rng, rep: FockRep):
    x, y = (rep.site_order[k] for k in rng.integers(0, rep.n_sites, size=2))
    c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    m = bilinear(rep, x, y, c1) + bilinear(rep, y, x, c2)
    return m + m.conj().T @ m * 0.1


def run_lieb_robinson(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    sys0 = build_system(cfg, 0)
    box = sys0.box
    f = cfg.model.decay()
    conv = f.convolution_constant(box)
    dsup = full_interaction_norm(cfg.model.theta, cfg.model.ip(), f, box)
    rows = []
    sites = box.sites
    unit = tuple(np.eye(box.dim, dtype=int)[0])
    x0 = sites[0]
    x1 = shift(x0, unit)
    b1 = None  # the same B1 at every distance: built, and its norm taken, once
    for dist in range(2, min(7, len(sites) - 1)):
        y0 = sites[dist] if dist < len(sites) else None
        y1 = shift(y0, unit)
        if y1 not in box.index or not box.has_bond(y0, y1):
            continue
        if b1 is None:
            b1 = current_obs(sys0.rep, box, [(x1, x0)], sys0.omega, cfg.model.theta)
            norm1 = opnorm_mat(b1)
        b2 = current_obs(sys0.rep, box, [(y1, y0)], sys0.omega, cfg.model.theta)
        norms = (norm1, opnorm_mat(b2))
        for t in (0.5, 1.0, 2.0):
            res = lieb_robinson_check(b1, (x0, x1), b2, (y0, y1), t,
                                      sys0.spectral, f, conv, dsup, norms)
            rows.append((dist, t, res["lhs"], res["rhs_bound"], res["satisfied"]))
            if not res["satisfied"]:
                failures.append(f"LR bound violated at dist={dist}, t={t}")
    files.append(write_csv(outdir / "lieb_robinson.csv",
                           ["distance", "t", "lhs", "rhs_bound", "satisfied"], rows))
    return files, failures


def run_time_reversal(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    if cfg.disorder.kind == "iid-uniform":
        failures.append("time-reversal experiment needs real hoppings "
                        "(iid-real-hopping or deterministic-zero)")
        return files, failures
    rows = []
    for i in range(min(cfg.disorder.n_samples, 8)):
        sys_i = build_system(cfg, i)
        jth = thermal_current(sys_i.kernel)
        ximinus = sys_i.kernel.xi_minus_sup()
        rows.append((i, float(np.abs(jth).max()), ximinus))
        if np.abs(jth).max() > 1e-10:
            failures.append(f"sample {i}: thermal current {np.abs(jth).max():.2e}")
        if ximinus > 1e-10:
            failures.append(f"sample {i}: [Xi_p]_- sup {ximinus:.2e}")
    files.append(write_csv(outdir / "time_reversal.csv",
                           ["sample", "max_thermal_current", "xi_minus_sup"], rows))
    return files, failures


def run_green_kubo(cfg: ExperimentConfig, outdir: Path):
    files, failures = [], []
    if cfg.model.d != 1:
        failures.append("green-kubo sweeps chains of 3, 5 and 7 sites; a "
                        f"d={cfg.model.d} config has no such family, no residuals computed")
        return files, failures
    sizes, resids = [], []
    times = np.linspace(0.0, 5.0, 21)
    for n_sites in (3, 5, 7):
        sysl = build_system(_chain_config(cfg, n_sites), 0)
        sizes.append(len(sysl.box.sites))
        resids.append(green_kubo_residual(sysl.kernel, times)["max_residual"])
    files.append(write_csv(outdir / "green_kubo.csv", ["l", "sites", "max_residual"],
                           [(l, n, r) for l, (n, r) in enumerate(zip(sizes, resids), start=1)]))
    if not (resids[0] > resids[1] > resids[2]):
        failures.append(f"Green-Kubo residuals not decreasing: {resids}")
    return files, failures


REGISTRY = {
    "transport": run_transport,
    "ohm": run_ohm,
    "joule": run_joule,
    "measure": run_measure,
    "drude-compare": run_drude_compare,
    "levy": run_levy,
    "invariants": run_invariants,
    "lieb-robinson": run_lieb_robinson,
    "time-reversal": run_time_reversal,
    "green-kubo": run_green_kubo,
}


class UnknownExperimentError(Exception):
    def __init__(self, name):
        super().__init__(f"unknown experiment {name!r}; registry: {sorted(REGISTRY)}")


def run_experiment(name: str, cfg: ExperimentConfig, outdir) -> dict:
    """Run one registered experiment; the manifest is written last."""
    if name not in REGISTRY:
        raise UnknownExperimentError(name)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    files, failures = REGISTRY[name](cfg, outdir)
    elapsed = time.time() - start
    manifest = {
        "experiment": name,
        "config_hash": cfg.hash(),
        "tool_version": __version__,
        "files": [{"name": f.name,
                   "sha256": hashlib.sha256(Path(f).read_bytes()).hexdigest(),
                   "bytes": Path(f).stat().st_size} for f in files],
        "gate_failures": failures,
        "wall_seconds": elapsed,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
