"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them when green).
Battery models are desk scale: d=1 chains up to 10 sites, one 2x3 box in d=2.
"""

import numpy as np
from scipy import sparse, stats

from fermicond.equilibrium import GibbsState, lieb_robinson_check, work_functional
from fermicond.levy import LevyTriple, from_conductivity, sample_paths, \
    validate_char
from fermicond.measure import (cesaro_constant, cesaro_mean, drude_tail,
                               extract_measure, levy_khintchine, mass_matched_drude)
from fermicond.model import DecayFunction, FlatPulse, full_interaction_norm, rescale
from fermicond.transport import current_obs, driven_currents, green_kubo_residual, \
    ohm_linear, pulse_efield_and_integral, thermal_current
from fermicond.joule import energy_increments, joule_integrand_x

from conftest import make_system, nn_interaction, random_local

T_GRID = np.linspace(-10.0, 10.0, 201)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}"
    print(line)
    assert ok, line


def battery():
    return {
        "clean-8": make_system(8, "deterministic-zero", seed=0, beta=1.0),
        "disordered-6": make_system(6, "iid-uniform", seed=21, theta=0.5, lam=1.0,
                                    beta=1.0, ip=nn_interaction(1.0)),
        "rect-2x3": make_system(shape=(2, 3), d=2, kind="iid-uniform", seed=22,
                                theta=0.5, lam=1.0, beta=0.5),
        "real-6": make_system(6, "iid-real-hopping", seed=23, theta=0.9, beta=2.0),
    }


SYSTEMS = battery()


def test_criterion_01_car_algebra():
    """Anticommutation identities to 1e-12 in operator norm for N <= 10."""
    worst = 0.0
    for n in range(2, 11):
        mode_ops = []
        sz = sparse.csr_matrix(np.diag([1.0, -1.0]))
        sm = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        eye2 = sparse.identity(2, format="csr")
        for j in range(n):
            m = sparse.identity(1, format="csr")
            for k in range(n):
                m = sparse.kron(m, sz if k < j else (sm if k == j else eye2), "csr")
            mode_ops.append(m)
        eye = sparse.identity(2 ** n, format="csr")
        for i in range(n):
            for j in range(i, n):
                anti = mode_ops[i] @ mode_ops[j] + mode_ops[j] @ mode_ops[i]
                # Frobenius dominates the operator norm
                worst = max(worst, sparse.linalg.norm(anti) if anti.nnz else 0.0)
                mixed = mode_ops[i] @ mode_ops[j].conj().T \
                    + mode_ops[j].conj().T @ mode_ops[i] - (i == j) * eye
                worst = max(worst, sparse.linalg.norm(mixed) if mixed.nnz else 0.0)
    report(1, worst <= 1e-12, f"CAR defect {worst:.2e} <= 1e-12 for N <= 10")


def test_criterion_02_kms_condition(rng):
    """|rho(B1 tau_{i beta}(B2)) - rho(B2 B1)| <= 1e-9 ||B1|| ||B2||, N=6."""
    base = make_system(6, "iid-uniform", seed=31, theta=0.5, lam=1.0,
                       ip=nn_interaction(1.0))
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        state = GibbsState.of(base["spectral"], beta)
        for _ in range(50):
            b1 = random_local(rng, base["rep"])
            b2 = random_local(rng, base["rep"])
            rel = state.kms_defect(b1, b2) / (np.linalg.norm(b1, 2)
                                              * np.linalg.norm(b2, 2))
            worst = max(worst, rel)
    report(2, worst <= 1e-9, f"KMS defect {worst:.2e} <= 1e-9 (50 pairs x 3 betas)")


def test_criterion_03_transport_symmetries():
    """Xi_p(0) = 0 exactly; Xi_p(-t) = Xi_p(t)^T to 1e-10; sigma_d codomain."""
    worst_zero, worst_sym, codomain_ok = 0.0, 0.0, True
    for name, sys in SYSTEMS.items():
        k = sys["kernel"]
        worst_zero = max(worst_zero, float(np.abs(k.xi_p(0.0)).max()))
        sym = np.abs(k.xi_p(-T_GRID) - np.transpose(k.xi_p(T_GRID), (0, 2, 1)))
        worst_sym = max(worst_sym, float(sym.max()))
        bound = 2.0 * (sys["theta"] + 1.0)
        diag = np.diag(k.xi_d())
        codomain_ok &= bool(np.all(np.abs(diag) <= bound + 1e-12))
    ok = worst_zero == 0.0 and worst_sym <= 1e-10 and codomain_ok
    report(3, ok, f"Xi_p(0) defect {worst_zero}, transpose defect {worst_sym:.2e}, "
                  f"sigma_d codomain {'ok' if codomain_ok else 'violated'}")


def test_criterion_04_passivity(rng):
    """Heat production S(t >= t1) >= -1e-9; work functional >= -1e-9 for
    20 random cyclic perturbations per model."""
    a_base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    worst_s = 0.0
    for name in ("clean-8", "disordered-6", "real-6"):
        sys = SYSTEMS[name]
        times = np.linspace(0.0, 1.5, 31)
        tr = energy_increments(sys["rep"], sys["box"], sys["omega"], sys["theta"],
                               sys["lam"], sys["ip"], sys["state"], a_base,
                               0.1, 2.0, times, 0.01, warn_margin=False)
        worst_s = min(worst_s, float(tr.S[times >= 1.0].min()))
    worst_l = 0.0
    for name in ("disordered-6", "real-6"):
        sys = SYSTEMS[name]
        for _ in range(20):
            b = random_local(rng, sys["rep"], hermitian=True)

            def a_of_t(s, b=b):
                if s <= 0.0 or s >= 1.0:
                    return np.zeros_like(b)
                return np.sin(np.pi * s) ** 2 * b

            worst_l = min(worst_l, work_functional(sys["state"], a_of_t, 0.0, 1.0, 0.02))
    ok = worst_s >= -1e-9 and worst_l >= -1e-9
    report(4, ok, f"min S after pulse {worst_s:.2e}, min work {worst_l:.2e} >= -1e-9")


def test_criterion_05_levy_khintchine_round_trip():
    """Measure reconstructs [Xi_p]_+ to 1e-8 sup norm; weights PSD to -1e-10;
    -[Xi_p(t)]_+ PSD at every t."""
    worst_rt, worst_psd, worst_neg = 0.0, 0.0, 0.0
    for name, sys in SYSTEMS.items():
        meas = extract_measure(sys["kernel"])
        rec = levy_khintchine(meas, T_GRID)
        direct = sys["kernel"].xi_plus(T_GRID)
        worst_rt = max(worst_rt, float(np.abs(rec - direct).max()))
        worst_psd = min(worst_psd, meas.check())
        for x in direct:
            worst_neg = min(worst_neg, float(np.linalg.eigvalsh(-0.5 * (x + x.T)).min()))
    ok = worst_rt <= 1e-8 and worst_psd >= -1e-10 and worst_neg >= -1e-10
    report(5, ok, f"round trip {worst_rt:.2e} <= 1e-8, min atom eig {worst_psd:.2e}, "
                  f"min eig of -[Xi]_+ {worst_neg:.2e}")


def _pulse_battery(d):
    """10 compactly supported test pulses phi with analytic derivatives."""
    out = []
    params = [(0.0, 2.0, 1.0), (0.0, 3.0, 2.0), (-1.0, 1.5, 3.0), (0.5, 2.5, 0.5),
              (0.0, 1.0, 4.0)]
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((10, d))
    for i in range(10):
        a, b, omega = params[i % 5]
        v = dirs[i] / np.linalg.norm(dirs[i])

        def dphi(s, a=a, b=b, omega=omega, v=v):
            if s <= a or s >= b:
                return np.zeros(len(v))
            u = np.pi * (s - a) / (b - a)
            w = np.sin(u) ** 2
            dw = np.pi / (b - a) * np.sin(2 * u)
            return (dw * np.sin(omega * s) + w * omega * np.cos(omega * s)) * v

        out.append((a, b, dphi))
    return out


def test_criterion_06_conditional_positive_definiteness():
    """int int <phi'(s), [Xi_p(t-s)]_+ phi'(t)> ds dt >= -1e-8, 10 pulses."""
    from fermicond.equilibrium import _simpson_weights
    worst = np.inf
    for name in ("clean-8", "disordered-6", "rect-2x3"):
        sys = SYSTEMS[name]
        d = sys["box"].dim
        for (a, b, dphi) in _pulse_battery(d):
            n = 120
            ss = np.linspace(a, b, n + 1)
            h = ss[1] - ss[0]
            vals = np.array([dphi(s) for s in ss])           # (n+1, d)
            xi_diff = sys["kernel"].xi_plus(ss - ss[0])      # uniform grid trick
            w = _simpson_weights(n, h)
            total = 0.0
            for i in range(n + 1):
                # [Xi]_+((s_i - s_j)) symmetric in the time argument
                kmats = xi_diff[np.abs(np.arange(n + 1) - i)]
                rowvals = np.einsum("k,jkq,jq->j", vals[i], kmats, vals)
                total += w[i] * float(np.dot(w, rowvals))
            worst = min(worst, total)
    report(6, worst >= -1e-8, f"min quadrature functional {worst:.3e} >= -1e-8")


def test_criterion_07_ohm_linearity():
    """Remainder fit order >= 1.9 over eta in {0.02, 0.04, 0.08}; Richardson
    extrapolation matches the convolution form to 1e-4."""
    sys = SYSTEMS["clean-8"]
    a_base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    w = np.array([1.0])
    times = np.linspace(0.0, 1.4, 71)
    efield, eint = pulse_efield_and_integral(a_base, w)
    j_lin, _ = ohm_linear(sys["kernel"], efield, w, times, eint)
    etas = [0.02, 0.04, 0.08]
    finals = {}
    for eta in etas:
        a_sc = rescale(a_base, float(len(sys["box"])), eta)
        tr = driven_currents(sys["rep"], sys["box"], sys["omega"], sys["theta"], 0.0,
                             sys["ip"], sys["state"], a_sc, times, 0.01)
        finals[eta] = tr.j_p[:, 0]
    resid = [np.abs(finals[eta] - eta * j_lin[:, 0]).max() for eta in etas]
    order = float(np.polyfit(np.log(etas), np.log(resid), 1)[0])
    rich = 2 * finals[0.02] / 0.02 - finals[0.04] / 0.04
    extr = float(np.abs(rich - j_lin[:, 0]).max())
    ok = order >= 1.9 and extr <= 1e-4
    report(7, ok, f"remainder order {order:.2f} >= 1.9, Richardson error "
                  f"{extr:.2e} <= 1e-4")


def test_criterion_08_joule_balance_and_scaling():
    """S + P = Ip + Id to 1e-6 relative; eta^2 scaling of S within 2%;
    Ip/(eta^2 l^d) matches int int X_l within the O(eta) budget."""
    sys = SYSTEMS["clean-8"]
    a_base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    times = np.linspace(0.0, 1.5, 61)
    l = 2.0
    etas = [0.02, 0.04, 0.08]
    traces = {eta: energy_increments(sys["rep"], sys["box"], sys["omega"], 0.0, 0.0,
                                     sys["ip"], sys["state"], a_base, eta, l,
                                     times, 0.01, warn_margin=False)
              for eta in etas}
    worst_balance = max(tr.balance_defect()
                        / max(np.abs(tr.Ip).max(), np.abs(tr.S).max())
                        for tr in traces.values())
    s_end = np.array([traces[eta].S[-1] for eta in etas])
    slope = float(np.polyfit(np.log(etas), np.log(s_end), 1)[0])
    x = joule_integrand_x(sys["kernel"], a_base, l, times)
    xx = x.double_integral(times[-1])
    budget_ok = all(abs(traces[eta].Ip[-1] / (eta ** 2 * l) - xx) <= 0.01 * eta + 2e-6
                    for eta in etas)
    ok = worst_balance <= 1e-6 and abs(slope - 2.0) <= 0.04 and budget_ok
    report(8, ok, f"balance {worst_balance:.2e} <= 1e-6 rel, S-scaling exponent "
                  f"{slope:.3f} (2% of 2), Ip vs X within O(eta) budget: {budget_ok}")


def test_criterion_09_green_kubo_residual():
    """Duhamel fluctuation increment vs Xi_p,l residual strictly decreasing
    over l in {1,2,3} on the clean d=1 chain."""
    resids = []
    ts = np.linspace(0.0, 5.0, 21)
    for n in (3, 5, 7):
        sys = make_system(n, "deterministic-zero", seed=0, beta=1.0)
        resids.append(green_kubo_residual(sys["kernel"], ts)["max_residual"])
    ok = resids[0] > resids[1] > resids[2]
    report(9, ok, "residuals " + " > ".join(f"{r:.4f}" for r in resids))


def test_criterion_10_lieb_robinson():
    """||[tau_t(B1), B2]|| within the displayed bound for single-bond pairs at
    distances 2-6 and t in {0.5, 1, 2}, every battery model."""
    f = DecayFunction(1, "polynomial", epsilon=3.0)
    models = [
        make_system(9, "deterministic-zero", seed=0, beta=1.0),
        make_system(9, "iid-uniform", seed=41, theta=0.5, lam=1.0, beta=1.0),
        make_system(9, "iid-uniform", seed=42, theta=0.5, lam=1.0, beta=1.0,
                    ip=nn_interaction(1.0)),
    ]
    checked, all_ok = 0, True
    for sys in models:
        conv = f.convolution_constant(sys["box"])
        dsup = full_interaction_norm(sys["theta"], sys["ip"], f, sys["box"])
        x0, x1 = (-4,), (-3,)
        b1 = current_obs(sys["rep"], sys["box"], [(x1, x0)], sys["omega"], sys["theta"])
        for dist in range(2, 7):
            y0, y1 = (-3 + dist,), (-2 + dist,)
            if y1 not in sys["box"].index:
                continue
            b2 = current_obs(sys["rep"], sys["box"], [(y1, y0)], sys["omega"],
                             sys["theta"])
            for t in (0.5, 1.0, 2.0):
                res = lieb_robinson_check(b1, (x0, x1), b2, (y0, y1), t,
                                          sys["spectral"], f, conv, dsup)
                checked += 1
                all_ok &= res["satisfied"]
    report(10, all_ok and checked >= 45, f"{checked} commutator bounds all satisfied")


def test_criterion_11_time_reversal():
    """Real hoppings + TR-invariant interaction: ||[Xi_p]_-|| <= 1e-10 and
    |J_th| <= 1e-10 per sample."""
    worst_minus, worst_j = 0.0, 0.0
    for seed in (1, 2, 3, 4):
        sys = make_system(6, "iid-real-hopping", seed=seed, theta=0.9, lam=1.0,
                          beta=1.0, ip=nn_interaction(1.0))
        worst_minus = max(worst_minus, sys["kernel"].xi_minus_sup())
        worst_j = max(worst_j, float(np.abs(thermal_current(sys["kernel"])).max()))
    ok = worst_minus <= 1e-10 and worst_j <= 1e-10
    report(11, ok, f"sup ||[Xi_p]_-|| {worst_minus:.2e}, max |J_th| {worst_j:.2e}")


def test_criterion_12_drude_comparison():
    """nu^2 mu_AC([nu, inf)) exactly 0 beyond the spectral diameter while the
    mass-matched Drude tail grows with slope D/T within 5%."""
    sys = SYSTEMS["disordered-6"]
    meas = extract_measure(sys["kernel"])
    spec = mass_matched_drude(meas, [1.0], T=1.0)
    diam = meas.spectral_diameter()
    nus, ac, _ = meas.directional([1.0])
    grid = np.linspace(diam + 0.5, diam + 40.0, 30)
    meas_tail = np.array([ac[nus >= nu].sum() for nu in grid]) * grid ** 2
    drude = np.array([drude_tail(spec, nu) for nu in grid]) * grid ** 2
    slope = float(np.polyfit(grid, drude, 1)[0])
    ok = np.all(meas_tail == 0.0) and np.all(drude > 0.0) \
        and abs(slope - spec.D / spec.T) <= 0.05 * spec.D / spec.T
    report(12, ok, f"measure tail exactly 0 beyond diameter {diam:.2f}; Drude "
                   f"slope {slope:.4f} vs D/T {spec.D / spec.T:.4f} (5%)")


def test_criterion_13_levy_sampler():
    """MC characteristic function within 3 stderr at >= 99% of a 21 x 2 grid
    with 1e5 paths; Brownian-only and single-atom cases pass known laws."""
    sys = SYSTEMS["clean-8"]
    meas = extract_measure(sys["kernel"])
    triple = from_conductivity(meas, [1.0], sys["kernel"].xi_minus_sup())
    ens = sample_paths(triple, 100_000, 5.0, 0.05, seed=778)
    idx = [int(np.argmin(np.abs(ens.times - 1.0))), len(ens.times) - 1]
    rep = validate_char(ens, triple, np.linspace(-3, 3, 21), idx)
    # Brownian-only closed form
    d0 = 0.5
    bro = sample_paths(LevyTriple(d0, np.zeros(0), np.zeros(0)), 20_000, 4.0, 0.05,
                       seed=783)
    ks_b = stats.kstest(bro.paths[:, -1], "norm", args=(0.0, np.sqrt(d0 * 4.0)))
    # single-atom compound Poisson: exponential inter-jump law
    atom = LevyTriple(0.0, np.array([2.0]), np.array([0.6]))
    fine = sample_paths(atom, 400, 50.0, 0.001, seed=779)
    gaps = []
    for i in range(fine.n_paths):
        steps = np.abs(np.diff(fine.paths[i]))
        jt = fine.times[1:][steps > 1e-12]
        gaps.extend(np.diff(jt))
    ks_j = stats.kstest(np.array(gaps), "expon", args=(0.0, 1.0 / atom.total_rate))
    ok = rep["pass_fraction"] >= 0.99 and ks_b.pvalue > 0.01 and ks_j.pvalue > 0.01
    report(13, ok, f"char pass fraction {rep['pass_fraction']:.3f} >= 0.99; "
                   f"KS p-values {ks_b.pvalue:.3f}, {ks_j.pvalue:.3f} > 0.01")


def test_criterion_14_cesaro_mean():
    """|(1/T) int_0^T [Xi_p]_+ + mu_AC| <= C/T with fitted 1/T decay over
    T in {50, 100, 200}.

    The decay fit needs the window to exceed the slowest Bohr period, so it
    runs on the clean chain (nu_min = 0.35); the rigorous C/T envelope is
    asserted for every battery model.
    """
    t_means = (50.0, 100.0, 200.0)
    for name, sys in SYSTEMS.items():
        meas = extract_measure(sys["kernel"])
        const = cesaro_constant(meas)
        for t_mean in t_means:
            c = cesaro_mean(sys["kernel"].xi_plus, t_mean)
            r = float(np.linalg.norm(c + meas.ac_total(), 2))
            assert r <= const / t_mean + 1e-12, f"{name} at T={t_mean}"
    sys = SYSTEMS["clean-8"]
    meas = extract_measure(sys["kernel"])
    assert np.abs(meas.zero_atom).max() <= 1e-10  # precondition mu({0}) ~ 0
    const = cesaro_constant(meas)
    resids = [float(np.linalg.norm(cesaro_mean(sys["kernel"].xi_plus, t_mean)
                                   + meas.ac_total(), 2)) for t_mean in t_means]
    slope = float(np.polyfit(np.log(t_means), np.log(resids), 1)[0])
    ok = slope <= -0.5
    report(14, ok, f"all models under C/T; clean-chain residuals "
                   f"{[f'{r:.1e}' for r in resids]}, fitted decay slope {slope:.2f}")
