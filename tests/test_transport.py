import numpy as np
import pytest
from scipy.linalg import expm

from fermicond.equilibrium import GibbsState, SpectralData, duhamel, heisenberg, \
    _simpson_weights
from fermicond.fock import FockRep, is_even, opnorm_mat, time_reversal
from fermicond.lattice import Box, DisorderDistribution, shift
from fermicond.model import (InterparticleInteraction, build_hamiltonian, build_hopping,
                             FlatPulse, rescale)
from fermicond.transport import (NotABondError, TransportKernel,
                                 current_obs, diamagnetic_obs, disorder_average,
                                 driven_currents, fluctuation, green_kubo_residual,
                                 ohm_linear, paramagnetic_partner_obs, thermal_current)

from conftest import make_system, nn_interaction, peierls_hopping, random_local


def two_site_raw_ops():
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0])
    a0 = np.kron(sm, np.eye(2))
    a1 = np.kron(sz, sm)
    return a0, a1


def test_current_obs_two_site_brute_force():
    box = Box.chain(2)
    rep = FockRep.of_box(box)
    omega = DisorderDistribution("deterministic-zero", 0).sample(box)
    bond = ((0,), (1,))
    cur = current_obs(rep, box, [bond], omega, theta=1.7)
    a0, a1 = two_site_raw_ops()
    c = -1.0  # hopping entry with omega2 = 0, any theta
    m = c * a0.conj().T @ a1
    oracle = 1j * (m - m.conj().T)
    assert np.linalg.norm(cur - oracle, 2) <= 1e-14
    assert opnorm_mat(cur - cur.conj().T) <= 1e-12 * max(1.0, opnorm_mat(cur))
    assert is_even(cur)


def test_current_obs_orientation_flip():
    sys = make_system(4, "iid-uniform", seed=1, theta=0.6)
    fwd = current_obs(sys["rep"], sys["box"], [((0,), (1,))], sys["omega"], 0.6)
    bwd = current_obs(sys["rep"], sys["box"], [((1,), (0,))], sys["omega"], 0.6)
    assert opnorm_mat(fwd + bwd) <= 1e-13


def test_current_obs_not_a_bond():
    sys = make_system(4, "iid-uniform", seed=1)
    with pytest.raises(NotABondError):
        current_obs(sys["rep"], sys["box"], [((-1,), (1,))], sys["omega"], 0.0)


def test_time_reversal_flips_current_real_hopping():
    sys = make_system(4, "iid-real-hopping", seed=2, theta=0.8)
    cur = current_obs(sys["rep"], sys["box"], [((1,), (0,))], sys["omega"], 0.8)
    assert opnorm_mat(time_reversal(sys["rep"], cur) + cur) <= 1e-13


def test_diamagnetic_obs_zero_cases():
    sys = make_system(4, "deterministic-zero", seed=0)
    a = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=4.0)
    zero = rescale(a, 1.0, 0.0)
    bond = ((1,), (0,))
    assert opnorm_mat(diamagnetic_obs(sys["rep"], sys["box"], [bond], sys["omega"], 0.0,
                                  zero, 0.5)) <= 1e-14
    assert opnorm_mat(diamagnetic_obs(sys["rep"], sys["box"], [bond], sys["omega"], 0.0,
                                  a, 2.0)) == 0.0  # after t1


def test_diamagnetic_obs_small_field_expansion():
    # I^A = arg * P + O(arg^2), Taylor-compared at arg ~ 1e-4
    sys = make_system(4, "iid-uniform", seed=3, theta=0.5)
    from fermicond.model import bond_phase
    bond = ((1,), (0,))
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=4.0), 1.0, 2.5e-4)
    t = 0.5
    arg = bond_phase(a, t, bond[0], bond[1])
    assert 0 < abs(arg) < 1e-3
    dia = diamagnetic_obs(sys["rep"], sys["box"], [bond], sys["omega"], 0.5, a, t)
    p = paramagnetic_partner_obs(sys["rep"], sys["box"], [bond], sys["omega"], 0.5)
    assert opnorm_mat(dia - arg * p) <= 2.0 * arg ** 2 * opnorm_mat(p)


def test_sigma_p_zero_and_reversal_symmetry():
    sys = make_system(5, "iid-uniform", seed=4, theta=0.3, beta=1.0)
    k = sys["kernel"]
    bx, by = ((1,), (0,)), ((0,), (-1,))
    assert k.sigma_p(bx, by, 0.0) == 0.0
    for t in (0.4, 1.1, 3.0):
        assert abs(k.sigma_p(bx, by, -t) - k.sigma_p(by, bx, t)) <= 1e-11


def test_sigma_p_closed_form_vs_quadrature():
    # oracle: composite Simpson on the literal defining integral
    sys = make_system(2, "deterministic-zero", seed=0, beta=1.0)
    k = sys["kernel"]
    bond = ((0,), (1,))
    t = 1.3
    closed = k.sigma_p(bond, bond, t)
    cur = current_obs(sys["rep"], sys["box"], [bond], sys["omega"], 0.0)
    n = 600
    ss = np.linspace(0.0, t, n + 1)
    vals = []
    for s in ss:
        evolved = heisenberg(cur, s, sys["spectral"])
        comm = cur @ evolved - evolved @ cur
        vals.append((1j * np.trace(sys["state"].density @ comm)).real)
    oracle = float(np.dot(_simpson_weights(n, t / n), vals))
    assert abs(closed - oracle) <= 1e-7


def test_sigma_d_values():
    sys = make_system(4, "iid-uniform", seed=5, theta=0.4, beta=0.0)
    k = sys["kernel"]
    # infinite-temperature fixture: traceless bilinear
    assert abs(k.sigma_d(((1,), (0,)))) <= 1e-13
    sys2 = make_system(4, "iid-uniform", seed=5, theta=0.4, beta=1.0)
    val = sys2["kernel"].sigma_d(((1,), (0,)))
    assert abs(val) <= 2 * (0.4 + 1) + 1e-12


def test_sigma_d_two_site_brute_force():
    sys = make_system(2, "deterministic-zero", seed=0, beta=1.0)
    val = sys["kernel"].sigma_d(((0,), (1,)))
    # direct 4x4 trace oracle
    a0, a1 = two_site_raw_ops()
    h = -(a0.conj().T @ a1 + a1.conj().T @ a0) + 2 * (a0.conj().T @ a0 + a1.conj().T @ a1)
    rho = expm(-h)
    rho /= np.trace(rho)
    p = -(a0.conj().T @ a1 + a1.conj().T @ a0)
    assert abs(val - np.trace(rho @ p).real) <= 1e-12


def test_xi_p_l_basics():
    sys = make_system(5, "deterministic-zero", seed=0, beta=1.0)
    k = sys["kernel"]
    assert np.all(k.xi_p(0.0) == 0.0)
    # reflection-symmetric clean chain: scalar coefficient even in t
    for t in (0.5, 2.0):
        assert abs(k.xi_p(t)[0, 0] - k.xi_p(-t)[0, 0]) <= 1e-11
    ts = np.linspace(-8, 8, 33)
    xiplus = k.xi_plus(ts)
    for x in xiplus:
        assert np.linalg.eigvalsh(-0.5 * (x + x.T)).min() >= -1e-10


def test_xi_series_and_csv(tmp_path):
    sys = make_system(4, "iid-uniform", seed=6, theta=0.2)
    ts = np.linspace(-2, 2, 9)
    series = sys["kernel"].series(ts, {"seed": 6, "l": 4})
    assert series.xi_p.shape == (9, 1, 1)
    assert np.all(series.xi_d == sys["kernel"].xi_d())
    path = tmp_path / "xi.csv"
    series.to_csv(path)
    text = path.read_text().splitlines()
    assert text[1] == "t,xi_p[0][0]"
    assert text[-1].startswith("xi_d,")


def test_xi_d_free_fermion_oracle():
    # clean chain at beta=1: one-particle occupation-number oracle
    sys = make_system(6, "deterministic-zero", seed=0, beta=1.0)
    val = sys["kernel"].xi_d()[0, 0]
    h1 = build_hopping(sys["box"], sys["omega"], 0.0)
    f = np.linalg.inv(np.eye(6) + expm(1.0 * h1))  # <a_i^dag a_j> = f_{ji}
    tot = 0.0
    bonds = 0
    for x in sys["box"].sites:
        y = (x[0] + 1,)
        if y in sys["box"].index:
            i, j = sys["box"].index[y], sys["box"].index[x]
            c = h1[i, j]
            # rho(P) = c <a_y^dag a_x> + conj(c) <a_x^dag a_y>
            tot += (c * f[i, j] + np.conj(c) * f[j, i]).real
            bonds += 1
    assert abs(val - tot / len(sys["box"])) <= 1e-10


def test_xi_d_beta_zero():
    sys = make_system(5, "iid-uniform", seed=7, beta=0.0)
    assert np.abs(sys["kernel"].xi_d()).max() <= 1e-13


def test_disorder_average_properties():
    ts = np.linspace(0, 2, 5)

    def builder_zero(i):
        sys = make_system(3, "deterministic-zero", seed=i)
        return sys["kernel"].series(ts)

    mean = disorder_average(builder_zero, 3)
    single = builder_zero(0)
    assert np.allclose(mean.xi_p, single.xi_p)
    assert np.abs(mean.stderr_p).max() <= 1e-15

    def builder(master):
        def inner(i):
            box = Box.chain(3)
            rep = FockRep.of_box(box)
            om = DisorderDistribution("iid-uniform", master).derived(i).sample(box)
            h = build_hamiltonian(rep, box, om, 0.5, 1.0, InterparticleInteraction("none"))
            st = GibbsState.of(SpectralData.from_hamiltonian(h), 1.0)
            return TransportKernel(rep, box, om, 0.5, st).series(ts)
        return inner

    # stderr ~ 1/sqrt(n): slope fit over n in {8, 32, 128}
    ns = [8, 32, 128]
    errs = [np.linalg.norm(disorder_average(builder(1), n).stderr_p) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.25
    # two master seeds agree within 3 joint stderr
    m1, m2 = disorder_average(builder(1), 64), disorder_average(builder(2), 64)
    joint = np.sqrt(m1.stderr_p ** 2 + m2.stderr_p ** 2) + 1e-30
    assert np.all(np.abs(m1.xi_p - m2.xi_p) <= 4.0 * joint + 1e-12)


def test_thermal_current_cases():
    sys = make_system(5, "iid-real-hopping", seed=8, theta=0.9, beta=1.0)
    assert np.abs(thermal_current(sys["kernel"])).max() <= 1e-10
    sys0 = make_system(5, "iid-uniform", seed=8, theta=0.9, beta=0.0)
    assert np.abs(thermal_current(sys0["kernel"])).max() <= 1e-13
    # finite open boxes carry no net space-averaged current even with flux
    # (divergence-free stationary flow; every cut is flux-free)
    sysc = make_system(shape=(2, 3), d=2, kind="iid-uniform", seed=8, theta=0.9)
    assert np.abs(thermal_current(sysc["kernel"])).max() <= 1e-12


def test_thermal_current_is_the_bond_sum():
    # the kernel's eigenbasis sums equal sum_x rho(I_(x+e_k, x)) bond by bond; a
    # state built from other hoppings carries a net current, so each bond's
    # orientation shows
    sysa = make_system(shape=(2, 3), d=2, kind="iid-uniform", seed=8, theta=0.9)
    sysb = make_system(shape=(2, 3), d=2, kind="iid-uniform", seed=9, theta=0.9)
    box, rep, omega, state = sysa["box"], sysa["rep"], sysa["omega"], sysb["state"]
    kernel = TransportKernel(rep, box, omega, 0.9, state)
    unit = np.eye(2, dtype=int)
    want = np.array([sum(state.expect(current_obs(rep, box, [(shift(x, e), x)], omega, 0.9)).real
                         for x in box.sites if shift(x, e) in box.index) / len(box)
                     for e in unit])
    assert np.abs(want).max() > 1e-3
    assert np.abs(thermal_current(kernel) - want).max() <= 1e-13


def test_bond_currents_nonzero_with_flux():
    # complex hoppings around plaquettes drive circulating bond currents
    sysc = make_system(shape=(2, 3), d=2, kind="iid-uniform", seed=8, theta=0.9)
    box, rep, st = sysc["box"], sysc["rep"], sysc["state"]
    bond = box.bonds[0]
    cur = current_obs(rep, box, [(bond[1], bond[0])], sysc["omega"], 0.9)
    val = st.expect(cur).real
    assert abs(val) > 1e-6
    # conjugation pairing: the current flips sign exactly under omega -> omega-bar
    omc = sysc["omega"].conjugate()
    h = build_hamiltonian(rep, box, omc, 0.9, 0.0, InterparticleInteraction("none"))
    st2 = GibbsState.of(SpectralData.from_hamiltonian(h), 1.0)
    cur2 = current_obs(rep, box, [(bond[1], bond[0])], omc, 0.9)
    assert abs(val + st2.expect(cur2).real) <= 1e-12


def test_driven_currents_trivial_cases():
    sys = make_system(4, "iid-uniform", seed=9)
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0), 4.0, 0.05)
    times = np.linspace(0.0, 1.2, 7)
    tr0 = driven_currents(sys["rep"], sys["box"], sys["omega"], 0.0, 0.0,
                          InterparticleInteraction("none"), sys["state"],
                          rescale(a, 1.0, 0.0), times, 0.05)
    assert np.all(tr0.j_p == 0.0)
    tr = driven_currents(sys["rep"], sys["box"], sys["omega"], 0.0, 0.0,
                         InterparticleInteraction("none"), sys["state"],
                         a, times, 0.05)
    assert np.abs(tr.j_p[0]).max() <= 1e-12  # t = t0


def _ohm_scan(sys, etas, times, dt=0.01):
    a_base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    w = np.array([1.0])
    from fermicond.transport import pulse_efield_and_integral
    efield, eint = pulse_efield_and_integral(a_base, w)
    j_lin, j_d_lin = ohm_linear(sys["kernel"], efield, w, times, eint)
    finals = {}
    for eta in etas:
        # field flat across every bond of the chain
        a_sc = rescale(a_base, float(len(sys["box"])), eta)
        tr = driven_currents(sys["rep"], sys["box"], sys["omega"], sys["theta"], 0.0,
                             sys["ip"], sys["state"], a_sc, times, dt)
        finals[eta] = tr.j_p[:, 0]
    return j_lin, j_d_lin, finals


def test_ohm_linearity_clean_chain():
    # parity-symmetric chain: remainder is purely cubic, so the fitted
    # order over one octave sits well above the 1.9 gate
    sys = make_system(6, "deterministic-zero", seed=0, beta=1.0)
    times = np.linspace(0.0, 1.4, 71)  # pulse end t1 = 1 on an even panel edge
    etas = [0.02, 0.04, 0.08]
    j_lin, j_d_lin, finals = _ohm_scan(sys, etas, times)
    assert np.all(j_lin[0] == 0.0)
    # AC-condition: diamagnetic response vanishes exactly after the pulse
    assert np.abs(j_d_lin[times >= 1.0]).max() <= 1e-12
    resid = [np.abs(finals[eta] - eta * j_lin[:, 0]).max() for eta in etas]
    order = np.polyfit(np.log(etas), np.log(resid), 1)[0]
    assert order >= 1.9
    rich = 2 * finals[0.02] / 0.02 - finals[0.04] / 0.04
    assert np.abs(rich - j_lin[:, 0]).max() <= 1e-4


def test_ohm_linearity_disordered_richardson():
    # parity-broken sample: the eta^2 remainder is nonzero, so only the
    # Richardson-extrapolated linear coefficient is compared
    sys = make_system(6, "iid-real-hopping", seed=10, theta=0.3, beta=1.0)
    times = np.linspace(0.0, 1.4, 71)
    j_lin, _, finals = _ohm_scan(sys, [0.02, 0.04], times)
    rich = 2 * finals[0.02] / 0.02 - finals[0.04] / 0.04
    assert np.abs(rich - j_lin[:, 0]).max() <= 1e-4
    # the raw remainder is at least quadratic
    r1 = np.abs(finals[0.02] - 0.02 * j_lin[:, 0]).max()
    r2 = np.abs(finals[0.04] - 0.04 * j_lin[:, 0]).max()
    assert r2 / r1 >= 3.0  # ratio 4 for pure eta^2, reduced by cubic interference


def test_ohm_zero_field():
    sys = make_system(4, "iid-uniform", seed=11)
    times = np.linspace(0.0, 1.0, 11)
    j_p, j_d = ohm_linear(sys["kernel"], lambda s: 0.0, [1.0], times)
    assert np.all(j_p == 0.0) and np.all(j_d == 0.0)


def test_fluctuation_observable(rng):
    sys = make_system(5, "iid-uniform", seed=12, beta=1.3)
    st, rep = sys["state"], sys["rep"]
    xs = [s for s in sys["box"].sites]
    f_id = fluctuation(lambda x: rep.identity(), xs, st)
    assert np.linalg.norm(f_id, 2) <= 1e-12
    b = random_local(rng, rep, hermitian=True)
    f_b = fluctuation(lambda x: b, xs, st)  # constant builder still centers
    assert abs(st.expect(f_b)) <= 1e-10
    pair = duhamel(f_b, f_b, st)
    assert pair.real >= -1e-12


def test_green_kubo_residual_decreasing():
    resids = []
    ts = np.linspace(0.0, 5.0, 21)
    for n in (3, 5, 7):
        sys = make_system(n, "deterministic-zero", seed=0, beta=1.0)
        rep = green_kubo_residual(sys["kernel"], ts)
        assert abs(rep["increment"][0]).max() <= 1e-12  # t = 0
        resids.append(rep["max_residual"])
    assert resids[0] > resids[1] > resids[2]


def test_continuity_equation():
    # d/dt rho_t(n_x) = sum_y <I^(A)_(y,x)>_t with the full Peierls currents
    sys = make_system(5, "iid-uniform", seed=13, theta=0.4, lam=0.8,
                      ip=nn_interaction(0.6))
    box, rep, omega = sys["box"], sys["rep"], sys["omega"]
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0), 2.0, 0.4)
    from fermicond.model import build_w
    h0 = build_hamiltonian(rep, box, omega, 0.4, 0.8, nn_interaction(0.6))

    def h_of_t(t):
        return h0 + build_w(rep, box, omega, 0.4, a, t)

    from fermicond.equilibrium import evolve
    t_probe, dt = 0.6, 0.005
    i_probe = int(round(t_probe / dt))
    rhos = evolve(sys["state"].density, h_of_t, np.linspace(0.0, t_probe + dt, i_probe + 2),
                  dt, lambda t, rho: rho)
    x = (0,)
    n_x = rep.number(x)
    dn_dt = (np.trace(rhos[i_probe + 1] @ n_x).real
             - np.trace(rhos[i_probe - 1] @ n_x).real) / (2 * dt)
    # full currents from the time-dependent hopping matrix at t_probe
    hop_a = peierls_hopping(build_hopping(box, omega, 0.4), box, a, t_probe)
    inflow = 0.0
    for y in ((-1,), (1,)):
        c = hop_a[box.index[y], box.index[x]]
        ay = rep._annihilator_mats[rep.mode(y)]
        ax = rep._annihilator_mats[rep.mode(x)]
        m = c * ay.conj().T @ ax
        cur = 1j * (m - m.conj().T)  # I_(y,x) built from Delta^A
        inflow += np.trace(rhos[i_probe] @ cur).real
    assert abs(dn_dt - inflow) <= 1e-6


def test_ohm_d2_transpose_convolution():
    # TR-broken 2d box: the measured linear response follows the transposed
    # kernel; the plain form differs by the antisymmetric part
    sys = make_system(shape=(2, 3), d=2, kind="iid-uniform", seed=8, theta=0.9)
    w = np.array([1.0, 0.0])
    a_base = FlatPulse(2, w, 0.0, 1.0, halfwidth=1.0)
    times = np.linspace(0.0, 1.4, 71)
    from fermicond.transport import pulse_efield_and_integral
    efield, eint = pulse_efield_and_integral(a_base, w)
    j_plain, _ = ohm_linear(sys["kernel"], efield, w, times, eint)
    j_trans, _ = ohm_linear(sys["kernel"], efield, w, times, eint,
                            transpose_kernel=True)
    eta = 1e-5
    a_sc = rescale(a_base, 8.0, eta)  # flat across the whole box
    tr = driven_currents(sys["rep"], sys["box"], sys["omega"], 0.9, 0.0,
                         InterparticleInteraction("none"), sys["state"],
                         a_sc, times, 0.01)
    dj = tr.j_p / eta
    assert np.abs(dj - j_trans).max() <= 1e-4
    # the distinction is real: [Xi]_- is O(1e-2) for this flux-carrying sample
    assert np.abs(dj - j_plain).max() > 50 * np.abs(dj - j_trans).max()


def test_ohm_requires_uniform_grid():
    sys = make_system(3, "deterministic-zero", seed=0)
    with pytest.raises(ValueError):
        ohm_linear(sys["kernel"], lambda s: 0.0, [1.0], np.array([0.0, 0.1, 0.3]))
