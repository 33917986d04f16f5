import numpy as np
import pytest
from scipy.linalg import expm

from fermicond.equilibrium import (ConditioningWarning, DiagonalizationError,
                                   GibbsState, OverlappingSupportsError,
                                   SpectralData, StepSizeError, drive_layout, duhamel,
                                   evolve, heisenberg, imaginary_time,
                                   lieb_robinson_check, richardson_drive_check,
                                   step_unitary, work_functional, _CF4_A, _CF4_C,
                                   _simpson_weights)
from fermicond.fock import opnorm_mat, sector_layout
from fermicond.model import (DecayFunction, FlatPulse, InterparticleInteraction, build_w,
                             full_interaction_norm, rescale)

from conftest import make_system, nn_interaction, random_local


def test_spectral_data_verify():
    sys = make_system(4, "iid-uniform", seed=2, theta=0.3, lam=0.7)
    assert sys["spectral"].verify(sys["h"])
    u = sys["spectral"].dense_u()
    assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) <= 1e-12
    assert np.all(np.diff(sys["spectral"].eigenvalues) >= 0)


def test_spectral_rejects_nonhermitian():
    with pytest.raises(DiagonalizationError):
        SpectralData.from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_rejects_defect_just_above_spectral_threshold():
    # the spectral-norm test rejects ||H - H*||_2 > 1e-10 max(1, ||H||_2); the
    # cheaper Frobenius / max-entry guard must reject such a matrix too
    h = np.diag([1.0, -3.0]).astype(complex)
    eps = 1.01e-10 * np.linalg.norm(h, 2)
    h[0, 1] = eps
    assert np.linalg.norm(h - h.conj().T, 2) > 1e-10 * max(1.0, np.linalg.norm(h, 2))
    with pytest.raises(DiagonalizationError):
        SpectralData.from_hamiltonian(h)
    h[0, 1] = 0.5 * eps  # within both thresholds
    SpectralData.from_hamiltonian(h)


def test_gibbs_trace_state():
    st = GibbsState.of(SpectralData.from_hamiltonian(np.zeros((8, 8))), 1.0)
    assert np.allclose(st.density, np.eye(8) / 8)
    # beta = 0 fixture: maximally mixed regardless of H
    sys = make_system(3, "iid-uniform", seed=3)
    st0 = GibbsState.of(sys["spectral"], 0.0)
    assert np.allclose(st0.density, np.eye(8) / 8)


def test_gibbs_properties():
    sys = make_system(5, "iid-uniform", seed=4, theta=0.2, lam=1.0, beta=2.0)
    rho = sys["state"].density
    assert abs(np.trace(rho).real - 1.0) <= 1e-13
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    comm = rho @ sys["h"] - sys["h"] @ rho
    assert np.linalg.norm(comm, 2) <= 1e-12


def test_gibbs_ground_state_projector():
    sys = make_system(4, "iid-uniform", seed=5, lam=1.0)
    e = sys["spectral"].eigenvalues
    gap = e[1] - e[0]
    st = GibbsState.of(sys["spectral"], 50.0 / gap)
    g = sys["spectral"].dense_u()[:, 0]
    fidelity = float(np.real(g.conj() @ st.density @ g))
    assert fidelity > 1 - 1e-8


def test_kms_identity_random_pairs(rng):
    sys = make_system(6, "iid-uniform", seed=6, theta=0.5, lam=1.0,
                      ip=nn_interaction(1.0))
    for beta in (0.5, 1.0, 2.0):
        st = GibbsState.of(sys["spectral"], beta)
        for _ in range(10):
            b1, b2 = random_local(rng, sys["rep"]), random_local(rng, sys["rep"])
            assert st.kms_defect(b1, b2) <= 1e-9 * opnorm_mat(b1) * opnorm_mat(b2)


def test_kms_via_matrix_route(rng):
    # full-pipeline route: rho(B1 tau_{i beta}(B2)) with explicit matrices
    sys = make_system(4, "iid-uniform", seed=7, beta=0.5)
    st = sys["state"]
    b1, b2 = random_local(rng, sys["rep"]), random_local(rng, sys["rep"])
    tau_b2 = imaginary_time(b2, st.beta, sys["spectral"])
    lhs = np.trace(st.density @ b1 @ tau_b2)
    rhs = np.trace(st.density @ b2 @ b1)
    assert abs(lhs - rhs) <= 1e-9 * opnorm_mat(b1) * opnorm_mat(b2)


def test_heisenberg_group_law(rng):
    sys = make_system(4, "iid-uniform", seed=8, theta=0.4)
    sd = sys["spectral"]
    b = random_local(rng, sys["rep"])
    assert opnorm_mat(heisenberg(b, 0.0, sd) - b) <= 1e-13
    h_op = sys["h"]
    assert opnorm_mat(heisenberg(h_op, 1.3, sd) - h_op) <= 1e-11
    lhs = heisenberg(heisenberg(b, 0.7, sd), 0.5, sd)
    rhs = heisenberg(b, 1.2, sd)
    assert opnorm_mat(lhs - rhs) <= 1e-11 * max(1.0, opnorm_mat(b))


def test_kms_stationarity(rng):
    sys = make_system(5, "iid-uniform", seed=9, beta=1.0)
    st, sd = sys["state"], sys["spectral"]
    for t in (0.1, 1.0, 10.0):
        b = random_local(rng, sys["rep"])
        drift = abs(st.expect(heisenberg(b, t, sd)) - st.expect(b))
        assert drift <= 1e-10 * opnorm_mat(b)


def test_imaginary_time_conditioning_warning():
    h = np.diag([0.0, 80.0])
    sd = SpectralData.from_hamiltonian(h)
    with pytest.warns(ConditioningWarning):
        imaginary_time(np.ones((2, 2), dtype=complex), 1.0, sd)


def test_duhamel_identity_and_positivity(rng):
    sys = make_system(5, "iid-uniform", seed=10, beta=1.7)
    st = sys["state"]
    eye = sys["rep"].identity()
    assert abs(duhamel(eye, eye, st) - st.beta) <= 1e-12
    for _ in range(5):
        b = random_local(rng, sys["rep"])
        val = duhamel(b, b, st)
        assert abs(val.imag) <= 1e-10
        assert val.real >= -1e-12


def test_duhamel_vs_gauss_quadrature(rng):
    # oracle: 64-point Gauss-Legendre quadrature of the alpha-integral
    sys = make_system(4, "iid-uniform", seed=11, beta=1.0)
    st, sd = sys["state"], sys["spectral"]
    b1, b2 = random_local(rng, sys["rep"]), random_local(rng, sys["rep"])
    nodes, weights = np.polynomial.legendre.leggauss(64)
    alphas = 0.5 * st.beta * (nodes + 1.0)
    total = 0.0
    for alpha, w in zip(alphas, weights):
        tau_b2 = imaginary_time(b2, alpha, sd)
        total += w * np.trace(st.density @ b1.conj().T @ tau_b2)
    oracle = 0.5 * st.beta * total
    assert abs(duhamel(b1, b2, st) - oracle) <= 1e-9 * max(1.0, abs(oracle))


# -- driven propagator --------------------------------------------------------

def _keep(t, rho):
    return rho


def test_drive_stationary_without_field():
    sys = make_system(4, "iid-uniform", seed=12, beta=1.0)
    h0 = sys["h"]
    rhos = evolve(sys["state"].density, lambda t: h0, np.linspace(0.0, 1.0, 21), 0.05, _keep)
    assert np.linalg.norm(rhos[-1] - sys["state"].density, 2) <= 1e-10
    for rho in rhos:
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def _exact(h, t, rho):
    evals, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(-1j * t * evals)[None, :]) @ evecs.conj().T
    return u @ rho @ u.conj().T


def test_drive_autonomous_matches_exponential(rng):
    sys = make_system(4, "iid-uniform", seed=13)
    pert = random_local(rng, sys["rep"], hermitian=True)
    h = sys["h"] + pert
    rho0 = sys["state"].density
    rhos = evolve(rho0, lambda t: h, [0.0, 0.8], 0.01, _keep)
    assert np.linalg.norm(rhos[-1] - _exact(h, 0.8, rho0), 2) <= 1e-10


def test_evolve_hits_nonuniform_grid(rng):
    # gaps of 0.013 .. 0.37 are no multiples of dt; each grid time is hit exactly
    sys = make_system(4, "iid-uniform", seed=21)
    h = sys["h"] + random_local(rng, sys["rep"], hermitian=True)
    rho0 = sys["state"].density
    grid = [0.0, 0.013, 0.1, 0.37, 0.5, 0.83, 1.2]
    out = evolve(rho0, lambda t: h, grid, 0.05, lambda t, rho: (t, rho))
    assert [t for t, _ in out] == grid
    for t, rho in out:
        assert np.linalg.norm(rho - _exact(h, t, rho0), 2) <= 1e-10


def test_evolve_free_after_matches_exact_on_nonuniform_grid(rng):
    # constant H: the CF4 gaps before 0.3 and the rotations of the one
    # eigenbasis rho from 0.37 on both reproduce e^{-itH} rho0 e^{itH}
    sys = make_system(4, "iid-uniform", seed=21)
    h = sys["h"] + random_local(rng, sys["rep"], hermitian=True)
    rho0 = sys["state"].density
    grid = [0.0, 0.013, 0.1, 0.37, 0.5, 0.83, 1.2]
    out = evolve(rho0, lambda t: h, grid, 0.05, lambda t, rho: (t, rho),
                 free_after=(0.3, SpectralData.from_hamiltonian(h)))
    assert [t for t, _ in out] == grid
    for t, rho in out:
        assert np.linalg.norm(rho - _exact(h, t, rho0), 2) <= 1e-10


def _tail_drive(ip=None, seed=22):
    """6-site density-density chain, a pulse on [0, 1] and a grid past it."""
    sys = make_system(6, "iid-uniform", seed=seed, theta=0.5, lam=1.0,
                      ip=ip or nn_interaction(1.0))
    a_base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    return sys, a_base, np.linspace(0.0, 1.5, 31)


def _cf4_only(monkeypatch):
    from fermicond import transport
    monkeypatch.setattr(transport, "free_after_pulse", lambda *args: None)


def _driven(sys, a_base, times, state=None):
    from fermicond.joule import energy_increments
    from fermicond.transport import driven_currents
    state = state or sys["state"]
    args = (sys["rep"], sys["box"], sys["omega"], sys["theta"], sys["lam"], sys["ip"], state)
    j_p = driven_currents(*args, rescale(a_base, 6.0, 0.25), times, 0.04).j_p
    tr = energy_increments(*args, a_base, 0.25, 6.0, times, 0.04, warn_margin=False)
    return j_p, tr


def test_exact_tail_matches_cf4_after_the_pulse(monkeypatch):
    # W_t = 0 at both CF4 nodes of a step after t1, so the CF4 product is
    # exactly e^{-i step H}: the two routes differ by roundoff only
    sys, a_base, times = _tail_drive()
    j_p, tr = _driven(sys, a_base, times)
    _cf4_only(monkeypatch)
    j_ref, ref = _driven(sys, a_base, times)
    for got, want in [(j_p, j_ref)] + [(getattr(tr, k), getattr(ref, k))
                                       for k in ("S", "P", "Ip", "Id")]:
        assert np.abs(want).max() > 0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_heat_is_flat_after_the_pulse():
    # H0 conserves energy: after t1, S(t) stays constant to roundoff
    sys, a_base, times = _tail_drive()
    _, tr = _driven(sys, a_base, times)
    after = tr.S[times >= a_base.t1]
    assert len(after) > 5 and after[0] > 0
    assert after.max() - after.min() <= 1e-12 * abs(after[0])


def test_exact_tail_needs_the_spectrum_of_h(monkeypatch):
    # a state diagonalised from another H is never rotated with its spectrum:
    # the run is CF4 throughout, bit for bit
    sys, a_base, times = _tail_drive()
    other = GibbsState.of(SpectralData.from_hamiltonian(1.01 * sys["h"]), 1.0)
    j_p, tr = _driven(sys, a_base, times, other)
    _cf4_only(monkeypatch)
    j_ref, ref = _driven(sys, a_base, times, other)
    assert np.array_equal(j_p, j_ref)
    for k in ("S", "P", "Ip", "Id"):
        assert np.array_equal(getattr(tr, k), getattr(ref, k))


def test_propagator_composition():
    sys = make_system(3, "iid-uniform", seed=14)
    h0 = sys["h"]

    def h_of_t(t):
        return h0 * (1.0 + 0.2 * np.sin(t))

    for j in range(20):
        (u,) = step_unitary(lambda s: (h_of_t(s),), 0.05 * j, 0.05)  # one block
        assert np.linalg.norm(u @ u.conj().T - np.eye(len(u)), 2) <= 1e-12
    rho0 = sys["state"].density
    full = evolve(rho0, h_of_t, [0.0, 1.0], 0.05, _keep)[-1]
    half = evolve(rho0, h_of_t, [0.0, 0.5], 0.05, _keep)[-1]
    rest = evolve(half, h_of_t, [0.5, 1.0], 0.05, _keep)[-1]
    assert np.linalg.norm(rest - full, 2) <= 1e-12


def test_propagator_order(rng):
    sys = make_system(3, "iid-uniform", seed=15)
    h0 = sys["h"]
    pert = random_local(rng, sys["rep"], hermitian=True)

    def h_of_t(t):
        return h0 + np.sin(2.1 * t) * pert

    obs = random_local(rng, sys["rep"], hermitian=True)

    def final(dt):
        rho = evolve(sys["state"].density, h_of_t, [0.0, 1.0], dt, _keep)[-1]
        return np.trace(rho @ obs).real

    ref_val = final(1.0 / 512)
    dts = [1.0 / 8, 1.0 / 16, 1.0 / 32]
    errs = [abs(final(dt) - ref_val) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4) < 0.6


def test_richardson_check(rng):
    sys = make_system(3, "iid-uniform", seed=16)
    h0 = sys["h"]
    pert = random_local(rng, sys["rep"], hermitian=True)
    obs = np.diag(np.arange(8.0))

    def h_of_t(t):  # non-commuting drive so the state actually moves
        return h0 + np.sin(7 * t) * pert

    diff = richardson_drive_check(sys["state"], h_of_t, 0.0, 1.0, 0.02, obs, tol=1e-6)
    assert diff < 1e-6
    with pytest.raises(StepSizeError):
        richardson_drive_check(sys["state"], h_of_t, 0.0, 1.0, 0.5, obs, tol=1e-14)


# -- number-sector steps --------------------------------------------------------

def _hubbard_drive(n_sites=6):
    """A disordered Hubbard chain, its generator t -> H + W_t, and the layout
    and block generator a driven caller runs it on."""
    sys = make_system(n_sites, "iid-uniform", seed=31, theta=0.3, lam=1.0,
                      ip=InterparticleInteraction("hubbard", U=1.0))
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=float(n_sites)), 2.0, 0.4)
    args = (sys["rep"], sys["box"], sys["omega"], sys["theta"], a)

    def h_of_t(t):
        return sys["h"] + build_w(*args, t)

    layout = drive_layout(sys["h"], sys["state"].density)
    h_blocks = layout.gather(sys["h"])

    def blocks_of_t(t):
        return tuple(hk + wk for hk, wk in zip(h_blocks, build_w(*args, t, layout)))

    return sys, h_of_t, layout, blocks_of_t


def _dense_cf4(h_of_t, t, dt):
    """The CF4 step as the product of two full-space scipy exponentials."""
    (c1, c2), (a1, a2) = _CF4_C, _CF4_A
    h1, h2 = h_of_t(t + c1 * dt), h_of_t(t + c2 * dt)
    return expm(-1j * dt * (a1 * h1 + a2 * h2)) @ expm(-1j * dt * (a2 * h1 + a1 * h2))


def _off_sector(dim):
    n = np.bitwise_count(np.arange(dim))
    return n[:, None] != n[None, :]


def test_sector_step_matches_dense_exponentials():
    sys, h_of_t, layout, blocks_of_t = _hubbard_drive()
    assert len(layout.groups) == 7  # the number sectors of 6 sites
    t, dt = 0.4, 0.05
    assert np.any(h_of_t(t) != sys["h"])  # the field is on
    u = layout.join(step_unitary(blocks_of_t, t, dt))
    assert np.abs(u - _dense_cf4(h_of_t, t, dt)).max() <= 1e-12
    assert not np.any(u[_off_sector(len(u))])
    assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-12


def test_sector_step_falls_back_for_off_sector_terms():
    sys, h_of_t, _, _ = _hubbard_drive()
    x = sys["rep"].site_order[2]
    a = sys["rep"].annihilator(x)
    odd = 0.3 * (a + a.conj().T)  # changes the particle number by one

    def h_mixed(t):
        return h_of_t(t) + odd

    t, dt = 0.4, 0.05
    assert sector_layout(h_mixed(t)) is None  # its callers take the one block
    (u,) = step_unitary(lambda s: (h_mixed(s),), t, dt)
    assert np.abs(u - _dense_cf4(h_mixed, t, dt)).max() <= 1e-12
    assert np.any(u[_off_sector(len(u))])


def test_sector_evolve_conserves_trace_and_matches_dense():
    sys, h_of_t, layout, blocks_of_t = _hubbard_drive()
    rho0 = sys["state"].density
    grid = np.linspace(0.0, 1.2, 7)
    dt = 0.05
    rhos = evolve(rho0, blocks_of_t, grid, dt, _keep, layout=layout)
    assert not any(np.any(rho[_off_sector(len(rho))]) for rho in rhos)
    ref = rho0
    for k, (ta, tb) in enumerate(zip(grid[:-1], grid[1:])):
        n = int(np.ceil((tb - ta) / dt - 1e-12))
        step = (tb - ta) / n
        for j in range(n):
            u = _dense_cf4(h_of_t, ta + j * step, step)
            ref = u @ ref @ u.conj().T
        assert abs(np.trace(rhos[k + 1]) - 1.0) <= 1e-12
        assert np.abs(rhos[k + 1] - ref).max() <= 1e-10


def test_simpson_weights_polynomial():
    # integrates cubics exactly on even grids
    n, h = 10, 0.1
    w = _simpson_weights(n, h)
    xs = np.arange(n + 1) * h
    assert abs(np.dot(w, xs ** 3) - 0.25) <= 1e-14


# -- work functional and passivity ---------------------------------------------

def test_work_functional_zero_field():
    sys = make_system(3, "iid-uniform", seed=17)
    val = work_functional(sys["state"], lambda t: np.zeros((8, 8)), 0.0, 1.0, 0.05)
    assert abs(val) <= 1e-12


def test_passivity_random_cyclic(rng):
    for beta in (0.5, 1.0, 2.0):
        sys = make_system(4, "iid-uniform", seed=18, beta=beta, ip=nn_interaction(0.7))
        for _ in range(4):
            b = random_local(rng, sys["rep"], hermitian=True)

            def a_of_t(s, b=b):
                if s <= 0.0 or s >= 1.0:
                    return np.zeros_like(b)
                return np.sin(np.pi * s) ** 2 * b

            val = work_functional(sys["state"], a_of_t, 0.0, 1.0, 0.02)
            assert val >= -1e-9


def test_work_equals_total_energy_increment(rng):
    # cross-module oracle: L_t = Ip(t) + Id(t) from the energy-increments route
    from fermicond.joule import energy_increments
    from fermicond.model import build_w, FlatPulse, rescale
    sys = make_system(4, "iid-real-hopping", seed=19, theta=0.4, beta=1.0)
    a_base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=4.0)
    eta, l = 0.3, 1.0
    a_sc = rescale(a_base, l, eta)

    def a_of_t(s):
        return build_w(sys["rep"], sys["box"], sys["omega"], 0.4, a_sc, s)

    t_end = 1.25
    val = work_functional(sys["state"], a_of_t, 0.0, t_end, 0.01)
    times = np.linspace(0.0, t_end, 26)
    tr = energy_increments(sys["rep"], sys["box"], sys["omega"], 0.4, 0.0,
                           InterparticleInteraction("none"), sys["state"],
                           a_base, eta, l, times, 0.01, warn_margin=False)
    assert abs(val - (tr.Ip[-1] + tr.Id[-1])) <= 1e-6


# -- Lieb-Robinson ------------------------------------------------------------

def test_lieb_robinson_basics(rng):
    from fermicond.transport import current_obs
    sys = make_system(8, "deterministic-zero", seed=20)
    f = DecayFunction(1, "polynomial", epsilon=2.0)
    conv = f.convolution_constant(sys["box"])
    dsup = full_interaction_norm(0.0, InterparticleInteraction("none"), f, sys["box"])
    b1 = current_obs(sys["rep"], sys["box"], [((-2,), (-3,))], sys["omega"], 0.0)
    b2 = current_obs(sys["rep"], sys["box"], [((4,), (3,))], sys["omega"], 0.0)
    res0 = lieb_robinson_check(b1, ((-3,), (-2,)), b2, ((3,), (4,)), 0.0,
                               sys["spectral"], f, conv, dsup)
    assert res0["lhs"] <= 1e-12 and res0["satisfied"]
    res1 = lieb_robinson_check(b1, ((-3,), (-2,)), b2, ((3,), (4,)), 1.0,
                               sys["spectral"], f, conv, dsup)
    assert res1["satisfied"] and res1["lhs"] > 0.0
    assert lieb_robinson_check(b1, ((-3,), (-2,)), b2, ((3,), (4,)), 1.0,
                               sys["spectral"], f, conv, dsup,
                               norms=(opnorm_mat(b1), opnorm_mat(b2))) == res1
    with pytest.raises(OverlappingSupportsError):
        lieb_robinson_check(b1, ((-3,), (-2,)), b2, ((-2,), (0,)), 1.0,
                            sys["spectral"], f, conv, dsup)
    odd = sys["rep"].annihilator((-3,))
    with pytest.raises(ValueError):
        lieb_robinson_check(odd, ((-3,),), b2, ((3,), (4,)), 1.0,
                            sys["spectral"], f, conv, dsup)
    with pytest.raises(ValueError):
        lieb_robinson_check(odd + sys["rep"].number((-3,)), ((-3,),), b2, ((3,), (4,)), 1.0,
                            sys["spectral"], f, conv, dsup)
    # every bond current is even, in either orientation, and is accepted as B1
    for x, y in sys["box"].bonds:
        if {x, y} & {(3,), (4,)}:
            continue
        for bond in ((x, y), (y, x)):
            cur = current_obs(sys["rep"], sys["box"], [bond], sys["omega"], 0.0)
            assert lieb_robinson_check(cur, bond, b2, ((3,), (4,)), 0.5, sys["spectral"],
                                       f, conv, dsup)["satisfied"]


def test_gibbs_overflow_safety():
    # max-shift keeps huge beta finite: weights collapse to the ground sector
    sys = make_system(4, "iid-uniform", seed=25, lam=1.0)
    st = GibbsState.of(sys["spectral"], 1e4)
    assert np.isfinite(st.weights).all()
    assert abs(st.weights.sum() - 1.0) <= 1e-13
    assert st.weights[0] > 1 - 1e-12
