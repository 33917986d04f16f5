import tracemalloc

import numpy as np
import pytest

from fermicond.equilibrium import _cumulative_simpson, _simpson_weights
from fermicond.model import FlatPulse, bond_phase, integrated_field, rescale
from fermicond.transport import paramagnetic_partner_obs
from fermicond.joule import (correction_term, diamagnetic_density,
                             diamagnetic_density_exact, energy_increments,
                             flat_pulse_x_infinity, heat_production_identity,
                             joule_form_ip, joule_integrand_x,
                             paramagnetic_density_check, x_infinity)

from conftest import make_system, nn_interaction

A_BASE = FlatPulse(1, [1.0], t0=0.0, t1=1.0, halfwidth=1.0)
W = np.array([1.0])
# 2x3 box (sites {0, 1} x {-1, 0, 1}), direction (1, 0.5)
BOX_PULSE = FlatPulse(2, [1.0, 0.5], t0=0.0, t1=1.0, halfwidth=0.5)


def bond_kinds(a_l, bonds):
    """inside / straddling / touching / face / outside of each canonical bond
    of the rescaled pulse, from its plateau fraction f: straddling 0 < f < 1,
    touching f = 0 with an endpoint on the plateau, face f > 0 with a fixed
    coordinate on the plateau's edge."""
    kinds = set()
    for x, y in bonds:
        f = a_l._plateau_fraction(x, y)
        face = any(xk == yk and abs(abs(xk / a_l.scale) - a_l.halfwidth) <= 1e-12
                   for xk, yk in zip(x, y))
        if 0.0 < f < 1.0:
            kinds.add("straddling")
        elif f == 0.0:
            kinds.add("touching" if a_l._inside(x) or a_l._inside(y) else "outside")
        else:
            kinds.add("face" if face else "inside")
    return kinds


def bond_field_weights_oracle(kernel, a_l, s_grid):
    """The per-time field-weighted currents sum_b E_s(b) I_b in the eigenbasis."""
    bonds = list(kernel.box.bonds)
    ew = np.array([[integrated_field(a_l, s, b) for b in bonds] for s in s_grid])
    cur = [kernel.bond_current_eig(b) for b in bonds]
    dimf = kernel.rep.dim
    k_eig = np.zeros((len(s_grid), dimf, dimf), dtype=complex)
    for it in range(len(s_grid)):
        if np.any(ew[it]):
            k_eig[it] = sum(ew[it, ib] * cur[ib] for ib in range(len(bonds)) if ew[it, ib])
    return k_eig


def correction_term_oracle(kernel, a_base, l, times):
    """correction_term with a dim^2 response array per time."""
    times = np.asarray(times, dtype=float)
    k_eig = bond_field_weights_oracle(kernel, rescale(a_base, l, 1.0), times)
    h = times[1] - times[0]
    g, nu = kernel.pair_weight, kernel.bohr
    ka = _cumulative_simpson(k_eig, h)
    out = np.zeros(len(times))
    for it, t in enumerate(times):
        if it == 0 or not np.any(ka[it]):
            continue
        phases = np.exp(1j * np.multiply.outer(t - times[:it + 1], nu)) - 1.0
        wts = _simpson_weights(it, h)
        resp = np.einsum("s,smn,smn->mn", wts, k_eig[:it + 1], phases)
        out[it] = np.einsum("mn,nm,mn->", resp, ka[it], g).real
    return out / l ** kernel.box.dim


def diamagnetic_density_exact_oracle(kernel, a_base, l, times):
    """diamagnetic_density_exact from the Peierls phase of every bond at every time."""
    a_l = rescale(a_base, l, 1.0)
    box = kernel.box
    p_exp = np.array([kernel.state.expect(
        paramagnetic_partner_obs(kernel.rep, box, [b], kernel.omega, kernel.theta)).real
        for b in box.bonds])
    out = np.zeros(len(times))
    for it, t in enumerate(times):
        if not a_l.is_off(t):
            phases = np.array([bond_phase(a_l, t, *b) for b in box.bonds])
            out[it] = -0.5 * float(np.dot(phases ** 2, p_exp))
    return out / l ** box.dim


def run_trace(sys, eta, l=2.0, times=None, dt=0.01):
    times = np.linspace(0.0, 1.5, 31) if times is None else times
    return energy_increments(sys["rep"], sys["box"], sys["omega"], sys["theta"],
                             sys["lam"], sys["ip"], sys["state"], A_BASE, eta, l,
                             times, dt, warn_margin=False)


def test_zero_field_and_initial_time():
    sys = make_system(5, "iid-uniform", seed=1, theta=0.2)
    tr = run_trace(sys, 0.0)
    for arr in (tr.S, tr.P, tr.Ip, tr.Id):
        assert np.all(arr == 0.0)
    tr2 = run_trace(sys, 0.1)
    assert abs(tr2.S[0]) <= 1e-14 and abs(tr2.Ip[0]) <= 1e-14


def test_heat_production_and_balance():
    sys = make_system(6, "iid-uniform", seed=2, theta=0.4, lam=0.8,
                      ip=nn_interaction(0.8))
    tr = run_trace(sys, 0.1)
    scale = max(np.abs(tr.Ip).max(), np.abs(tr.S).max())
    assert tr.balance_defect() <= 1e-6 * scale
    after = tr.times >= 1.0
    assert np.all(tr.S[after] >= -1e-9)
    # field off scenario: autonomous evolution conserves H, so S is constant
    assert tr.S[after].max() - tr.S[after].min() <= 1e-10 * max(1.0, tr.S[after].max())


def test_quadratic_scaling_of_heat():
    sys = make_system(5, "deterministic-zero", seed=0)
    etas = [0.04, 0.08]
    s_end = [run_trace(sys, eta).S[-1] for eta in etas]
    slope = np.log(s_end[1] / s_end[0]) / np.log(2.0)
    assert abs(slope - 2.0) <= 0.04  # 2% fit error over one octave


def test_x_integrand_trivial_zeros():
    sys = make_system(5, "deterministic-zero", seed=0)
    sgrid = np.linspace(0.0, 1.5, 16)
    x = joule_integrand_x(sys["kernel"], A_BASE, 2.0, sgrid)
    # s1 = s2: sigma_p(., ., 0) = 0 (roundoff-level)
    assert np.abs(np.diag(x.x_l)).max() <= 1e-14
    # zero field rows/cols (s beyond the pulse)
    off = sgrid >= 1.0
    assert np.abs(x.x_l[off][:, off]).max() == 0.0
    zero_field = rescale(A_BASE, 1.0, 0.0)
    x0 = joule_integrand_x(sys["kernel"], zero_field, 2.0, sgrid)
    assert np.abs(x0.x_l).max() == 0.0


# (system, base pulse, l, the bond kinds other than inside/outside); touching
# needs a site beyond an integer plateau edge, straddling a non-integer edge,
# and the 2x3 box has no site beyond the edge 1, so they take separate cases
PAIR_SUM_CASES = {
    "chain4": (dict(n_sites=4), A_BASE, 2.0, set()),
    "chain5-touching": (dict(n_sites=5), A_BASE, 1.0, {"touching"}),
    "box2x3-straddling": (dict(shape=(2, 3)), BOX_PULSE, 1.5, {"straddling"}),
    "box2x3-face": (dict(shape=(2, 3)), BOX_PULSE, 2.0, {"face"}),
}


@pytest.mark.parametrize("case", PAIR_SUM_CASES)
def test_x_integrand_is_the_bond_pair_sum(case):
    # X_l(s1, s2) = l^-d sum_{b, b'} E_s1(b) E_s2(b') sigma_p(b, b', s1 - s2)
    shape, a_base, l, kinds = PAIR_SUM_CASES[case]
    sys = make_system(kind="iid-uniform", seed=3, theta=0.5, **shape)
    kernel, bonds = sys["kernel"], sys["box"].bonds
    sgrid = np.linspace(0.0, 1.2, 7)
    a_l = rescale(a_base, l, 1.0)
    assert bond_kinds(a_l, bonds) - {"inside", "outside"} == kinds
    e = np.array([[0.0 if a_l.is_off(s) else integrated_field(a_l, s, b) for b in bonds]
                  for s in sgrid])
    want = np.array([[sum(e[i1, ib] * e[i2, jb] * kernel.sigma_p(b, c, s1 - s2)
                          for ib, b in enumerate(bonds) for jb, c in enumerate(bonds))
                      for i2, s2 in enumerate(sgrid)] for i1, s1 in enumerate(sgrid)]) \
        / l ** sys["box"].dim
    x = joule_integrand_x(kernel, a_base, l, sgrid)
    assert np.abs(want).max() > 1e-2
    assert np.abs(x.x_l - want).max() <= 1e-12


def test_x_uniform_bound():
    sys = make_system(5, "iid-uniform", seed=3, theta=0.5)
    sgrid = np.linspace(0.0, 1.5, 16)
    l = 2.0
    x = joule_integrand_x(sys["kernel"], A_BASE, l, sgrid)
    # tight envelope: bond-pair count x field weights x sup |sigma_p|
    a_l = rescale(A_BASE, l, 1.0)
    emax = max(abs(integrated_field(a_l, s, b))
               for s in sgrid for b in sys["box"].bonds)
    smax = 0.0
    for b1 in sys["box"].bonds:
        for b2 in sys["box"].bonds:
            smax = max(smax, np.abs(sys["kernel"].sigma_p(b1, b2, sgrid)).max())
    bound = len(sys["box"].bonds) ** 2 * emax ** 2 * smax / l
    assert np.abs(x.x_l).max() <= bound
    # propagation-estimate envelope with finite-box constants: the true
    # inequality 32 d^2 ||E||^2 (1+theta)^2 (t1-t0) (||F|| D^-1 e^{2 D T Dsup} + 2),
    # rescaled to the l^-d sum-over-unordered-pairs normalization
    from fermicond.model import DecayFunction, full_interaction_norm
    f = DecayFunction(1, "polynomial", epsilon=3.0)
    conv = f.convolution_constant(sys["box"])
    dsup = full_interaction_norm(0.5, sys["ip"], f, sys["box"])
    t0, t1 = A_BASE.t0, A_BASE.t1
    e_sup = max(np.linalg.norm(a_l.electric(s, np.zeros(1))) for s in sgrid)
    d = sys["box"].dim
    envelope = 0.25 * (len(sys["box"]) / l ** d) * 32 * d ** 2 * e_sup ** 2 \
        * (1 + 0.5) ** 2 * (t1 - t0) \
        * (f.norm_1L(sys["box"]) / conv * np.exp(2 * conv * (t1 - t0) * dsup) + 2)
    assert np.isfinite(envelope)
    assert np.abs(x.x_l).max() <= envelope


def test_ip_matches_x_double_integral():
    sys = make_system(7, "deterministic-zero", seed=0)
    times = np.linspace(0.0, 1.5, 61)
    x = joule_integrand_x(sys["kernel"], A_BASE, 2.0, times)
    xx = x.double_integral(1.5)
    diffs = {}
    for eta in (0.08, 0.04):
        tr = run_trace(sys, eta, times=times)
        diffs[eta] = abs(tr.Ip[-1] / (eta ** 2 * 2.0) - xx)
    # remainder budget: O(eta) plus the 2-D Simpson floor
    for eta, diff in diffs.items():
        assert diff <= 0.01 * eta + 2e-6


def test_x_l_converges_to_x_infinity():
    # finite-volume analog of the infinite-volume limit: the deviation from
    # X_inf (built on the largest chain's coefficient) decreases with l
    sgrid = np.linspace(0.0, 1.2, 25)
    ref = make_system(9, "deterministic-zero", seed=0)
    xi_fn = ref["kernel"].xi_p
    errs = []
    for l, n in ((1, 3), (2, 5), (3, 7)):
        sys = make_system(n, "deterministic-zero", seed=0)
        x = joule_integrand_x(sys["kernel"], A_BASE, float(l), sgrid)
        x_inf = flat_pulse_x_infinity(xi_fn, A_BASE, W, sgrid)
        errs.append(np.abs(x.x_l - x_inf).max())
    assert errs[0] > errs[1] > errs[2]


def test_x_infinity_grid_vs_flat_closed_form():
    # midpoint-grid spatial quadrature against the exact separable formula
    ref = make_system(5, "deterministic-zero", seed=0)
    sgrid = np.linspace(0.0, 1.2, 9)
    exact = flat_pulse_x_infinity(ref["kernel"].xi_p, A_BASE, W, sgrid)
    grid = x_infinity(ref["kernel"].xi_p, A_BASE, sgrid, n_space=64)
    assert np.abs(exact - grid).max() <= 1e-9


def test_paramagnetic_density_two_quadratures():
    sys = make_system(7, "deterministic-zero", seed=0)
    times = np.linspace(0.0, 1.5, 61)
    # both quadratures built from the same Xi but along different formulas
    x_inf = flat_pulse_x_infinity(sys["kernel"].xi_p, A_BASE, W, times)
    from fermicond.joule import JouleIntegrand, _double_time_integral
    via_x = _double_time_integral(times, x_inf, 1.5)
    joule = joule_form_ip(sys["kernel"], A_BASE, W, times)[-1]
    rep = paramagnetic_density_check(
        JouleIntegrand(times, x_inf, 1.0), 1.5, joule)
    assert rep["difference"] <= 1e-6
    assert abs(rep["i_p_double_integral"] - via_x) == 0.0


def test_heat_identity_eta_scan():
    sys = make_system(6, "iid-real-hopping", seed=5, theta=0.3, lam=0.5)
    times = np.linspace(0.0, 1.5, 61)
    resids = {}
    for eta in (0.16, 0.04):
        tr = run_trace(sys, eta, times=times, dt=0.005)
        rep = heat_production_identity(tr, sys["kernel"], A_BASE, 2.0, times)
        resids[eta] = rep["max_s_residual"]
        scale = max(np.abs(rep["s_density"]).max(), 1e-30)
        assert rep["max_s_residual"] <= 0.12 * eta * scale
        assert rep["max_p_residual"] <= 0.12 * eta * max(np.abs(rep["p_density"]).max(), scale)
    # O(eta) trend once above the quadrature floor
    assert resids[0.16] > resids[0.04]


def test_diamagnetic_structure_check():
    # flat-profile closed form vs the exact finite-volume coefficient:
    # same <w, Xi_d w> * volume * (1/2)(int E)^2 structure, O(1/l) apart
    rel = []
    for l, n in ((2, 7), (3, 9)):
        sys = make_system(n, "deterministic-zero", seed=0)
        times = np.linspace(0.0, 1.0, 21)
        exact = diamagnetic_density_exact(sys["kernel"], A_BASE, float(l), times)
        flat = diamagnetic_density(sys["kernel"], A_BASE, W, times)
        i = 10  # mid-pulse, where the amplitude peaks
        rel.append(abs(exact[i] - flat[i]) / abs(flat[i]))
        assert rel[-1] <= 0.5 / l
    assert rel[1] < rel[0]
    # Id itself converges to the exact coefficient as eta -> 0
    sys = make_system(7, "deterministic-zero", seed=0)
    times = np.linspace(0.0, 1.0, 21)
    exact = diamagnetic_density_exact(sys["kernel"], A_BASE, 2.0, times)
    tr = run_trace(sys, 0.02, times=times)
    assert abs(tr.Id[10] / (0.02 ** 2 * 2.0) - exact[10]) <= 1e-3 * abs(exact[10]) + 1e-10


def test_correction_term_vanishes_without_response():
    # before the pulse starts nothing responds
    sys = make_system(5, "deterministic-zero", seed=0)
    times = np.linspace(0.0, 1.0, 11)
    corr = correction_term(sys["kernel"], A_BASE, 2.0, times)
    assert corr[0] == 0.0


# the 6-site chain of test_heat_identity_eta_scan and the straddling 2x3 box
ORACLE_CASES = {
    "chain6": (dict(n_sites=6, kind="iid-real-hopping", seed=5, theta=0.3, lam=0.5),
               A_BASE, 2.0),
    "box2x3": (dict(shape=(2, 3), kind="iid-uniform", seed=3, theta=0.5), BOX_PULSE, 1.5),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_correction_and_diamagnetic_terms_match_per_time_oracles(case):
    kwargs, a_base, l = ORACLE_CASES[case]
    kernel = make_system(**kwargs)["kernel"]
    times = np.linspace(0.0, 1.5, 61)
    for fn, oracle in ((correction_term, correction_term_oracle),
                       (diamagnetic_density_exact, diamagnetic_density_exact_oracle)):
        want = oracle(kernel, a_base, l, times)
        got = fn(kernel, a_base, l, times)
        assert np.abs(want).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_grid_functions_need_a_uniform_grid():
    kernel = make_system(4, "iid-uniform", seed=3, theta=0.5)["kernel"]
    geometric = np.geomspace(0.01, 1.5, 16)
    with pytest.raises(ValueError, match="uniform"):
        joule_integrand_x(kernel, A_BASE, 2.0, geometric)
    with pytest.raises(ValueError, match="uniform"):
        correction_term(kernel, A_BASE, 2.0, geometric)
    with pytest.raises(ValueError, match="uniform"):
        flat_pulse_x_infinity(kernel.xi_p, A_BASE, W, geometric)
    with pytest.raises(ValueError, match="uniform"):
        diamagnetic_density(kernel, A_BASE, W, geometric)


def test_x_integrand_memory():
    # no per-time dim x dim stack: dim 256 over 41 grid times stays small
    sys = make_system(8, "iid-uniform", seed=2, theta=0.4, lam=0.8, ip=nn_interaction(0.8))
    assert sys["rep"].dim == 256
    sgrid = np.linspace(0.0, 1.5, 41)
    tracemalloc.start()
    try:
        joule_integrand_x(sys["kernel"], A_BASE, 2.0, sgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20
