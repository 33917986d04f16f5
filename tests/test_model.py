import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from fermicond.fock import FockRep, is_even, opnorm_mat
from fermicond.lattice import Box, DisorderDistribution, DisorderSample, LatticeSpec
from fermicond.model import (BoundaryProximityWarning, DecayFunction,
                             InterparticleInteraction,
                             bond_phase, build_hamiltonian, build_hopping, build_w,
                             check_field_margin, decay_checks,
                             FlatPulse, full_interaction_norm, integrated_field,
                             interaction_norm, potential_diagonal,
                             rescale, w_time_derivative)

from conftest import nn_interaction, peierls_hopping


def clean(box):
    return DisorderDistribution("deterministic-zero", 0).sample(box)


def test_clean_chain_tridiagonal():
    box = Box.cube(LatticeSpec(1, 1))
    h = build_hopping(box, clean(box), 0.0)
    expect = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=complex)
    assert np.array_equal(h, expect)


def test_destructive_hopping_disorder():
    box = Box.chain(4)
    o2 = {b: complex(-1.0) for b in box.bonds}
    s = DisorderSample(box, {}, o2)
    h = build_hopping(box, s, 1.0)
    assert np.all(h == np.diag(np.full(4, 2.0)))


def test_hopping_selfadjoint_d2():
    box = Box.cube(LatticeSpec(2, 1))
    s = DisorderDistribution("iid-uniform", 4).sample(box)
    h = build_hopping(box, s, 0.7)
    # self-adjointness oracle: direct conjugate-transpose comparison
    assert np.linalg.norm(h - h.conj().T, 2) <= 1e-14 * np.linalg.norm(h, 2)
    assert np.all(np.abs(np.linalg.eigvalsh(h).imag) == 0.0)
    assert np.all(np.diag(h) == 4.0)
    for (x, y) in box.bonds:
        assert abs(h[box.index[x], box.index[y]]) <= 1 + 0.7 + 1e-12


def test_hopping_covariant_under_translation():
    big = Box.chain(9)
    s = DisorderDistribution("iid-uniform", 8).sample(big)
    small = Box.chain(5)
    shifted = Box(1, [(x[0] + 1,) for x in small.sites])
    h_direct = build_hopping(shifted, s.restrict(shifted), 0.5)
    h_translated = build_hopping(small, s.translate((1,)).restrict(small), 0.5)
    assert np.array_equal(h_direct, h_translated)


# -- vector potentials -------------------------------------------------------

def test_peierls_zero_field_identity():
    box = Box.chain(4)
    h = build_hopping(box, clean(box), 0.0)
    a = FlatPulse(1, [1.0], 0.0, 1.0)
    assert np.array_equal(peierls_hopping(h, box, a, 2.0), h)  # field off
    zero = rescale(a, 1.0, 0.0)
    assert np.allclose(peierls_hopping(h, box, zero, 0.5), h)


def test_peierls_constant_potential_phase():
    box = Box.chain(3)
    h = build_hopping(box, clean(box), 0.0)
    aval = 0.37
    a = FlatPulse(1, [aval], 0.0, 1.0, halfwidth=10.0)
    assert a(0.5, [0.0])[0] == aval  # env(0.5) = 1 exactly
    hp = peierls_hopping(h, box, a, 0.5)
    i, j = box.index[(0,)], box.index[(1,)]
    # hop x -> x+1 multiplied by e^{i a}
    assert np.allclose(hp[i, j], h[i, j] * np.exp(1j * aval))
    assert np.allclose(hp[j, i], h[j, i] * np.exp(-1j * aval))
    assert np.allclose(np.abs(hp[i, j]), np.abs(h[i, j]))  # |phase| = 1
    assert np.linalg.norm(hp - hp.conj().T, 2) == 0.0


def test_peierls_gauge_invariance():
    # A = grad(phi) is unitarily equivalent to A = 0 via diag(e^{i phi});
    # the bonds (-2, -1) and (1, 2) straddle the plateau edge at +-1.5
    box = Box.chain(5)
    h = build_hopping(box, clean(box), 0.0)

    def phi(x):
        return 0.6 * np.clip(x, -1.5, 1.5)

    a = FlatPulse(1, [0.6], 0.0, 1.0, halfwidth=1.5)
    hp = peierls_hopping(h, box, a, 0.5)
    d = np.diag([np.exp(-1j * phi(x[0])) for x in box.sites])
    oracle = d @ h @ d.conj().T
    assert np.linalg.norm(hp - oracle, 2) <= 1e-9


def test_electric_field_analytic_vs_fd():
    a = FlatPulse(1, [1.0], 0.0, 2.0)
    for t in (0.3, 0.9, 1.4):
        fd = -(a(t + 1e-5, [0.0]) - a(t - 1e-5, [0.0])) / 2e-5
        an = a.electric(t, [0.0])
        assert abs(fd[0] - an[0]) <= 1e-8
    assert np.all(a.electric(5.0, [0.0]) == 0.0)


def test_ac_condition():
    # integral of E over the full pulse vanishes (compact time support)
    a = FlatPulse(1, [1.0], 0.0, 1.5)
    val, _ = quad(lambda s: a.electric(s, np.zeros(1))[0], 0.0, 1.5, limit=200)
    assert abs(val) <= 1e-10
    a2 = FlatPulse(1, [1.0], 0.0, 1.5, envelope="gauss")
    val2, _ = quad(lambda s: a2.electric(s, np.zeros(1))[0], 0.0, 1.5, limit=200)
    assert abs(val2) <= 1e-6  # gauss envelope is truncated at ~1e-7 amplitude


def test_integrated_field_flat_pulse():
    a = FlatPulse(1, [1.0], 0.0, 1.0)
    t = 0.25
    eps = a.electric(t, np.zeros(1))[0]
    # along +e1 the integrated field is exactly eps; reversed bond flips sign
    assert abs(integrated_field(a, t, ((0,), (1,))) - eps) <= 1e-10
    assert abs(integrated_field(a, t, ((1,), (0,))) + eps) <= 1e-10


def test_rescale():
    a = FlatPulse(1, [1.0], 0.0, 1.0)
    same = rescale(a, 1.0, 1.0)
    assert np.allclose(same(0.4, [0.3]), a(0.4, [0.3]))
    big = rescale(a, 3.0, 1.0)
    assert big.spatial_halfwidth == 3.0
    assert np.allclose(big(0.4, [2.5]), a(0.4, [2.5 / 3.0]))
    assert np.all(big(0.4, [3.5]) == 0.0)
    off = rescale(a, 2.0, 0.0)
    assert np.all(off(0.4, [0.5]) == 0.0)
    with pytest.raises(ValueError):
        rescale(a, 0.0, 1.0)


def test_bond_phase_antisymmetry():
    a = FlatPulse(1, [1.0], 0.0, 1.0)
    assert abs(bond_phase(a, 0.3, (0,), (1,)) + bond_phase(a, 0.3, (1,), (0,))) <= 1e-12


def _quad_along_bond(fx):
    """Adaptive quadrature of fx over the bond parameter alpha in [0, 1]."""
    val, err = quad(fx, 0.0, 1.0, epsabs=1e-10, epsrel=1e-12, limit=200)
    assert err <= 1e-9 + 1e-13 * abs(val)
    return val


def _bond_kind(a, x, y):
    """inside / touching / straddling / outside, from the pointwise plateau rule."""
    def inside(p):
        return np.all(np.abs(np.asarray(p, dtype=float) / a.scale) <= a.halfwidth + 1e-12)

    if inside(x) and inside(y):
        return "inside"
    if not (inside(x) or inside(y)):
        return "outside"
    p = x if inside(x) else y
    k = int(np.flatnonzero(np.subtract(y, x))[0])
    on_edge = abs(abs(p[k] / a.scale) - a.halfwidth) <= 1e-12
    return "touching" if on_edge else "straddling"


@pytest.mark.parametrize("envelope", ["sin2", "gauss"])
@pytest.mark.parametrize("l", [1.0, 1.3, 1.5, 2.0, 8.0])
@pytest.mark.parametrize("box,halfwidth,w,edge_kind", [
    (Box.chain(8), 1.0, [1.0], {1.0: "touching", 1.3: "straddling", 1.5: "straddling",
                                 2.0: "touching"}),
    (Box.rect([2, 3]), 0.5, [1.0, -0.4], {1.0: "straddling", 1.3: "straddling",
                                          1.5: "straddling"}),
    (Box.rect([2, 3]), 1.0, [1.0, 0.0], {}),  # bonds in the plateau's boundary faces
    # a plateau edge near the origin, where 1 - (1 - f) != f in floating point
    (Box.chain(8), 0.1, [1.0], dict.fromkeys([1.0, 1.3, 1.5, 2.0, 8.0], "straddling")),
], ids=["chain8", "box2x3", "box2x3-face", "chain8-narrow"])
def test_closed_form_phase_and_field_vs_quadrature(box, halfwidth, w, edge_kind, l,
                                                   envelope):
    a = rescale(FlatPulse(box.dim, w, 0.0, 1.0, halfwidth=halfwidth, envelope=envelope),
                l, 0.3)
    kinds = set()
    for t in (-0.2, 0.0, 0.13, 0.5, 0.77, 1.0, 1.3):
        for bond in box.bonds:
            for x, y in (bond, bond[::-1]):
                xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
                phase, efield = bond_phase(a, t, x, y), integrated_field(a, t, (x, y))
                assert phase == -bond_phase(a, t, y, x)
                assert efield == -integrated_field(a, t, (y, x))
                ref_phase = _quad_along_bond(
                    lambda al: float(np.dot(a(t, al * yv + (1 - al) * xv), yv - xv)))
                ref_efield = _quad_along_bond(
                    lambda al: float(np.dot(a.electric(t, al * yv + (1 - al) * xv), yv - xv)))
                kind = _bond_kind(a, x, y)
                kinds.add(kind)
                for got, ref in ((phase, ref_phase), (efield, ref_efield)):
                    if kind == "inside":
                        assert abs(got - ref) <= 4 * np.spacing(abs(ref))
                    elif kind == "straddling":
                        assert abs(got - ref) <= 1e-10
                    else:
                        assert got == 0.0 and ref == 0.0
    assert kinds - {"inside", "outside"} == ({edge_kind[l]} if l in edge_kind else set())


def test_field_margin_warning():
    box = Box.chain(5)
    a = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=2.0)
    with pytest.warns(BoundaryProximityWarning):
        check_field_margin(a, box, InterparticleInteraction("none"))


# -- many-body Hamiltonians --------------------------------------------------

def subset_sums(evals):
    out = []
    for r in range(len(evals) + 1):
        for comb in itertools.combinations(evals, r):
            out.append(sum(comb))
    return np.sort(np.array(out))


def test_free_spectrum_subset_sums():
    box = Box.chain(5)
    rep = FockRep.of_box(box)
    s = DisorderDistribution("iid-uniform", 2).sample(box)
    h = build_hamiltonian(rep, box, s, 0.4, 0.8, InterparticleInteraction("none"))
    many = np.sort(np.linalg.eigvalsh(h))
    one = np.linalg.eigvalsh(build_hopping(box, s, 0.4)
                             + 0.8 * np.diag(potential_diagonal(box, s)))
    assert np.allclose(many, subset_sums(one), atol=1e-10)


def test_hubbard_onsite_shift():
    # on-site U: many-body spectrum = subset sums of (one-particle + U)
    box = Box.chain(3)
    rep = FockRep.of_box(box)
    s = clean(box)
    u = 1.3
    h = build_hamiltonian(rep, box, s, 0.0, 0.0, InterparticleInteraction("hubbard", U=u))
    one = np.linalg.eigvalsh(build_hopping(box, s, 0.0)) + u
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), subset_sums(one), atol=1e-10)


def test_density_density_two_site_brute_force():
    # 2-site 4x4 oracle built from raw kron matrices
    box = Box.chain(2)
    rep = FockRep.of_box(box)
    s = clean(box)
    u = 0.9
    h = build_hamiltonian(rep, box, s, 0.0, 0.0, nn_interaction(u))
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0])
    a0 = np.kron(sm, np.eye(2))
    a1 = np.kron(sz, sm)
    hop = -(a0.conj().T @ a1 + a1.conj().T @ a0) + 2.0 * (a0.conj().T @ a0 + a1.conj().T @ a1)
    oracle = hop + u * (a0.conj().T @ a0) @ (a1.conj().T @ a1)
    assert np.linalg.norm(h - oracle, 2) <= 1e-13


def test_gauge_invariance_of_interacting_h():
    box = Box.chain(4)
    rep = FockRep.of_box(box)
    s = DisorderDistribution("iid-uniform", 6).sample(box)
    h = build_hamiltonian(rep, box, s, 0.5, 1.0, nn_interaction(1.0))
    n_tot = rep.total_number()
    comm = h @ n_tot - n_tot @ h
    assert np.linalg.norm(comm, 2) <= 1e-12 * np.linalg.norm(h, 2)
    assert is_even(h)
    assert rep.parity_of(h) == "even"


def test_build_w_zero_cases():
    box = Box.chain(4)
    rep = FockRep.of_box(box)
    s = clean(box)
    a = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=4.0)
    zero = rescale(a, 1.0, 0.0)
    assert opnorm_mat(build_w(rep, box, s, 0.0, zero, 0.5)) <= 1e-12
    assert np.all(build_w(rep, box, s, 0.0, a, 1.5) == 0.0)  # after t1
    w = build_w(rep, box, s, 0.0, a, 0.5)
    assert np.linalg.norm(w - w.conj().T, 2) <= 1e-12


def test_build_w_linear_in_field():
    box = Box.chain(4)
    rep = FockRep.of_box(box)
    s = clean(box)
    a = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=4.0)
    norms = []
    etas = [1e-3, 1e-2, 1e-1]
    for eta in etas:
        norms.append(opnorm_mat(build_w(rep, box, s, 0.0, rescale(a, 1.0, eta), 0.5)))
    slope = np.polyfit(np.log(etas), np.log(norms), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_w_time_derivative_fd():
    box = Box.chain(4)
    rep = FockRep.of_box(box)
    s = clean(box)
    a = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=4.0)
    dw = w_time_derivative(rep, box, s, 0.0, a, 0.5)
    h = 1e-4
    oracle = (build_w(rep, box, s, 0.0, a, 0.5 + h)
              - build_w(rep, box, s, 0.0, a, 0.5 - h)) / (2 * h)
    assert np.linalg.norm(dw - oracle, 2) <= 1e-5


# -- decay functions and interaction norms ------------------------------------

def test_decay_norm_vs_zeta_sum():
    # F(r) = (1+r)^-3 on a chain of radius 100 vs the analytic zeta sum
    f = DecayFunction(1, "polynomial", epsilon=2.0)
    box = Box.cube(LatticeSpec(1, 100))
    finite = f.norm_1L(box)
    analytic = 1.0 + 2.0 * (zeta(3.0) - 1.0)
    # tail bound: 2 * sum_{r > 100} (1+r)^-3 <= integral
    tail = 1.0 / (101.0 ** 2)
    assert finite <= analytic + 1e-12
    assert analytic - finite <= tail


def test_decay_checks_conditions():
    box = Box.cube(LatticeSpec(1, 8))
    rep_poly = decay_checks(DecayFunction(1, "polynomial", epsilon=3.0), box)
    assert rep_poly["meets_2d"] and not rep_poly["meets_3d"]
    rep_exp = decay_checks(DecayFunction(1, "exponential", epsilon=1.0), box)
    assert rep_exp["meets_2d"] and rep_exp["meets_3d"]
    assert rep_poly["convolution_constant"] >= 1.0


@pytest.mark.parametrize("sigma", [-3.0, 0.0])
def test_decay_rejects_a_nonpositive_rate(sigma):
    # exp(-sigma r) with sigma <= 0 does not decay
    with pytest.raises(ValueError, match="sigma"):
        DecayFunction(1, "exponential", sigma=sigma)


def test_interaction_norm_none_and_hubbard():
    f = DecayFunction(1, "polynomial", epsilon=2.0)
    box = Box.chain(7)
    assert interaction_norm(InterparticleInteraction("none"), f, box) == 0.0
    u = 1.7
    # brute-force the sup: only the singleton at x = y contributes
    val = interaction_norm(InterparticleInteraction("hubbard", U=u), f, box)
    assert abs(val - u / f(0.0)) <= 1e-12


def test_interaction_norm_nn_brute_force():
    f = DecayFunction(1, "polynomial", epsilon=2.0)
    box = Box.chain(7)
    u = 1.0
    val = interaction_norm(nn_interaction(u), f, box)
    # brute force: x=y interior -> 2u/F(0); nearest pair -> u/F(1)
    oracle = max(2 * u / f(0.0), u / f(1.0))
    assert abs(val - oracle) <= 1e-12


def test_full_interaction_norm_dominates():
    f = DecayFunction(1, "polynomial", epsilon=2.0)
    box = Box.chain(5)
    base = full_interaction_norm(0.0, InterparticleInteraction("none"), f, box)
    withu = full_interaction_norm(0.5, nn_interaction(1.0), f, box)
    assert withu > base > 0.0


def test_interaction_translation_covariance():
    # pair supports translate with the box (Eq.-style covariance of the family)
    ip = nn_interaction(0.7, rng=2)
    box = Box.chain(5)
    shifted = Box(1, [(x[0] + 3,) for x in box.sites])
    base = sorted((tuple(sorted(supp)), c) for supp, c in ip.pair_terms(box))
    moved = sorted((tuple(sorted(tuple((s[0] - 3,) for s in supp))), c)
                   for supp, c in ip.pair_terms(shifted))
    assert base == moved
