"""Occupation-bit assembly against the dense Jordan-Wigner string products.

Every even operator is built from the bits of the basis index (FockRep.hop and
the number diagonals); the string matrices FockRep._annihilator_mats are the
oracle.  Both routes add the same c * (+-1) entries in the same order, so the
comparison is exact equality, not a tolerance.
"""

import functools
from itertools import product

import numpy as np
import pytest

from fermicond.experiments import DEFAULT_BATTERY
from fermicond.fock import FockRep, bilinear, is_even
from fermicond.lattice import Box, DisorderDistribution
from fermicond.model import (InterparticleInteraction, bond_phase, build_hamiltonian,
                             build_hopping, build_w, FlatPulse, potential_diagonal,
                             rescale)
from fermicond.transport import axis_bonds, current_obs, diamagnetic_obs, \
    paramagnetic_partner_obs

from conftest import nn_interaction, peierls_hopping


def dense_bilinear(rep, x, y):
    mats = rep._annihilator_mats
    return mats[rep.mode(x)].conj().T @ mats[rep.mode(y)]


def dense_quadratic(dense, dim, box, one):
    h = np.zeros((dim, dim), dtype=complex)
    for i, x in enumerate(box.sites):
        for j, y in enumerate(box.sites):
            c = one[i, j]
            if c != 0:
                h += c * dense(x, y)
    return h


def dense_interaction(dense, dim, box, ip):
    h = np.zeros((dim, dim), dtype=complex)
    for supp, c in ip.pair_terms(box):
        term = np.eye(dim, dtype=complex)
        for s in supp:
            term = term @ dense(s, s)
        h += c * term
    return h


def dense_parity(rep):
    m = np.array([[1.0]])
    for _ in range(rep.n_sites):
        m = np.kron(m, np.diag([1.0, -1.0]))
    return m


def _battery_cases():
    bat = DEFAULT_BATTERY
    dist = DisorderDistribution("iid-uniform", 20240901)
    for n, theta, lam, kind in product(bat["sites"], bat["thetas"], bat["lambdas"],
                                       bat["interactions"]):
        box = Box.chain(n)
        yield (f"N{n}-th{theta}-l{lam}-{kind}", box, tuple(box.sites),
               dist.derived(n).sample(box), theta, lam,
               InterparticleInteraction(kind, U=1.0 if kind == "hubbard" else 0.0))


def _extra_cases():
    rect = Box.rect((2, 3))
    yield ("rect-2x3", rect, tuple(rect.sites),
           DisorderDistribution("iid-uniform", 5).sample(rect), 0.5, 1.0,
           InterparticleInteraction("hubbard", U=0.7))
    chain = Box.chain(6)
    yield ("density-density", chain, tuple(chain.sites),
           DisorderDistribution("iid-uniform", 6).sample(chain), 0.4, 0.8,
           nn_interaction(0.6, rng=2))
    order = tuple(chain.sites[k] for k in (3, 0, 5, 1, 4, 2))
    yield ("permuted-site-order", chain, order,
           DisorderDistribution("iid-uniform", 7).sample(chain), 0.3, 1.0,
           nn_interaction(0.5))


CASES = list(_battery_cases()) + list(_extra_cases())


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_bit_assembly_equals_dense_strings(case):
    _, box, order, omega, theta, lam, ip = case
    rep = FockRep(order)
    dense = functools.cache(lambda x, y: dense_bilinear(rep, x, y))
    hop = build_hopping(box, omega, theta)
    one = hop + lam * np.diag(potential_diagonal(box, omega))
    h = build_hamiltonian(rep, box, omega, theta, lam, ip)
    assert np.array_equal(h, dense_quadratic(dense, rep.dim, box, one)
                          + dense_interaction(dense, rep.dim, box, ip))

    a = rescale(FlatPulse(box.dim, np.eye(box.dim)[0], 0.0, 1.0, halfwidth=1.0), 2.0, 0.3)
    # plateau edge at 0.75: some bonds lie only partly on the plateau
    straddle = rescale(FlatPulse(box.dim, np.linspace(1, 0.5, box.dim), 0, 1, halfwidth=0.5),
                       1.5, 0.3)
    assert any(0 < straddle._plateau_fraction(*b) < 1 for b in box.bonds)
    for field in (a, straddle):
        for t in (0.0, 0.37, 1.5):  # field off, on, off
            diff = peierls_hopping(hop, box, field, t) - hop
            assert np.array_equal(build_w(rep, box, omega, theta, field, t),
                                  dense_quadratic(dense, rep.dim, box, diff))

    for x, y in box.bonds:
        for bond in ((x, y), (y, x)):
            m = hop[box.index[bond[0]], box.index[bond[1]]] * dense(*bond)
            assert np.array_equal(current_obs(rep, box, [bond], omega, theta),
                                  1j * (m - m.conj().T))
            assert np.array_equal(paramagnetic_partner_obs(rep, box, [bond], omega, theta),
                                  m + m.conj().T)
            ph = np.exp(-1j * bond_phase(a, 0.37, *bond)) - 1.0
            md = ph * hop[box.index[bond[0]], box.index[bond[1]]] * dense(*bond)
            assert np.array_equal(diamagnetic_obs(rep, box, [bond], omega, theta, a, 0.37),
                                  1j * (md - md.conj().T))

    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for s in rep.site_order:
        n_s = dense(s, s)
        assert np.array_equal(rep.number(s), n_s)
        total = total + n_s
    assert np.array_equal(rep.total_number(), total)
    assert np.array_equal(rep.parity_operator(), dense_parity(rep))


def test_w_memoised_bond_data_never_stale():
    # the hop triples live on each FockRep and the bond geometry on each pulse:
    # builds interleaved over three representations, two dilations l whose
    # plateau edges cut different bonds, and several times each match the
    # string oracle of Delta^A - Delta exactly
    chain, rect = Box.chain(6), Box.rect((2, 3))
    permuted = tuple(chain.sites[k] for k in (3, 0, 5, 1, 4, 2))
    theta = 0.4
    systems = []
    for box, order, seed in ((chain, chain.sites, 11), (chain, permuted, 12),
                             (rect, rect.sites, 13)):
        rep = FockRep(order)
        omega = DisorderDistribution("iid-uniform", seed).sample(box)
        dense = functools.cache(lambda x, y, rep=rep: dense_bilinear(rep, x, y))
        systems.append((box, rep, omega, dense, build_hopping(box, omega, theta)))
    pulses = {dim: [rescale(FlatPulse(dim, np.linspace(1.0, 0.5, dim), 0.0, 1.0,
                                       halfwidth=0.5), l, 0.3) for l in (1.5, 3.0)]
              for dim in (1, 2)}
    for box in (chain, rect):
        fractions = [[a._plateau_fraction(*b) for b in box.bonds] for a in pulses[box.dim]]
        assert fractions[0] != fractions[1]
    for t in (0.11, 0.37, 0.5, 0.93):
        for box, rep, omega, dense, hop in systems:
            for a in pulses[box.dim]:
                diff = peierls_hopping(hop, box, a, t) - hop
                assert np.array_equal(build_w(rep, box, omega, theta, a, t),
                                      dense_quadratic(dense, rep.dim, box, diff))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_bond_sums_equal_single_bond_sums(case):
    # distinct bonds have disjoint supports: the scattered sum holds exactly the
    # entries of the single-bond matrices and of the string products
    _, box, order, omega, theta, _, _ = case
    rep = FockRep(order)
    dense = functools.cache(lambda x, y: dense_bilinear(rep, x, y))
    hop = build_hopping(box, omega, theta)
    a = rescale(FlatPulse(box.dim, np.eye(box.dim)[0], 0.0, 1.0, halfwidth=1.0), 2.0, 0.3)

    def dia_obs(rep, box, bonds, omega, theta):
        return diamagnetic_obs(rep, box, bonds, omega, theta, a, 0.37)

    def current(m):
        return 1j * (m - m.conj().T)

    # (observable, bond coefficient from (bond, c_b), oracle of coefficient * a_x1^* a_x2)
    observables = ((current_obs, lambda _, c: c, current),
                   (paramagnetic_partner_obs, lambda _, c: c, lambda m: m + m.conj().T),
                   (dia_obs, lambda b, c: (np.exp(-1j * bond_phase(a, 0.37, *b)) - 1.0) * c,
                    current))
    bond_sets = [axis_bonds(box, k) for k in range(box.dim)] + [list(box.bonds)]
    for bonds in bond_sets:
        assert bonds
        zero = np.zeros((rep.dim, rep.dim), dtype=complex)
        for obs, coef, oracle in observables:
            singles, strings = zero.copy(), zero.copy()
            for bond in bonds:
                singles += obs(rep, box, [bond], omega, theta)
                c = hop[box.index[bond[0]], box.index[bond[1]]]
                strings += oracle(coef(bond, c) * dense(*bond))
            summed = obs(rep, box, bonds, omega, theta)
            assert is_even(summed)
            assert np.array_equal(summed, singles)
            assert np.array_equal(summed, strings)


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (3, 0, 4, 1, 2)])
def test_hop_jordan_wigner_sign(order):
    chain = Box.chain(5)
    rep = FockRep(tuple(chain.sites[k] for k in order))
    mats = rep._annihilator_mats
    eye = np.eye(rep.dim)
    for x, y in product(rep.site_order, repeat=2):
        b = bilinear(rep, x, y, 1.0)
        assert np.array_equal(b, bilinear(rep, y, x, 1.0).conj().T)
        assert np.array_equal(b, dense_bilinear(rep, x, y))
        # CAR: a_x^* a_y + a_y a_x^* = delta_xy
        ax, ay = mats[rep.mode(x)], mats[rep.mode(y)]
        assert np.array_equal(b + ay @ ax.conj().T, (x == y) * eye)
