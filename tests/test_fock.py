from math import comb

import numpy as np
import pytest

from fermicond.fock import (DimensionCapError, FockRep, UnknownSiteError, anticommutator,
                            bilinear, commutator, is_even, number_sectors, opnorm_mat,
                            time_reversal)
from fermicond.lattice import Box, DisorderDistribution
from fermicond.transport import current_obs

from conftest import random_local


def test_single_mode_matrix():
    rep = FockRep.of_box(Box.chain(1))
    a = rep.annihilator((0,))
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_nilpotency_exact():
    rep = FockRep.of_box(Box.chain(2))
    a1 = rep.annihilator(rep.site_order[0])
    assert np.all((a1 @ a1) == 0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_car_relations(n):
    rep = FockRep.of_box(Box.chain(n))
    ann = [rep.annihilator(s) for s in rep.site_order]
    eye = np.eye(rep.dim)
    for i in range(n):
        for j in range(n):
            assert opnorm_mat(anticommutator(ann[i], ann[j])) <= 1e-12
            d = anticommutator(ann[i], ann[j].conj().T) - (i == j) * eye
            assert np.linalg.norm(d, 2) <= 1e-12


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        FockRep.of_box(Box.chain(15))
    FockRep.of_box(Box.chain(15), cap=15)  # override allowed


def test_bilinear_number_operator():
    rep = FockRep.of_box(Box.chain(3))
    n0 = bilinear(rep, (0,), (0,), 1.0)
    evals = np.linalg.eigvalsh(n0)
    assert set(np.round(evals, 12)) == {0.0, 1.0}
    assert is_even(n0)


def test_bilinear_zero_and_trace():
    rep = FockRep.of_box(Box.chain(2))
    assert np.all(bilinear(rep, (0,), (1,), 0.0) == 0)
    # brute force: trace of a_x^dag a_y over the Fock basis vanishes off-diagonal
    b = bilinear(rep, (0,), (1,), 1.0)
    assert abs(np.trace(b)) == 0.0


def test_bilinear_unknown_site():
    rep = FockRep.of_box(Box.chain(2))
    with pytest.raises(UnknownSiteError):
        bilinear(rep, (7,), (0,), 1.0)


def test_commutator_identities():
    rep = FockRep.of_box(Box.chain(2))
    a = rep.annihilator((0,))
    n = rep.number((0,))
    assert opnorm_mat(commutator(a, a)) == 0.0
    # [n_x, a_x] = -a_x
    assert opnorm_mat(commutator(n, a) + a) <= 1e-13
    assert opnorm_mat(rep.identity()) == 1.0


def test_shape_mismatch():
    a = np.eye(2, dtype=complex)
    b = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        commutator(a, b)


def test_parity_classification(rng):
    rep = FockRep.of_box(Box.chain(3))
    a = rep.annihilator((0,))
    assert rep.parity_of(a) == "odd"
    assert rep.parity_of(rep.number((1,))) == "even"
    # product of two odd operators is even
    b = rep.annihilator((1,))
    assert rep.parity_of(a @ b) == "even"
    assert is_even(a @ b)
    assert rep.parity_of(a + rep.number((0,))) == "mixed"


def test_is_even_reads_parity_off_the_entries():
    box = Box.rect((2, 3))
    rep = FockRep.of_box(box)
    omega = DisorderDistribution("iid-uniform", 3).sample(box)
    a, b = rep.annihilator(box.sites[0]), rep.annihilator(box.sites[4])
    assert not is_even(a)
    assert not is_even(a + rep.number(box.sites[0]))
    assert is_even(a @ b) and is_even(a.conj().T @ b)
    assert is_even(rep.total_number()) and is_even(rep.parity_operator())
    for x, y in box.bonds:
        for bond in ((x, y), (y, x)):
            assert is_even(current_obs(rep, box, [bond], omega, 0.5))
    # exact, not up to a tolerance: one tiny entry across parity is enough
    tiny = rep.number(box.sites[1])
    tiny[0, 1] = 1e-300
    assert not is_even(tiny)


def test_annihilators_are_read_only():
    rep = FockRep.of_box(Box.chain(3))
    a = rep.annihilator((0,))
    assert a is rep.annihilator((0,))  # memoised, handed out bare
    with pytest.raises(ValueError):
        a[0, 1] = 2.0


def test_time_reversal_antilinearity():
    rep = FockRep.of_box(Box.chain(2))
    i_op = 1j * rep.identity()
    assert np.allclose(time_reversal(rep, i_op), -1j * np.eye(rep.dim))


def test_time_reversal_fixes_generators():
    rep = FockRep.of_box(Box.chain(3))
    for s in rep.site_order:
        a = rep.annihilator(s)
        assert opnorm_mat(time_reversal(rep, a) - a) == 0.0
    # real bilinears are fixed points
    b = bilinear(rep, (-1,), (0,), 1.0) + bilinear(rep, (0,), (-1,), 1.0)
    assert opnorm_mat(time_reversal(rep, b) - b) == 0.0


def test_time_reversal_morphism_properties(rng):
    rep = FockRep.of_box(Box.chain(3))
    for _ in range(5):
        b1 = random_local(rng, rep)
        b2 = random_local(rng, rep)
        lhs = time_reversal(rep, b1 @ b2)
        rhs = time_reversal(rep, b1) @ time_reversal(rep, b2)
        assert opnorm_mat(lhs - rhs) <= 1e-12 * max(1.0, opnorm_mat(b1) * opnorm_mat(b2))
        # T(B*) = T(B)*
        adjoint_first = time_reversal(rep, b1.conj().T)
        assert opnorm_mat(adjoint_first - time_reversal(rep, b1).conj().T) <= 1e-13
        # involution
        assert opnorm_mat(time_reversal(rep, time_reversal(rep, b1)) - b1) == 0.0


def test_adjoint_involution(rng):
    rep = FockRep.of_box(Box.chain(2))
    b = random_local(rng, rep)
    assert opnorm_mat(b.conj().T.conj().T - b) == 0.0


def test_number_sectors_partition_by_popcount():
    rep = FockRep.of_box(Box.chain(8))
    sectors = number_sectors(rep.dim)
    assert [len(idx) for idx in sectors] == [comb(8, k) for k in range(9)]
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(rep.dim))
    total = np.diag(rep.total_number()).real
    for k, idx in enumerate(sectors):
        assert np.all(total[idx] == k)
    assert number_sectors(rep.dim) is sectors  # cached per dim
    assert [len(idx) for idx in number_sectors(12)] == [12]  # not a power of two
