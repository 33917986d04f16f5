"""Number-sector route of the spectral primitives against the dense route.

H, the bond observables and the Gibbs data are exactly zero off the
particle-number sectors, so eigh, the basis changes, spectral norms and
commutators run block by block.  The oracle is a SpectralData whose U is
the one block of a plain np.linalg.eigh, evaluated with the sector detector
switched off (dense_route), which is the path every operator that mixes
sectors keeps.
Eigenbases differ inside degenerate subspaces, so the two routes are compared
on basis-invariant quantities (spectra, reconstructions, tau_t, rho, norms,
merged atoms) or on the same U.
"""

import functools
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from fermicond import fock
from fermicond.equilibrium import (GibbsState, SpectralData, drive_layout, evolve,
                                   heisenberg, lieb_robinson_check)
from fermicond.experiments import DEFAULT_BATTERY
from fermicond.fock import FockRep, commutator, opnorm_mat, sector_layout
from fermicond.lattice import Box, DisorderDistribution, shift
from fermicond.model import (InterparticleInteraction, build_hamiltonian, build_w,
                             FlatPulse, rescale)
from fermicond.transport import TransportKernel, current_obs

TOL = 1e-12


def _cases():
    bat = DEFAULT_BATTERY
    dist = DisorderDistribution("iid-uniform", 20240901)
    cases = {}
    for n, theta, lam, kind in product(bat["sites"], bat["thetas"], bat["lambdas"],
                                       bat["interactions"]):
        box = Box.chain(n)
        cases[f"N{n}-th{theta}-l{lam}-{kind}"] = (
            box, dist.derived(n).sample(box), theta, lam,
            InterparticleInteraction(kind, U=1.0 if kind == "hubbard" else 0.0))
    rect = Box.rect((2, 3))
    cases["rect-2x3"] = (rect, DisorderDistribution("iid-uniform", 5).sample(rect), 0.5,
                         1.0, InterparticleInteraction("hubbard", U=0.7))
    return cases


CASES = _cases()


@contextmanager
def dense_route():
    """Every operator primitive on its dense path: no sector layout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "number_layout", lambda dim: None)
        yield


@functools.cache
def _system(label):
    box, omega, theta, lam, ip = CASES[label]
    rep = FockRep.of_box(box)
    h = build_hamiltonian(rep, box, omega, theta, lam, ip)
    bonds = [(shift(x, e), x) for e in np.eye(box.dim, dtype=int) for x in box.sites
             if shift(x, e) in box.index]
    b1, b2 = (current_obs(rep, box, [b], omega, theta) for b in (bonds[0], bonds[-1]))
    return {"box": box, "rep": rep, "omega": omega, "theta": theta, "h": h,
            "bonds": (bonds[0], bonds[-1]), "b1": b1, "b2": b2,
            "sd": SpectralData.from_hamiltonian(h)}


def _oracle(sys):
    """Plain eigh, U as one block; use it only inside dense_route."""
    evals, evecs = np.linalg.eigh(sys["h"])
    return SpectralData(evals, (evecs,), np.arange(len(evals)), "dense")


def _off_sector(dim):
    n = np.bitwise_count(np.arange(dim))
    return n[:, None] != n[None, :]


@pytest.mark.parametrize("label", CASES)
def test_sector_spectrum_and_reconstruction(label):
    sys = _system(label)
    sd, h = sys["sd"], sys["h"]
    # the sector route was taken: one eigh block per sector, as eigh returned it
    assert sd.layout is sector_layout(h)
    assert [uk.shape for uk in sd.blocks] == [(len(g), len(g)) for g in sd.layout.groups]
    n = np.bitwise_count(np.arange(sd.dim))
    u = sd.dense_u()
    # each eigenvector lives in one sector: U is exactly zero elsewhere
    sector_of = [int(n[np.flatnonzero(col)[0]]) for col in u.T]
    assert not np.any(u[n[:, None] != np.array(sector_of)[None, :]])
    assert np.all(np.diff(sd.eigenvalues) >= 0)
    with dense_route():
        oracle = _oracle(sys)
        assert np.abs(sd.eigenvalues - oracle.eigenvalues).max() <= TOL
    assert np.abs((u * sd.eigenvalues) @ u.conj().T - h).max() <= TOL
    assert np.abs(u.conj().T @ u - np.eye(sd.dim)).max() <= TOL


@pytest.mark.parametrize("label", CASES)
def test_sector_basis_changes_and_heisenberg(label):
    sys = _system(label)
    sd, b = sys["sd"], sys["b1"]
    u = sd.dense_u()
    bt = sd.to_eigenbasis(b)
    assert np.abs(bt - u.conj().T @ b @ u).max() <= TOL
    assert np.abs(sd.from_eigenbasis(bt) - b).max() <= TOL
    evolved = heisenberg(b, 0.7, sd)
    assert not np.any(evolved[_off_sector(sd.dim)])
    with dense_route():
        ref = heisenberg(b, 0.7, _oracle(sys))
    assert np.abs(evolved - ref).max() <= TOL


@pytest.mark.parametrize("label", CASES)
def test_sector_gibbs_density(label):
    sys = _system(label)
    for beta in DEFAULT_BATTERY["betas"]:
        rho = GibbsState.of(sys["sd"], beta).density
        assert sector_layout(rho) is not None
        with dense_route():
            ref = GibbsState.of(_oracle(sys), beta).density
        assert np.abs(rho - ref).max() <= TOL


@pytest.mark.parametrize("label", CASES)
def test_sector_norms_commutators_and_lieb_robinson(label):
    sys = _system(label)
    h, b1, b2 = sys["h"], sys["b1"], sys["b2"]
    for op in (h, b1, b2, b1 @ b2):
        assert abs(opnorm_mat(op) - np.linalg.norm(op, 2)) <= TOL * max(
            1.0, np.linalg.norm(op, 2))
    for a, b in ((h, b1), (b1, b2), (b1 @ b2, h)):
        assert np.abs(commutator(a, b) - (a @ b - b @ a)).max() <= TOL
    supp1, supp2 = sys["bonds"]
    args = (b1, supp1, b2, supp2, 1.3)
    bound = (lambda r: 1.0, 1.0, 1.0)
    lhs = lieb_robinson_check(*args, sys["sd"], *bound)["lhs"]
    with dense_route():
        ref = lieb_robinson_check(*args, _oracle(sys), *bound)["lhs"]
    assert abs(lhs - ref) <= TOL


@pytest.mark.parametrize("label", CASES)
def test_sector_kernel_atoms(label):
    sys = _system(label)
    args = (sys["rep"], sys["box"], sys["omega"], sys["theta"])
    k = TransportKernel(*args, GibbsState.of(sys["sd"], 1.0))
    with dense_route():
        ref = TransportKernel(*args, GibbsState.of(_oracle(sys), 1.0))
    assert k.atom_nu.shape == ref.atom_nu.shape and len(k.atom_nu) > 0
    for name in ("atom_nu", "atom_sym", "atom_asym", "zero_weight", "zero_weight_nu2"):
        assert np.abs(getattr(k, name) - getattr(ref, name)).max() <= TOL, name


def _drive(sys, layout=None):
    """t -> H + W_t for a pulse over the whole chain: dense, or with a layout
    the tuple of its blocks, as the driven callers build it."""
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=6.0), 2.0, 0.4)
    args = (sys["rep"], sys["box"], sys["omega"], sys["theta"], a)
    if layout is None:
        return lambda t: sys["h"] + build_w(*args, t)
    h_blocks = layout.gather(sys["h"])
    return lambda t: tuple(hk + wk for hk, wk in zip(h_blocks, build_w(*args, t, layout)))


def test_sector_driven_density_matches_dense():
    sys = _system("N6-th0.5-l1.0-hubbard")
    grid, dt = np.linspace(0.0, 1.2, 7), 0.05

    def keep(t, rho):
        return rho

    rho0 = GibbsState.of(sys["sd"], 1.0).density
    layout = drive_layout(sys["h"], rho0)
    assert layout is fock.sector_layout(sys["h"])
    rhos = evolve(rho0, _drive(sys, layout), grid, dt, keep, layout=layout)
    with dense_route():
        refs = evolve(GibbsState.of(_oracle(sys), 1.0).density, _drive(sys), grid, dt, keep)
    for rho, ref in zip(rhos, refs):
        assert sector_layout(rho) is not None
        assert np.abs(rho - ref).max() <= TOL


# -- the in-pulse loop on number-sector blocks, bit for bit ---------------------

def _pulsed_chain(n_sites):
    """The drive workload's kind of system: an interacting disordered chain
    at beta = 1 and a pulse over every bond."""
    box = Box.chain(n_sites)
    rep = FockRep.of_box(box)
    omega = DisorderDistribution("iid-uniform", 11).sample(box)
    ip = InterparticleInteraction("density-density", U=1.0, v=lambda r: 1.0, range_=1)
    h = build_hamiltonian(rep, box, omega, 0.5, 1.0, ip)
    state = GibbsState.of(SpectralData.from_hamiltonian(h), 1.0)
    a = rescale(FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0), float(n_sites), 0.04)
    return rep, box, omega, ip, h, state, a


@pytest.mark.parametrize("n_sites", [6, 8])
def test_build_w_blocks_join_to_the_dense_scatter(n_sites):
    rep, box, omega, _, h, _, a = _pulsed_chain(n_sites)
    layout = fock.sector_layout(h)
    whole = fock.whole_layout(rep.dim)
    for t in (0.0, 0.3, 0.5, 1.0):  # off, on, on, off
        dense = build_w(rep, box, omega, 0.5, a, t)
        blocks = build_w(rep, box, omega, 0.5, a, t, layout)
        assert [b.shape for b in blocks] == [(len(g), len(g)) for g in layout.groups]
        assert np.array_equal(layout.join(blocks), dense)
        assert np.array_equal(build_w(rep, box, omega, 0.5, a, t, whole)[0], dense)


@pytest.mark.parametrize("n_sites", [6, 8])
def test_block_step_equals_the_dense_generator_step(n_sites):
    # the step on the blocks is the step the dense generators gave when their
    # sector blocks were cut out of them: the same eigh inputs, bit for bit
    from fermicond.equilibrium import _CF4_A, _CF4_C, _expm_herm, step_unitary
    rep, box, omega, _, h, state, a = _pulsed_chain(n_sites)
    layout = drive_layout(h, state.density)
    assert layout is fock.sector_layout(h)
    h_blocks = layout.gather(h)

    def blocks_of_t(t):
        return tuple(hk + wk for hk, wk in zip(h_blocks, build_w(rep, box, omega, 0.5, a, t,
                                                                  layout)))

    (c1, c2), (a1, a2) = _CF4_C, _CF4_A
    for t, dt in ((0.0, 0.04), (0.37, 0.04), (0.98, 0.03)):
        h1, h2 = (h + build_w(rep, box, omega, 0.5, a, t + c * dt) for c in (c1, c2))
        g1, g2 = a1 * h1 + a2 * h2, a2 * h1 + a1 * h2
        u = step_unitary(blocks_of_t, t, dt)
        assert len(u) == len(layout.grids)
        for uk, ix in zip(u, layout.grids):
            assert np.array_equal(uk, _expm_herm(g1[ix], dt) @ _expm_herm(g2[ix], dt))


def test_driven_path_scans_a_fixed_number_of_times(monkeypatch):
    # the sector decision is made once per drive: no step scans for exact zeros
    from fermicond import equilibrium
    from fermicond.joule import energy_increments
    from fermicond.transport import driven_currents
    rep, box, omega, ip, h, state, a = _pulsed_chain(6)
    calls = {"scans": 0, "steps": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    scan = counted("scans", fock.sector_layout)  # every scan goes through it
    monkeypatch.setattr(fock, "sector_layout", scan)
    monkeypatch.setattr(equilibrium, "sector_layout", scan)
    monkeypatch.setattr(equilibrium, "step_unitary", counted("steps", equilibrium.step_unitary))
    base = FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    times = np.linspace(0.0, 1.5, 16)
    seen = set()
    for dt in (0.1, 0.05, 0.02):
        calls.update(scans=0, steps=0)
        driven_currents(rep, box, omega, 0.5, 1.0, ip, state, a, times, dt)
        energy_increments(rep, box, omega, 0.5, 1.0, ip, state, base, 0.04, 6.0, times, dt,
                          warn_margin=False)
        assert calls["steps"] > 0
        seen.add((calls["scans"], calls["steps"]))
    assert len({scans for scans, _ in seen}) == 1
    assert len({steps for _, steps in seen}) == 3


def test_number_conserving_paths_build_no_dense_u(tmp_path, monkeypatch):
    # U is held as its sector blocks; on a number-conserving chain no basis
    # change needs the dense U, from the cached build to every analysis
    from fermicond.config import ExperimentConfig
    from fermicond.experiments import build_system
    from fermicond.joule import energy_increments
    from fermicond.transport import driven_currents, green_kubo_residual

    def refuse(self):
        raise AssertionError("dense U built for a number-conserving operand")

    monkeypatch.setattr(SpectralData, "dense_u", refuse)
    cfg = ExperimentConfig.from_dict({
        "model": {"d": 1, "sites": 6, "theta": 0.5, "lambda": 1.0, "beta": 1.0,
                  "interaction": "density-density", "U": 1.0, "range": 1},
        "disorder": {"kind": "iid-uniform", "seed": 11, "n_samples": 1},
        "run": {"cache_dir": str(tmp_path / "cache")}})
    build_system(cfg, 0)  # a miss: eigh, put
    system = build_system(cfg, 0)  # a hit: get
    rep, box, omega, state, kernel = (system.rep, system.box, system.omega, system.state,
                                      system.kernel)
    assert len(system.spectral.blocks) == rep.n_sites + 1
    times = np.linspace(0.0, 1.5, 7)
    kernel.series(times)
    first, last = (box.sites[1], box.sites[0]), (box.sites[5], box.sites[4])
    kernel.sigma_p(first, last, times)
    kernel.sigma_d(first)
    ip, base = cfg.model.ip(), FlatPulse(1, [1.0], 0.0, 1.0, halfwidth=1.0)
    driven_currents(rep, box, omega, 0.5, 1.0, ip, state, rescale(base, 6.0, 0.04),
                    times, 0.05)
    energy_increments(rep, box, omega, 0.5, 1.0, ip, state, base, 0.04, 6.0, times, 0.05,
                      warn_margin=False)
    b1, b2 = (current_obs(rep, box, [b], omega, 0.5) for b in (first, last))
    lieb_robinson_check(b1, first, b2, last, 0.3, system.spectral, lambda r: 1.0, 1.0, 1.0)
    green_kubo_residual(kernel, times)


# -- the dense route stays the general case ------------------------------------

def test_number_changing_terms_take_dense_route():
    sys = _system("N6-th0.5-l1.0-hubbard")
    sd, h, b1 = sys["sd"], sys["h"], sys["b1"]
    a = sys["rep"].annihilator(sys["rep"].site_order[2])
    odd = 0.3 * (a + a.conj().T)  # changes the particle number by one
    assert sector_layout(odd) is None
    # in H: one full eigh, whose U is the one block
    mixed = SpectralData.from_hamiltonian(h + odd)
    evals, evecs = np.linalg.eigh(h + odd)
    assert np.array_equal(mixed.eigenvalues, evals)
    assert len(mixed.blocks) == 1 and np.array_equal(mixed.blocks[0], evecs)
    assert mixed.layout is fock.whole_layout(len(h))
    # in an operand: dense basis changes (U built on demand), norms and commutators
    op = b1 + odd
    u = sd.dense_u()
    assert np.array_equal(sd.to_eigenbasis(op), u.conj().T @ op @ u)
    assert opnorm_mat(op) == float(np.linalg.norm(op, 2))
    assert np.array_equal(commutator(h, op), h @ op - op @ h)
    evolved = heisenberg(op, 0.7, sd)
    with dense_route():
        ref = heisenberg(op, 0.7, _oracle(sys))
    assert np.abs(evolved - ref).max() <= TOL
    # driven by a number-changing generator: one-block steps, dense rho update
    h_of_t = _drive(sys)

    def h_mixed(t):
        return h_of_t(t) + odd

    rho = GibbsState.of(sd, 1.0).density
    grid = [0.0, 0.3]
    out = evolve(rho, h_mixed, grid, 0.05, lambda t, r: r)[-1]
    with dense_route():
        ref = evolve(rho, h_mixed, grid, 0.05, lambda t, r: r)[-1]
    assert np.any(out[_off_sector(len(out))])
    assert np.abs(out - ref).max() <= TOL


def test_dense_eigenvectors_stay_dense():
    # H = 0 is diagonalized by any unitary; a random one mixes every sector
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    sd = SpectralData(np.zeros(16), (q,), np.arange(16), "mixed")
    assert sd.layout is fock.whole_layout(16)
    rep = FockRep.of_box(Box.chain(4))
    x, y = rep.site_order[:2]
    b = rep.number(y) + fock.bilinear(rep, x, y, 0.5)
    assert sector_layout(b) is not None
    assert np.array_equal(sd.to_eigenbasis(b), q.conj().T @ b @ q)
    assert np.array_equal(sd.from_eigenbasis(b), q @ b @ q.conj().T)


def test_sector_blocks_detector():
    assert sector_layout(np.eye(12)) is None  # not a power of 2
    assert sector_layout(np.eye(1)) is None   # one sector
    assert sector_layout(np.ones((2, 3))) is None
    layout = sector_layout(np.eye(16))
    assert [len(ix[0]) for ix in layout.grids] == [1, 4, 6, 4, 1]
    assert sector_layout(np.zeros((16, 16))) is layout  # cached layout
    m = np.eye(16, dtype=complex)
    m[0, 1] = 1e-300  # popcount 0 -> 1
    assert sector_layout(m) is None
    rep = FockRep.of_box(Box.chain(4))
    assert sector_layout(rep.total_number()) is layout
