import numpy as np
import pytest

from fermicond.equilibrium import GibbsState, SpectralData
from fermicond.fock import FockRep
from fermicond.lattice import Box, DisorderDistribution
from fermicond.model import FlatPulse, InterparticleInteraction, bond_phase, \
    build_hamiltonian
from fermicond.transport import TransportKernel


def nn_interaction(u, rng=1):
    return InterparticleInteraction(
        "density-density", U=u, v=lambda r: u if 1 <= r <= rng else 0.0, range_=rng)


def make_system(n_sites=5, kind="deterministic-zero", seed=1, theta=0.0, lam=0.0,
                beta=1.0, ip=None, d=1, shape=None):
    """Chain (or rect) system wired to its Gibbs state and transport kernel."""
    if shape is not None:
        box = Box.rect(shape)
    elif d == 1:
        box = Box.chain(n_sites)
    else:
        raise ValueError("pass shape for d >= 2")
    rep = FockRep.of_box(box)
    omega = DisorderDistribution(kind, seed).sample(box)
    ip = ip if ip is not None else InterparticleInteraction("none")
    h = build_hamiltonian(rep, box, omega, theta, lam, ip)
    spectral = SpectralData.from_hamiltonian(h)
    state = GibbsState.of(spectral, beta)
    kernel = TransportKernel(rep, box, omega, theta, state)
    return {"box": box, "rep": rep, "omega": omega, "h": h, "spectral": spectral,
            "state": state, "kernel": kernel, "theta": theta, "lam": lam, "ip": ip}


def peierls_hopping(hop: np.ndarray, box: Box, a: FlatPulse, t: float) -> np.ndarray:
    """Multiply each bond entry by exp(i * bond phase); diagonal unchanged.

    Phases along the two orientations are exact negatives, so hermiticity is
    preserved identically.
    """
    out = hop.astype(complex).copy()
    if a.is_off(t):
        return out
    for (x, y) in box.bonds:
        phi = bond_phase(a, t, x, y)
        i, j = box.index[x], box.index[y]
        out[i, j] = hop[i, j] * np.exp(1j * phi)
        out[j, i] = np.conj(out[i, j])
    return out


def random_local(rng, rep, hermitian=False):
    """Random bilinear-generated local observable."""
    mats = rep._annihilator_mats
    i, j = rng.integers(0, rep.n_sites, size=2)
    c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    m = c1 * mats[i].conj().T @ mats[j] + c2 * mats[j].conj().T @ mats[i]
    if hermitian:
        m = m + m.conj().T
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
