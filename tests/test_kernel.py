"""Atom assembly of the transport kernel.

The kernel merges its positive Bohr frequencies without a loop over groups:
it finds the runs whose gaps stay within the tolerance from np.diff and sums
all runs of one length at once.  The per-group loop it replaced is kept here
as the oracle: both see the same sorted pairs and the same groups.  The
f-sum rule 2 sum_nu Re C(nu) + zero_weight + Xi_d = 0 holds exactly on open
boxes (J_k = i[H, X_k]), so it checks atoms, zero weight and Xi_d together.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from fermicond.config import ExperimentConfig
from fermicond.equilibrium import GibbsState, SpectralData
from fermicond.experiments import _battery_systems, build_system
from fermicond.transport import TransportKernel

from conftest import make_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the benchmark's systems: the 9-site Hubbard chain of the disorder sweep and
# the 8-site density-density chain of the driven path, generic disorder
SWEEP_MODEL = {"d": 1, "sites": 9, "theta": 0.5, "lambda": 1.0, "beta": 1.0,
               "interaction": "hubbard", "U": 1.0}
DRIVE_MODEL = {"d": 1, "sites": 8, "theta": 0.5, "lambda": 1.0, "beta": 1.0,
               "interaction": "density-density", "U": 1.0, "range": 1}
MODELS = {"sweep": SWEEP_MODEL, "drive": DRIVE_MODEL}
SEEDS = range(4)


def _config(model=None, seed=None) -> ExperimentConfig:
    data = json.loads((CONFIGS / "default.json").read_text())
    if model is not None:
        data["model"] = dict(model)
        data["disorder"] = {"kind": "iid-uniform", "seed": seed, "n_samples": 4}
    return ExperimentConfig.from_dict(data)


@functools.cache
def _kernel(name, seed):
    return build_system(_config(MODELS[name], seed), 0, use_cache=False).kernel


@functools.cache
def _battery_kernels():
    return [(s["label"], s["kernel"]) for s in _battery_systems(_config())]


def merge_loop(kernel):
    """The per-group merge: (atom_nu, atoms) with atoms of shape (n, d, d)."""
    d = kernel.dim_space
    mask = kernel.bohr > 1e-12 * kernel._scale
    nus = kernel.bohr[mask]
    order = np.argsort(nus)
    nus = nus[order]
    g = kernel.pair_weight[mask][order]
    coeffs = np.empty((d, d, len(nus)), dtype=complex)
    for k in range(d):
        for q in range(d):
            c = kernel._j_eig[k] * kernel._j_eig[q].T
            coeffs[k, q] = c[mask][order] * g
    edges = np.concatenate(([0], np.nonzero(np.diff(nus) > 1e-9 * kernel._scale)[0] + 1,
                            [len(nus)]))
    merged_nu, merged_c = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        c = coeffs[:, :, a:b].sum(axis=2)
        if np.abs(c).max() > 1e-14:
            merged_nu.append(nus[a:b].mean())
            merged_c.append(c)
    atoms = (np.stack(merged_c) / kernel.volume if merged_c
             else np.zeros((0, d, d), dtype=complex))
    return np.array(merged_nu), atoms


def _assert_merge_matches_loop(kernel):
    nu, atoms = merge_loop(kernel)
    assert kernel.atom_nu.shape == nu.shape
    assert np.abs(kernel.atom_nu - nu).max(initial=0.0) <= 1e-13 * kernel._scale
    assert np.abs(kernel.atom_sym - atoms.real).max(initial=0.0) <= 1e-15
    assert np.abs(kernel.atom_asym - atoms.imag).max(initial=0.0) <= 1e-15


def test_merge_matches_loop_on_battery():
    kernels = _battery_kernels()
    assert len(kernels) == 72
    for _, kernel in kernels:
        _assert_merge_matches_loop(kernel)


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_matches_loop_on_sweep_chain(seed):
    kernel = _kernel("sweep", seed)
    assert kernel.rep.n_sites == 9 and len(kernel.atom_nu) > 0
    _assert_merge_matches_loop(kernel)


def test_merge_matches_loop_on_square_box():
    kernel = build_system(ExperimentConfig.load(CONFIGS / "square_2x3.json"), 0,
                          use_cache=False).kernel
    assert kernel.dim_space == 2
    _assert_merge_matches_loop(kernel)


def test_merge_averages_chained_runs():
    # a 3-site chain with hand-set Fock-state energies: the four frequencies
    # that J couples, 1, 1 + 4e-10, 1 + 8e-10 and 1 + 8e-10, chain within the
    # tolerance 1e-9 * scale = 1e-8 into one atom at their mean
    sys = make_system(3, "iid-uniform", seed=2, theta=0.5)
    fock_e = np.zeros(8)
    fock_e[[0, 4, 2, 1]] = [-3.0, 0.0, 1.0, 2.0 + 4e-10]          # N = 0, 1
    fock_e[[6, 5, 3, 7]] = [5.0, 6.0 + 8e-10, 7.0 + 1.6e-9, 10.0]  # N = 2, 3
    order = np.argsort(fock_e, kind="stable")
    spectral = SpectralData(fock_e[order], (np.eye(8)[:, order],), np.arange(8), "hand-set")
    kernel = TransportKernel(sys["rep"], sys["box"], sys["omega"], sys["theta"],
                             GibbsState.of(spectral, 1.0))
    near_one = np.abs(kernel.atom_nu - 1.0) < 1e-6
    assert near_one.sum() == 1
    assert abs(kernel.atom_nu[near_one][0] - (1.0 + 5e-10)) <= 1e-15
    _assert_merge_matches_loop(kernel)


def test_merge_without_positive_frequencies():
    kernel = make_system(1)["kernel"]  # one site: no bond, no Bohr frequency
    assert kernel.atom_nu.shape == (0,) and kernel.atom_sym.shape == (0, 1, 1)
    assert merge_loop(kernel)[0].shape == (0,)


def f_sum_defect(kernel) -> float:
    total = 2.0 * kernel.atom_sym.sum(axis=0) + kernel.zero_weight + kernel.xi_d()
    return float(np.abs(total).max())


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_f_sum_rule(name, seed):
    kernel = _kernel(name, seed)
    assert np.abs(np.diag(kernel.xi_d())).min() > 0.05  # the sum rule is not 0 = 0
    assert f_sum_defect(kernel) <= 1e-12
