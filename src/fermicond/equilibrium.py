"""Gibbs/KMS states, Heisenberg and imaginary-time evolution, the driven
propagator, the work functional and the Lieb-Robinson empirical check.

Everything equilibrium-side is evaluated in the eigenbasis of H, which makes
the KMS identity, the Duhamel pairing and all autonomous evolutions exact up
to diagonalization error; time quadrature survives only as an oracle in the
test suite.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fock import (BlockLayout, commutator, is_even, number_layout, opnorm_mat,
                   sector_layout, whole_layout)

CONDITIONING_LIMIT = 1e12


class DiagonalizationError(Exception):
    pass


class StepSizeError(Exception):
    """Halving dt still changes drive observables beyond tolerance."""


class OverlappingSupportsError(Exception):
    pass


class ConditioningWarning(UserWarning):
    pass


def _hash_matrix(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition H = U diag(E) U^dagger, eigenvalues ascending.

    U is held as the diagonal blocks eigh returned: one per particle-number
    sector when H is exactly zero off the sectors, else the whole space as
    one block (the dense route).  columns holds the eigenvalue position of
    each block column, block after block.  Basis changes run block by block;
    a dense U is built only for an operand that mixes sectors.
    """

    eigenvalues: np.ndarray
    blocks: tuple[np.ndarray, ...]
    columns: np.ndarray
    source_hash: str

    @classmethod
    def from_hamiltonian(cls, h: np.ndarray) -> "SpectralData":
        # Frobenius defect against the largest entry: never looser than the
        # spectral-norm test (||D||_2 <= ||D||_F, max|H_ij| <= ||H||_2), no SVD
        herm_defect = float(np.linalg.norm(h - h.conj().T))
        if herm_defect > 1e-10 * max(1.0, float(np.abs(h).max(initial=0.0))):
            raise DiagonalizationError(f"matrix not self-adjoint (defect {herm_defect})")
        layout = sector_layout(h) or whole_layout(len(h))
        try:
            parts = [np.linalg.eigh(hk) for hk in layout.gather(h)]
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(str(exc)) from exc
        # one ascending order; the stable sort keeps each block's columns in order
        evals = np.concatenate([e for e, _ in parts])
        order = np.argsort(evals, kind="stable")
        columns = np.empty_like(order)
        columns[order] = np.arange(len(order))
        return cls(evals[order], tuple(v for _, v in parts), columns, _hash_matrix(h))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def layout(self) -> BlockLayout:
        """Fock-basis groups of U's blocks."""
        return whole_layout(self.dim) if len(self.blocks) == 1 else number_layout(self.dim)

    @cached_property
    def _eig_layout(self) -> BlockLayout:
        """Eigenbasis groups of U's blocks: the positions of their columns."""
        bounds = np.cumsum([len(uk) for uk in self.blocks])[:-1]
        return BlockLayout(np.split(self.columns, bounds))

    def dense_u(self) -> np.ndarray:
        """U as one matrix, its blocks placed in exact zeros (built on each call)."""
        u = np.zeros((self.dim, self.dim), dtype=np.result_type(*self.blocks))
        for idx, cols, uk in zip(self.layout.groups, self._eig_layout.groups, self.blocks):
            u[np.ix_(idx, cols)] = uk
        return u

    def to_eigenbasis(self, mat: np.ndarray) -> np.ndarray:
        if sector_layout(mat) is not self.layout:  # never the one block's layout
            u = self.dense_u()
            return u.conj().T @ mat @ u
        out = np.zeros(mat.shape, dtype=np.result_type(mat, *self.blocks))
        for fix, eix, uk in zip(self.layout.grids, self._eig_layout.grids, self.blocks):
            out[eix] = uk.conj().T @ mat[fix] @ uk
        return out

    def from_eigenbasis(self, mat: np.ndarray) -> np.ndarray:
        if mat[self._eig_layout.off].any():
            u = self.dense_u()
            return u @ mat @ u.conj().T
        out = np.zeros(mat.shape, dtype=np.result_type(mat, *self.blocks))
        for fix, eix, uk in zip(self.layout.grids, self._eig_layout.grids, self.blocks):
            out[fix] = uk @ mat[eix] @ uk.conj().T
        return out

    def verify(self, h: np.ndarray, tol: float = 1e-10) -> bool:
        rec = self.from_eigenbasis(np.diag(self.eigenvalues))
        return opnorm_mat(rec - h) <= tol * max(1.0, opnorm_mat(h))


@dataclass(frozen=True)
class GibbsState:
    """rho = exp(-beta H)/Z, stored as Boltzmann weights in the eigenbasis.

    beta = 0 (the trace state) is admitted as a test fixture only.
    """

    beta: float
    spectral: SpectralData
    weights: np.ndarray  # probabilities p_m, ascending-energy order

    @classmethod
    def of(cls, spectral: SpectralData, beta: float) -> "GibbsState":
        if beta < 0:
            raise ValueError("beta must be >= 0")
        e = spectral.eigenvalues
        w = np.exp(-beta * (e - e.min()))  # max-shift for overflow safety
        return cls(beta, spectral, w / w.sum())

    @property
    def density(self) -> np.ndarray:
        return self.spectral.from_eigenbasis(np.diag(self.weights.astype(complex)))

    def expect(self, b: np.ndarray) -> complex:
        return self.expect_eig(self.spectral.to_eigenbasis(b))

    def expect_eig(self, bt: np.ndarray) -> complex:
        """Expectation of a matrix already expressed in the eigenbasis."""
        return complex(np.sum(self.weights * np.diag(bt)))

    def kms_defect(self, b1: np.ndarray, b2: np.ndarray) -> float:
        """|rho(B1 tau_{i beta}(B2)) - rho(B2 B1)|, the two sides taken through
        different exponential routes in the eigenbasis."""
        sd = self.spectral
        b1t, b2t = sd.to_eigenbasis(b1), sd.to_eigenbasis(b2)
        e, p = sd.eigenvalues, self.weights
        # lhs multiplies the Boltzmann weight by the analytic continuation factor
        # e^{-beta(E_n - E_m)} entry-wise; rhs uses the weight vector directly.
        factor = np.exp(-self.beta * (e[None, :] - e[:, None]))
        lhs = np.einsum("mn,nm,mn,m->", b1t, b2t, factor, p)
        rhs = np.einsum("mn,nm,m->", b2t, b1t, p)
        return abs(complex(lhs - rhs))


def heisenberg(b: np.ndarray, t: float, spectral: SpectralData) -> np.ndarray:
    """tau_t(B) = e^{itH} B e^{-itH}."""
    bt = spectral.to_eigenbasis(b)
    phase = np.exp(1j * t * spectral.eigenvalues)
    return spectral.from_eigenbasis(phase[:, None] * bt * phase.conj()[None, :])


def imaginary_time(b: np.ndarray, alpha: float, spectral: SpectralData) -> np.ndarray:
    """tau_{i alpha}(B) = e^{-alpha H} B e^{alpha H} with spectrum-centered shift."""
    e = spectral.eigenvalues
    c = 0.5 * (e.max() + e.min())
    growth = np.exp(abs(alpha) * (e.max() - e.min()) / 2)
    if growth > CONDITIONING_LIMIT:
        warnings.warn(
            f"imaginary-time factor e^(alpha dE/2) = {growth:.2e} exceeds 1e12",
            ConditioningWarning, stacklevel=2)
    bt = spectral.to_eigenbasis(b)
    wl = np.exp(-alpha * (e - c))
    return spectral.from_eigenbasis(wl[:, None] * bt * (1.0 / wl)[None, :])


def bohr_pairs(state: GibbsState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenbasis pair table (nu, g, tiny): Bohr frequencies nu_mn =
    E_n - E_m, the Duhamel weight g_mn = (p_m - p_n)/nu_mn, and the mask of
    numerically degenerate pairs, |nu_mn| < 1e-12 max(1, max|E|), on which g
    takes its limit beta p_m."""
    e = state.spectral.eigenvalues
    p = state.weights
    nu = e[None, :] - e[:, None]
    tiny = np.abs(nu) < 1e-12 * max(1.0, float(np.abs(e).max()))
    g = np.where(tiny, state.beta * p[:, None],
                 (p[:, None] - p[None, :]) / np.where(tiny, 1.0, nu))
    return nu, g, tiny


def duhamel(b1: np.ndarray, b2: np.ndarray, state: GibbsState) -> complex:
    """(B1, B2)_~ = int_0^beta rho(B1^* tau_{i alpha}(B2)) d alpha, in closed form."""
    sd = state.spectral
    return duhamel_pair_eig(sd.to_eigenbasis(b1), sd.to_eigenbasis(b2), state)


def duhamel_pair_eig(b1t: np.ndarray, b2t: np.ndarray, state: GibbsState) -> complex:
    """(B1, B2)_~ for eigenbasis matrices: sum_mn (B1^*)_{mn} (B2)_{nm} g_mn."""
    _, g, _ = bohr_pairs(state)
    return complex(np.einsum("mn,nm,mn->", b1t.conj().T, b2t, g))


# ---------------------------------------------------------------------------
# driven (non-autonomous) evolution
# ---------------------------------------------------------------------------

_CF4_C = (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6)
_CF4_A = ((3 - 2 * np.sqrt(3)) / 12, (3 + 2 * np.sqrt(3)) / 12)


def _expm_herm(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for self-adjoint H via its eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * dt * evals)[None, :]) @ evecs.conj().T


# Smallest Fock dim whose CF4 step is taken by number sectors.  Below it the
# many tiny eigh calls cost more than one dense exponential: on one BLAS
# thread a step took 345 us by sectors against 166 us as one block at dim 16,
# 561 against 467 us at dim 32, and 1154 against 2135 us at dim 64.
SECTOR_STEP_MIN_DIM = 64


def drive_layout(h0: np.ndarray, rho0: np.ndarray) -> BlockLayout:
    """The layout evolve runs a drive H(t) = H0 + W_t from rho0 on, where
    W_t conserves the particle number by construction (a bond scatter): the
    number sectors from dim SECTOR_STEP_MIN_DIM on when H0 and rho0 are
    exactly zero off them, else the whole space as one block.  This is the
    drive's one sector decision; no step scans for exact zeros."""
    layout = sector_layout(h0) if len(h0) >= SECTOR_STEP_MIN_DIM else None
    if layout is None or sector_layout(rho0) is not layout:
        return whole_layout(len(h0))
    return layout


def step_unitary(h_of_t: Callable[[float], tuple], t: float, dt: float) -> tuple:
    """Fourth-order commutator-free step U(t + dt, t) for i d/dt psi = H(t) psi.

    h_of_t(t) returns H(t) as a tuple of diagonal blocks (the number sectors
    of a number-conserving drive, or the whole space as one block); the step
    is the tuple of U's blocks, each the product of the two exponentials of
    its block.  Nothing is scanned: the caller chose the blocks.
    """
    h1 = h_of_t(t + _CF4_C[0] * dt)
    h2 = h_of_t(t + _CF4_C[1] * dt)
    a1, a2 = _CF4_A
    return tuple(_expm_herm(a1 * b1 + a2 * b2, dt) @ _expm_herm(a2 * b1 + a1 * b2, dt)
                 for b1, b2 in zip(h1, h2))


def evolve(rho0: np.ndarray, h_of_t: Callable[[float], np.ndarray], grid, dt: float,
           observe: Callable[[float, np.ndarray], object],
           free_after: tuple[float, SpectralData] | None = None,
           layout: BlockLayout | None = None) -> list:
    """Drive rho0 with H(t) = h_of_t(t) and return [observe(t, rho_t) for t in grid].

    h_of_t(t) is the dense H(t), or, with a layout (drive_layout), the tuple
    of H(t)'s blocks over it; rho0 is then exactly zero off those blocks.
    Each gap [ta, tb] of the grid is split into the fewest equal steps no
    longer than dt, so every grid time is hit exactly; rho_t = U rho U^dagger
    block by block, and a dense rho_t is assembled only for observe and for
    the rotation below.

    free_after = (t1, spectral) states that H(t) is the matrix spectral
    diagonalises for every t >= t1.  At the start s of the first gap with
    s >= t1, rho_s is taken into that eigenbasis once, and each later grid
    time tb gets the exact rotation rho~_mn e^{-i(E_m - E_n)(tb - s)} of that
    one rho~, so no error builds up; gaps that start before t1 keep the CF4
    steps.
    """
    grid = np.asarray(grid, dtype=float)
    blocks_of_t = h_of_t
    if layout is None:
        layout = whole_layout(len(rho0))

        def blocks_of_t(t):
            return (h_of_t(t),)

    rho = layout.gather(rho0)
    out = [observe(grid[0], rho0)]
    free = None  # (spectral, rho_s in its eigenbasis, s)
    for ta, tb in zip(grid[:-1], grid[1:]):
        if free is None and free_after is not None and ta >= free_after[0]:
            free = free_after[1], free_after[1].to_eigenbasis(layout.join(rho)), ta
        if free is not None:
            sd, rho_eig, s = free
            phase = np.exp(-1j * (tb - s) * sd.eigenvalues)
            out.append(observe(tb, sd.from_eigenbasis(
                phase[:, None] * rho_eig * phase.conj()[None, :])))
            continue
        n = max(1, int(np.ceil((tb - ta) / dt - 1e-12)))
        step = (tb - ta) / n
        for j in range(n):
            u = step_unitary(blocks_of_t, ta + j * step, step)
            rho = tuple(uk @ rk @ uk.conj().T for uk, rk in zip(u, rho))
        out.append(observe(tb, layout.join(rho)))
    return out


def free_after_pulse(t1: float, spectral: SpectralData,
                     h0: np.ndarray) -> tuple[float, SpectralData] | None:
    """evolve's free_after for a drive H0 + W_t whose W_t vanishes from t1 on:
    (t1, spectral) when spectral is the eigendecomposition of h0 itself (its
    source hash matches), else None, which keeps CF4 throughout."""
    return (t1, spectral) if spectral.source_hash == _hash_matrix(h0) else None


def richardson_drive_check(state: GibbsState, h_of_t, t0: float, t: float, dt: float,
                           obs_mat: np.ndarray, tol: float) -> float:
    """|obs(dt) - obs(dt/2)| at the final time; raises StepSizeError above tol."""
    vals = [evolve(state.density, h_of_t, [t0, t], step,
                   lambda s, rho: np.einsum("ij,ji->", rho, obs_mat))[-1]
            for step in (dt, dt / 2)]
    diff = abs(vals[0] - vals[1])
    if diff > tol:
        raise StepSizeError(f"halving dt moves observable by {diff} > {tol}")
    return float(diff)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n+1 equispaced points (trapezoid patch
    on the last interval when n is odd)."""
    w = np.zeros(n + 1)
    if n == 0:
        return w
    m = n if n % 2 == 0 else n - 1
    if m >= 2:
        w[0:m + 1:2] += 2.0
        w[1:m:2] += 4.0
        w[0] -= 1.0
        w[m] -= 1.0
        w[:m + 1] *= h / 3.0
    if n != m:
        w[n - 1] += h / 2.0
        w[n] += h / 2.0
    return w


def _uniform_step(times: np.ndarray, who: str) -> float:
    """The step of a uniform grid; the Simpson weights above assume one."""
    h = times[1] - times[0]
    if not np.allclose(np.diff(times), h):
        raise ValueError(f"{who} expects a uniform time grid")
    return h


def _cumulative_simpson(vals: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on a uniform grid: prefix i is _simpson_weights(i, h)
    applied to vals[:i + 1]; vals may carry trailing axes."""
    out = np.zeros_like(vals, dtype=np.result_type(vals, 1.0))
    for i in range(1, len(vals)):
        out[i] = np.tensordot(_simpson_weights(i, h), vals[:i + 1], axes=1)
    return out


def work_functional(state: GibbsState, a_of_t: Callable[[float], np.ndarray],
                    t0: float, t: float, dt: float,
                    da_of_t: Callable[[float], np.ndarray] | None = None,
                    h_unperturbed: np.ndarray | None = None) -> float:
    """L_t^A(rho) = int_{t0}^t rho_s(dA_s/ds) ds by composite Simpson.

    The driven generator is H + A_t; dA/dt defaults to a central finite
    difference of the perturbation family.
    """
    h0 = (state.spectral.from_eigenbasis(np.diag(state.spectral.eigenvalues.astype(complex)))
          if h_unperturbed is None else h_unperturbed)

    def h_of_t(s):
        return h0 + a_of_t(s)

    if da_of_t is None:
        fd = 1e-6 * max(1.0, t - t0)

        def da_of_t(s, a_of_t=a_of_t, fd=fd):
            return (a_of_t(s + fd) - a_of_t(s - fd)) / (2 * fd)

    n = max(1, int(np.ceil((t - t0) / dt - 1e-12)))
    times = np.linspace(t0, t, n + 1)
    vals = evolve(state.density, h_of_t, times, dt,
                  lambda s, rho: np.einsum("ij,ji->", rho, da_of_t(s)).real)
    w = _simpson_weights(n, times[1] - times[0])
    return float(np.dot(w, np.asarray(vals)))


# ---------------------------------------------------------------------------
# Lieb-Robinson empirical check
# ---------------------------------------------------------------------------

def lieb_robinson_check(b1: np.ndarray, supp1, b2: np.ndarray, supp2,
                        t: float, spectral: SpectralData, decay, conv_const: float,
                        interaction_sup: float,
                        norms: tuple[float, float] | None = None) -> dict:
    """Compare ||[tau_t(B1), B2]|| against the standard bound
    2 D^-1 ||B1|| ||B2|| (e^{2 D |t| D_theta0} - 1) sum_{x in S1, y in S2} F(|x-y|).

    norms = (||B1||, ||B2||) lets a caller that checks the same operators at
    several t compute each spectral norm once.
    """
    s1, s2 = set(supp1), set(supp2)
    if s1 & s2:
        raise OverlappingSupportsError(f"supports intersect: {s1 & s2}")
    if not is_even(b1):
        raise ValueError("B1 must be even for the Lieb-Robinson bound")
    lhs = opnorm_mat(commutator(heisenberg(b1, t, spectral), b2))
    geom = sum(decay(np.linalg.norm(np.array(x) - np.array(y)))
               for x in s1 for y in s2)
    n1, n2 = norms if norms is not None else (opnorm_mat(b1), opnorm_mat(b2))
    with np.errstate(over="ignore"):
        rhs = (2.0 / conv_const) * n1 * n2 \
            * np.expm1(2 * conv_const * abs(t) * interaction_sup) * geom
    return {"lhs": float(lhs), "rhs_bound": float(rhs),
            "satisfied": bool(lhs <= rhs + 1e-10)}
