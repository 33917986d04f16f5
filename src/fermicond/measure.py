"""Matrix-valued conductivity measures, their Levy-Khintchine structure and
the Drude comparison.

Convention: the stored measure is the nu^2-weighted one appearing in the
Levy-Khintchine representation

    [Xi_p(t)]_+ = -(t^2/2) mu({0}) + sum_atoms (cos(t nu) - 1) nu^-2 mu(nu),

so the micro-conductivity (cosine-representation) weights and the
AC-conductivity measure are the nu^-2 views away from nu = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .csvout import write_csv
from .transport import TransportKernel


class PSDViolationError(Exception):
    pass


class InconsistentScalarMeasuresError(Exception):
    pass


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())


@dataclass
class MatrixMeasure:
    """Finite symmetric PSD-matrix-valued atomic measure on frequency space.

    nus contains the positive frequencies only; each atom is mirrored at -nu
    with the same weight (the stored object is symmetric by construction).
    weights carry the nu^2 scaling (see module docstring).
    """

    nus: np.ndarray            # (n,) positive frequencies
    weights: np.ndarray        # (n, d, d) symmetric PSD, nu^2-weighted
    zero_atom: np.ndarray      # (d, d) mu({0})
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.zero_atom.shape[0]

    def check(self, abort_tol: float = 1e-8) -> float:
        """Verify symmetry/PSD of every atom; returns the worst min-eigenvalue."""
        worst = _min_eig(self.zero_atom)
        for w in self.weights:
            if np.abs(w - w.T).max() > 1e-12 * max(1.0, np.abs(w).max()):
                raise PSDViolationError("atom weight not symmetric")
            worst = min(worst, _min_eig(w))
        if worst < -abort_tol:
            raise PSDViolationError(
                f"atom weight with min eigenvalue {worst} below -{abort_tol}")
        return worst

    # -- derived views ------------------------------------------------------

    def ac_weights(self) -> np.ndarray:
        """nu^-2 mu(nu) away from zero: the AC-conductivity atoms (one-sided)."""
        return self.weights / self.nus[:, None, None] ** 2

    def ac_total(self) -> np.ndarray:
        """mu_AC(R \\ {0}) as a matrix (both signs of nu)."""
        if len(self.nus) == 0:
            return np.zeros((self.dim, self.dim))
        return 2.0 * self.ac_weights().sum(axis=0)

    def total_mass(self) -> np.ndarray:
        """mu(R): zero atom plus both mirrored sides."""
        out = self.zero_atom.copy()
        if len(self.nus):
            out = out + 2.0 * self.weights.sum(axis=0)
        return out

    def directional(self, w) -> tuple[np.ndarray, np.ndarray, float]:
        """(nus, scalar ac weights, scalar zero atom) projected on w."""
        w = np.asarray(w, dtype=float)
        ac = np.einsum("k,nkq,q->n", w, self.ac_weights(), w)
        z = float(w @ self.zero_atom @ w)
        return self.nus.copy(), ac, z

    def spectral_diameter(self) -> float:
        return float(self.nus.max()) if len(self.nus) else 0.0

    def to_csv(self, path) -> Path:
        d = self.dim
        cols = ["nu"] + [f"w[{k}][{q}]" for k in range(d) for q in range(d)]
        rows = [[0, *self.zero_atom.ravel()]]
        rows += [[nu, *self.weights[i].ravel()] for i, nu in enumerate(self.nus)]
        return write_csv(path, cols, rows, self.provenance)

    def density_view(self, nugrid, bandwidth: float = 0.05) -> np.ndarray:
        """Gaussian-kernel smoothing of the AC atoms for plotting only."""
        nugrid = np.asarray(nugrid, dtype=float)
        out = np.zeros((len(nugrid), self.dim, self.dim))
        if len(self.nus) == 0:
            return out
        for nu, w in zip(self.nus, self.ac_weights()):
            for s in (+1.0, -1.0):
                kern = np.exp(-0.5 * ((nugrid - s * nu) / bandwidth) ** 2) \
                    / (bandwidth * np.sqrt(2 * np.pi))
                out += kern[:, None, None] * w[None, :, :]
        return out


def extract_measure(kernel: TransportKernel, provenance: Optional[dict] = None,
                    psd_abort: float = 1e-8) -> MatrixMeasure:
    """Atoms at the Bohr frequencies with weights from the current matrix
    elements and Gibbs weights; reproduces [Xi_p,l(t)]_+ through the cosine
    representation to diagonalization error."""
    sym = 0.5 * (kernel.atom_sym + np.transpose(kernel.atom_sym, (0, 2, 1)))
    meas = MatrixMeasure(
        nus=kernel.atom_nu.copy(),
        weights=sym * kernel.atom_nu[:, None, None] ** 2,
        zero_atom=0.5 * (kernel.zero_weight_nu2 + kernel.zero_weight_nu2.T),
        provenance=dict(provenance or {}),
    )
    meas.check(abort_tol=psd_abort)
    return meas


def levy_khintchine(measure: MatrixMeasure, times) -> np.ndarray:
    """Reconstruct [Xi_p]_+ (t) = -(t^2/2) mu({0}) + sum 2 (cos(t nu)-1) nu^-2 mu(nu)."""
    times = np.asarray(times, dtype=float)
    out = -0.5 * np.multiply.outer(times ** 2, measure.zero_atom)
    if len(measure.nus):
        cosm1 = np.cos(np.multiply.outer(times, measure.nus)) - 1.0
        out = out + 2.0 * np.tensordot(cosm1, measure.ac_weights(), axes=([-1], [0]))
    return out


def cesaro_mean(xi_plus: callable, t_max: float, n_points: int = 2001) -> np.ndarray:
    """(1/T) int_0^T [Xi_p(s)]_+ ds by composite Simpson on a fine grid."""
    from .equilibrium import _simpson_weights
    ts = np.linspace(0.0, t_max, n_points)
    vals = xi_plus(ts)
    w = _simpson_weights(n_points - 1, ts[1] - ts[0])
    return np.tensordot(w, vals, axes=([0], [0])) / t_max


def cesaro_constant(measure: MatrixMeasure) -> float:
    """Rigorous C with ||cesaro(T) + mu_AC|| <= C/T for atomic measures:
    C = 2 sum ||nu^-2 mu(nu)||/nu (both signs folded in)."""
    if len(measure.nus) == 0:
        return 0.0
    return float(sum(2.0 * np.linalg.norm(w, 2) / nu
                     for nu, w in zip(measure.nus, measure.ac_weights())))


# ---------------------------------------------------------------------------
# Bochner polarization
# ---------------------------------------------------------------------------

@dataclass
class ScalarMeasure:
    """Scalar atomic measure on the positive frequencies (mirrored at -nu)."""

    nus: np.ndarray
    weights: np.ndarray
    zero: float = 0.0


def directional_measure(measure: MatrixMeasure, w) -> ScalarMeasure:
    """mu_w(X) = <w, mu(X) w> as a scalar measure (nu^2-weighted convention)."""
    w = np.asarray(w, dtype=float)
    wt = np.einsum("k,nkq,q->n", w, measure.weights, w) if len(measure.nus) else np.zeros(0)
    return ScalarMeasure(measure.nus.copy(), wt, float(w @ measure.zero_atom @ w))


def bochner_polarization(plus: dict, minus: dict, dim: int,
                         diag: Optional[dict] = None,
                         tol: float = 1e-10) -> MatrixMeasure:
    """Reassemble the matrix measure from scalar measures of e_k +- e_q:

        <e_k, mu(.) e_q> = (mu_{e_k+e_q} - mu_{e_k-e_q}) / 4.

    plus[(k, q)] and minus[(k, q)] hold mu_{e_k+e_q} and mu_{e_k-e_q} on a
    common frequency list.  When diag[k] = mu_{e_k} is supplied, the
    reconstructed diagonal is cross-checked against it.
    """
    ref = plus[(0, 0)]
    nus = ref.nus
    n = len(nus)
    weights = np.zeros((n, dim, dim))
    zero = np.zeros((dim, dim))
    for k in range(dim):
        for q in range(dim):
            pl, mi = plus[(k, q)], minus[(k, q)]
            if not (np.array_equal(pl.nus, nus) and np.array_equal(mi.nus, nus)):
                raise InconsistentScalarMeasuresError("scalar measures on different atoms")
            weights[:, k, q] = 0.25 * (pl.weights - mi.weights)
            zero[k, q] = 0.25 * (pl.zero - mi.zero)
    weights = 0.5 * (weights + np.transpose(weights, (0, 2, 1)))
    zero = 0.5 * (zero + zero.T)
    if diag is not None:
        for k in range(dim):
            rec = weights[:, k, k]
            direct = diag[k].weights
            scale = max(1.0, float(np.abs(direct).max()) if n else 1.0)
            if n and np.abs(rec - direct).max() > tol * scale:
                raise InconsistentScalarMeasuresError(
                    f"diagonal {k} disagrees with direct scalar measure")
    return MatrixMeasure(nus.copy(), weights, zero)


# ---------------------------------------------------------------------------
# Drude model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrudeSpec:
    """Lorentzian AC density sigma_T(nu) = D T / (1 + T^2 nu^2)."""

    T: float
    D: float
    Dprime: float = 0.0  # frequency-dependent relaxation T(nu) = T/(1 + D' T nu^2)

    def __post_init__(self):
        if self.T <= 0 or self.D <= 0:
            raise ValueError("relaxation time and amplitude must be positive")


def drude_density(spec: DrudeSpec, nu) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    val = spec.D * spec.T / (1.0 + spec.T ** 2 * nu ** 2)
    return val if val.ndim else float(val)


def drude_total_mass(spec: DrudeSpec) -> float:
    """int_R sigma_T = pi D, independent of T."""
    return np.pi * spec.D


def drude_tail(spec: DrudeSpec, nu: float) -> float:
    """int_nu^inf sigma_T = D arctan(1/(T nu))."""
    return spec.D * np.arctan(1.0 / (spec.T * nu))


def freq_dependent_T(spec: DrudeSpec, nu) -> np.ndarray:
    """T(nu) = T(0) / (1 + D' T(0) nu^2), the effective-parameter variant."""
    nu = np.asarray(nu, dtype=float)
    val = spec.T / (1.0 + spec.Dprime * spec.T * nu ** 2)
    return val if val.ndim else float(val)


def drude_density_effective(spec: DrudeSpec, nu) -> np.ndarray:
    """sigma_{T(nu)}(nu) with the frequency-dependent relaxation time."""
    nu = np.asarray(nu, dtype=float)
    t_eff = freq_dependent_T(spec, nu)
    val = spec.D * t_eff / (1.0 + t_eff ** 2 * nu ** 2)
    return val if val.ndim else float(val)


def mass_matched_drude(measure: MatrixMeasure, w, T: float) -> DrudeSpec:
    """Calibrate D so that int sigma_T matches the directional mu_AC mass."""
    _, ac, _ = measure.directional(w)
    mass = 2.0 * float(ac.sum())
    if mass <= 0:
        raise ValueError("measure carries no AC mass in this direction")
    return DrudeSpec(T=T, D=mass / np.pi)


def drude_tail_compare(measure: MatrixMeasure, spec: DrudeSpec, w, nugrid) -> dict:
    """nu^2-weighted tails: computed measure vs the Drude model.

    The computed tail hits exactly zero beyond the spectral diameter (finite
    spectrum), while the Drude tail grows ~ (D/T) nu.
    """
    nugrid = np.asarray(nugrid, dtype=float)
    nus, ac, _ = measure.directional(w)
    meas_tail = np.array([ac[nus >= nu].sum() if len(nus) else 0.0 for nu in nugrid])
    out = {
        "nu": nugrid,
        "measure_tail_nu2": nugrid ** 2 * meas_tail,
        "drude_tail_nu2": nugrid ** 2 * np.array([drude_tail(spec, nu) for nu in nugrid]),
        "spectral_diameter": measure.spectral_diameter(),
    }
    beyond = nugrid > out["spectral_diameter"]
    out["crossover_exists"] = bool(
        beyond.any() and np.all(out["measure_tail_nu2"][beyond] == 0.0)
        and np.all(out["drude_tail_nu2"][beyond] > 0.0))
    return out
