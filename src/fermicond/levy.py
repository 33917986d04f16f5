"""Levy process in frequency space driven by a scalar AC-conductivity measure.

The characteristic exponent is the directional conductivity function,

    sigma_p(alpha) = -(alpha^2/2) D0 + sum_atoms (cos(alpha nu) - 1) m(nu),

and the process F_t = sqrt(D0) B_t + jumps satisfies
E[exp(i alpha F_t)] = exp(t sigma_p(alpha)).  Finite atomic measures realize
the pure compound-Poisson branch; the compensated small-jump channel of the
general decomposition is implemented as well and exercised with synthetic
truncated measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import DrudeSpec, MatrixMeasure, drude_density


class AnisotropyError(Exception):
    """The antisymmetric part of Xi_p exceeds the isotropy threshold."""

    def __init__(self, value: float, threshold: float):
        self.value, self.threshold = value, threshold
        super().__init__(
            f"sup_t ||[Xi_p]_-|| = {value} exceeds {threshold}; "
            "the scalar-exponent construction needs an isotropic conductivity")


@dataclass
class LevyTriple:
    """Diffusion coefficient plus a finite symmetric atomic Levy measure.

    nus holds positive atom locations; each carries weight m(nu) = m(-nu),
    so the total mass is 2 * weights.sum().
    """

    D0: float
    nus: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.D0 < -1e-12:
            raise ValueError("diffusion coefficient must be >= 0")
        self.D0 = max(self.D0, 0.0)

    @property
    def total_rate(self) -> float:
        return 2.0 * float(self.weights.sum()) if len(self.nus) else 0.0

    def two_sided(self) -> tuple[np.ndarray, np.ndarray]:
        nus = np.concatenate([-self.nus[::-1], self.nus])
        wts = np.concatenate([self.weights[::-1], self.weights])
        return nus, wts


def char_exponent(triple: LevyTriple, alpha) -> np.ndarray:
    """sigma_p(alpha); the symmetric measure kills the i*alpha*nu compensator."""
    alpha = np.asarray(alpha, dtype=float)
    out = -0.5 * alpha ** 2 * triple.D0
    if len(triple.nus):
        out = out + 2.0 * np.tensordot(
            np.cos(np.multiply.outer(alpha, triple.nus)) - 1.0, triple.weights, axes=([-1], [0]))
    return out if out.ndim else float(out)


def from_conductivity(measure: MatrixMeasure, w, xi_minus_sup: float = 0.0,
                      tol: float = 1e-8) -> LevyTriple:
    """Directional projection <w, . w> of the matrix measure.

    Requires the antisymmetric part of the conductivity to be negligible
    (the isotropic-form assumption); pass the computed sup_t ||[Xi_p]_-||.
    """
    if xi_minus_sup > tol:
        raise AnisotropyError(xi_minus_sup, tol)
    nus, ac, zero = measure.directional(w)
    keep = ac > 0.0
    return LevyTriple(D0=zero, nus=nus[keep], weights=ac[keep])


@dataclass
class PathEnsemble:
    """Samples of F_t on a common grid; paths[i, j] = F_{times[j]} of path i."""

    times: np.ndarray
    paths: np.ndarray
    master_seed: int
    jump_counts: np.ndarray = field(default=None)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def increments(self, j0: int, j1: int) -> np.ndarray:
        return self.paths[:, j1] - self.paths[:, j0]


def sample_paths(triple: LevyTriple, n: int, t_max: float, dt: float,
                 seed: int, small_jump_cut: float = 0.0) -> PathEnsemble:
    """Sample F_t = sqrt(D0) B_t + jump channels on a uniform grid.

    Atoms with |nu| >= 1 feed the plain compound-Poisson channel; atoms with
    small_jump_cut <= |nu| < 1 feed the compensated (martingale) channel with
    drift -t * int nu m(dnu) (zero for symmetric measures but carried
    explicitly); atoms below small_jump_cut are dropped, mimicking the
    epsilon-truncation of infinite-activity measures.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    times = np.arange(0.0, t_max + dt / 2, dt)
    nt = len(times)
    paths = np.zeros((n, nt))

    if triple.D0 > 0:
        inc = rng.standard_normal((n, nt - 1)) * np.sqrt(triple.D0 * dt)
        paths[:, 1:] = np.cumsum(inc, axis=1)

    nus, wts = triple.two_sided() if len(triple.nus) else (np.zeros(0), np.zeros(0))
    jump_counts = np.zeros(n, dtype=int)
    for label, sel in (("large", np.abs(nus) >= 1.0),
                       ("small", (np.abs(nus) < 1.0) & (np.abs(nus) >= small_jump_cut))):
        if not sel.any():
            continue
        rate = float(wts[sel].sum())
        if rate <= 0:
            continue
        atom_nu = nus[sel]
        atom_p = wts[sel] / rate
        counts = rng.poisson(rate * t_max, size=n)
        jump_counts += counts
        drift = float((atom_nu * wts[sel]).sum()) if label == "small" else 0.0
        for i in range(n):
            c = counts[i]
            if c:
                jt = np.sort(rng.uniform(0.0, t_max, size=c))
                js = rng.choice(atom_nu, size=c, p=atom_p)
                idx = np.searchsorted(times, jt, side="left")
                add = np.zeros(nt)
                np.add.at(add, np.minimum(idx, nt - 1), js)
                paths[i] += np.cumsum(add)
            if drift:
                paths[i] -= drift * times
    return PathEnsemble(times, paths, seed, jump_counts)


def validate_char(ensemble: PathEnsemble, triple: LevyTriple, alphas,
                  t_indices: Optional[list] = None) -> dict:
    """MC characteristic function vs exp(t sigma_p(alpha)), 3-sigma gate.

    Real and imaginary parts are tested separately against their Monte Carlo
    standard errors; the report carries the pass fraction over the grid.
    """
    alphas = np.asarray(alphas, dtype=float)
    if t_indices is None:
        t_indices = [len(ensemble.times) - 1]
    n = ensemble.n_paths
    rows = []
    for j in t_indices:
        t = ensemble.times[j]
        vals = ensemble.paths[:, j]
        exact = np.exp(t * char_exponent(triple, alphas))
        for a, ex in zip(alphas, exact):
            z = np.exp(1j * a * vals)
            mr, mi = z.real.mean(), z.imag.mean()
            sr = z.real.std(ddof=1) / np.sqrt(n)
            si = z.imag.std(ddof=1) / np.sqrt(n)
            ok = (abs(mr - ex.real) <= 3 * max(sr, 1e-15)) and \
                 (abs(mi - ex.imag) <= 3 * max(si, 1e-15))
            rows.append({"t": float(t), "alpha": float(a), "mc_re": mr, "mc_im": mi,
                         "exact_re": float(ex.real), "exact_im": float(ex.imag),
                         "stderr_re": sr, "stderr_im": si, "pass": bool(ok)})
    frac = sum(r["pass"] for r in rows) / len(rows)
    return {"rows": rows, "pass_fraction": frac, "n_paths": n}


def drude_levy_measure(spec: DrudeSpec, nu_max: float, n_atoms: int = 2000) -> LevyTriple:
    """Discretize the (truncated) Drude density to a symmetric atomic measure."""
    edges = np.linspace(0.0, nu_max, n_atoms + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    wts = drude_density(spec, mids) * np.diff(edges)
    return LevyTriple(D0=0.0, nus=mids, weights=wts)


def drude_jump_stats(spec_factory, t_grid, nu_max: float = 200.0, nu0: float = 1.0,
                     n_atoms: int = 4000) -> dict:
    """Tail probability P(|jump| > nu0) of the Drude jump law as T varies.

    spec_factory(T) -> DrudeSpec at relaxation time T.  The total rate stays
    ~ pi D (up to truncation) while the tail grows as T -> 0+ (isolator) and
    shrinks as T -> infinity (conductor).
    """
    rows = []
    for t_rel in t_grid:
        spec = spec_factory(t_rel)
        triple = drude_levy_measure(spec, nu_max, n_atoms)
        rate = triple.total_rate
        tail = 2.0 * float(triple.weights[triple.nus > nu0].sum())
        rows.append({"T": float(t_rel), "total_rate": rate,
                     "tail_prob": tail / rate if rate else 0.0})
    probs = [r["tail_prob"] for r in rows]
    return {"rows": rows,
            "monotone_decreasing_in_T": all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))}
