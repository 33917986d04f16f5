"""Hopping matrices, electromagnetic fields, interactions and Hamiltonians.

One-particle hoppings follow the positive-definite convention: diagonal 2d,
bond entries -(1 + theta*omega2).  Peierls phases multiply bond entries by
exp(i * line integral of A along the bond).  Many-body observables are
assembled on a FockRep as H = sum <e_x,(Delta + lambda V) e_y> a_x* a_y plus
the interparticle terms, and W_t = sum <e_x,(Delta^A - Delta) e_y> a_x* a_y.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .fock import BlockLayout, FockRep, whole_layout
from .lattice import Box, DisorderSample, Site


class RangeExceedsBoxError(Exception):
    pass


class NotABondError(Exception):
    pass


class BoundaryProximityWarning(UserWarning):
    """Field support closer to the box boundary than the safe margin."""


# ---------------------------------------------------------------------------
# decay functions and interaction norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFunction:
    """Positive non-increasing F(r); polynomial (1+r)^-(d+eps) or
    exponential exp(-sigma r) (1+r)^-(d+eps)."""

    d: int
    form: str = "polynomial"  # "polynomial" | "exponential"
    epsilon: float = 2.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.form not in ("polynomial", "exponential"):
            raise ValueError(f"unknown decay form {self.form!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, r) -> float:
        r = np.asarray(r, dtype=float)
        val = (1.0 + r) ** (-(self.d + self.epsilon))
        if self.form == "exponential":
            val = np.exp(-self.sigma * r) * val
        return val if val.ndim else float(val)

    def norm_1L(self, box: Box) -> float:
        """Finite-box estimate of sup_y sum_x F(|x-y|) = sum_x F(|x|)."""
        return float(sum(self(np.linalg.norm(s)) for s in box.sites))

    def convolution_constant(self, box: Box) -> float:
        """Finite-box estimate of sup_{x,y} sum_z F(|x-z|)F(|z-y|)/F(|x-y|)."""
        pts = np.array(box.sites, dtype=float)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        f = self(dist)
        best = 0.0
        for i in range(len(pts)):
            for j in range(len(pts)):
                best = max(best, float(np.sum(f[i] * f[:, j]) / f[i, j]))
        return best


def decay_checks(f: DecayFunction, box: Box) -> dict:
    """Report the summability/convolution constants and the polynomial-decay
    margin: for which zeta the (1+n)^zeta-weighted shell sums stay summable."""
    if f.form == "exponential":
        zeta_max = float("inf")
    else:
        # shell sums scale like n^(-1-eps) * n^zeta; summable iff zeta < eps
        zeta_max = f.epsilon
    d = f.d
    shells = []
    l_max = max(abs(c) for s in box.sites for c in s)
    for n in range(1, int(l_max) + 1):
        shell = [s for s in box.sites if max(abs(c) for c in s) == n]
        inner = [s for s in box.sites if max(abs(c) for c in s) <= max(1, n // 2)]
        if not shell or not inner:
            continue
        val = len(shell) * sum(
            max(f(np.linalg.norm(np.array(z) - np.array(y))) for y in shell) for z in inner
        )
        shells.append((n, val))
    return {
        "norm_1L": f.norm_1L(box),
        "convolution_constant": f.convolution_constant(box),
        "zeta_max": zeta_max,
        "meets_2d": zeta_max > 2 * d,
        "meets_3d": zeta_max > 3 * d,
        "shell_sums": shells,
    }


@dataclass(frozen=True)
class InterparticleInteraction:
    """Translation-covariant even interaction.

    kind "none": no terms.
    kind "hubbard": on-site U n_x (the v(0) singleton; spinless n_x^2 = n_x).
    kind "density-density": v(|x-y|) n_x n_y for 0 < |x-y| <= range_, plus an
    optional on-site v(0) n_x term.
    """

    kind: str = "none"
    U: float = 0.0
    v: Optional[Callable[[float], float]] = None
    range_: int = 1

    def __post_init__(self):
        if self.kind not in ("none", "hubbard", "density-density"):
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "density-density" and self.v is None:
            raise ValueError("density-density interaction needs a radial profile v")

    def pair_terms(self, box: Box):
        """Yield ({x}, coeff) and ({x,y}, coeff) with coeff multiplying n-products."""
        if self.kind == "none":
            return
        if self.kind == "hubbard":
            for s in box.sites:
                yield (s,), self.U
            return
        v0 = self.v(0.0)
        if v0 != 0.0:
            for s in box.sites:
                yield (s,), v0
        sites = box.sites
        for i, x in enumerate(sites):
            for y in sites[i + 1:]:
                r = float(np.linalg.norm(np.array(x) - np.array(y)))
                if 0 < r <= self.range_ + 1e-12:
                    c = self.v(r)
                    if c != 0.0:
                        yield (x, y), c


def _sup_norm(norms: dict, ip: InterparticleInteraction, f: DecayFunction,
              box: Box) -> float:
    """sup_{x,y} sum_{Lambda containing x,y} ||Psi(Lambda)|| / F(|x-y|) on the
    finite box, norms (frozenset support -> norm) plus the interaction terms,
    each of norm |coeff| (n-products have norm 1)."""
    for supp, c in ip.pair_terms(box):
        key = frozenset(supp)
        norms[key] = norms.get(key, 0.0) + abs(c)
    best = 0.0
    for x in box.sites:
        for y in box.sites:
            tot = sum(c for supp, c in norms.items() if x in supp and y in supp)
            if tot:
                r = float(np.linalg.norm(np.array(x) - np.array(y)))
                best = max(best, tot / f(r))
    return best


def interaction_norm(ip: InterparticleInteraction, f: DecayFunction, box: Box) -> float:
    """Finite-box ||Psi_IP||_W of the interparticle terms alone."""
    return _sup_norm({}, ip, f, box)


def full_interaction_norm(theta0: float, ip: InterparticleInteraction,
                          f: DecayFunction, box: Box) -> float:
    """sup over disorder of ||Psi^(omega,theta)||_W on the finite box.

    Hopping pair terms have norm sup_omega |1 + theta*omega2| = 1 + theta0;
    singletons carry the Laplacian diagonal 2d.
    """
    d = box.dim
    norms = {}  # frozenset support -> summed norm
    for s in box.sites:
        norms[frozenset((s,))] = 2.0 * d
    for b in box.bonds:
        norms[frozenset(b)] = 1.0 + theta0
    return _sup_norm(norms, ip, f, box)


# ---------------------------------------------------------------------------
# vector potentials and electric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FlatPulse:
    """Compactly supported A(t, x) in the Weyl gauge (E = -dA/dt):

        A(t, x) = eta * env(t) * w   if |x_k / scale| <= halfwidth (+1e-12) for all k,

    and 0 off that plateau or outside (t0, t1).  The envelope is "sin2",
    sin^2(pi (t - t0)/(t1 - t0)), or "gauss", a Gaussian centred in the pulse
    with width (t1 - t0)/8, shifted to vanish at t0 and t1.  Both vanish at
    the pulse ends, which is the AC-condition.
    """

    dim: int
    w: np.ndarray
    t0: float = 0.0
    t1: float = 1.0
    halfwidth: float = 1.0
    envelope: str = "sin2"
    scale: float = 1.0
    eta: float = 1.0
    # (x, y) -> (y - x, plateau fraction): bond geometry, built once per pulse;
    # rescale makes a new pulse and with it an empty table
    _segments: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"direction must have shape ({self.dim},)")
        if self.envelope not in ("sin2", "gauss"):
            raise ValueError(f"unknown envelope {self.envelope!r}")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def spatial_halfwidth(self) -> float:
        return self.halfwidth * self.scale

    def is_off(self, t: float) -> bool:
        return t <= self.t0 or t >= self.t1

    def env(self, t: float) -> float:
        if self.is_off(t):
            return 0.0
        if self.envelope == "sin2":
            return np.sin(np.pi * (t - self.t0) / (self.t1 - self.t0)) ** 2
        tc, tau = 0.5 * (self.t0 + self.t1), (self.t1 - self.t0) / 8.0
        return float(np.exp(-((t - tc) / tau) ** 2) - np.exp(-16.0))

    def denv(self, t: float) -> float:
        """d env / dt."""
        if self.is_off(t):
            return 0.0
        if self.envelope == "sin2":
            om = np.pi / (self.t1 - self.t0)
            return om * np.sin(2 * om * (t - self.t0))
        tc, tau = 0.5 * (self.t0 + self.t1), (self.t1 - self.t0) / 8.0
        return float(-2 * (t - tc) / tau ** 2 * np.exp(-((t - tc) / tau) ** 2))

    def _inside(self, x) -> bool:
        return bool(np.all(np.abs(np.asarray(x, dtype=float) / self.scale)
                           <= self.halfwidth + 1e-12))

    def amplitude(self, t: float) -> np.ndarray:
        """eta env(t) w, the value of A on the plateau."""
        return self.eta * (self.env(t) * self.w)

    def __call__(self, t: float, x) -> np.ndarray:
        if self.is_off(t) or not self._inside(x):
            return np.zeros(self.dim)
        return self.amplitude(t)

    def electric(self, t: float, x) -> np.ndarray:
        if self.is_off(t) or not self._inside(x):
            return np.zeros(self.dim)
        return self.eta * (-self.denv(t) * self.w)

    def _plateau_fraction(self, x, y) -> float:
        """Fraction of the segment [x, y] inside the closed plateau.

        A coordinate that stays fixed along the segment obeys the pointwise
        rule (a bond in the plateau's boundary face is inside); along a moving
        coordinate the overlap is exact, so a segment that only touches the
        plateau at an endpoint gets exactly 0.  Both orientations are measured
        from the same endpoint, so the fraction is exactly symmetric.
        """
        x, y = (np.asarray(p, dtype=float) for p in sorted((tuple(x), tuple(y))))
        dx = y - x
        edge = self.halfwidth * self.scale
        lo, hi = 0.0, 1.0
        for xk, dk in zip(x, dx):
            if dk == 0.0:
                if abs(xk / self.scale) > self.halfwidth + 1e-12:
                    return 0.0
            else:
                a, b = sorted(((-edge - xk) / dk, (edge - xk) / dk))
                lo, hi = max(lo, a), min(hi, b)
        return max(hi - lo, 0.0)

    def segment(self, x, y) -> tuple[np.ndarray, float]:
        """(y - x, fraction of the bond [x, y] on the plateau), computed once
        per bond orientation and pulse; y - x is read-only."""
        seg = self._segments.get((x, y))
        if seg is None:
            dx = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
            dx.flags.writeable = False
            seg = self._segments[(x, y)] = dx, self._plateau_fraction(x, y)
        return seg

    def bond_weight(self, x, y) -> float:
        """(w . (y - x)) times the fraction of the bond on the plateau: the
        spatial factor of the bond's field, exactly antisymmetric."""
        dx, frac = self.segment(x, y)
        return float(np.dot(self.w, dx)) * frac


def integrated_field(a: FlatPulse, t: float, bond) -> float:
    """E_t^A(x) = int_0^1 [E(t, alpha x2 + (1-alpha) x1)](x2 - x1) dalpha.

    E is constant on the plateau, so this is -eta env'(t) times the bond
    weight."""
    if a.is_off(t):
        return 0.0
    return float(-a.eta * a.denv(t) * a.bond_weight(*bond))


def bond_phase(a: FlatPulse, t: float, x: Site, y: Site) -> float:
    """int_0^1 [A(t, alpha y + (1-alpha) x)](y - x) dalpha (Peierls argument),
    eta env(t) (w . (y - x)) times the fraction of the bond on the plateau."""
    if a.is_off(t):
        return 0.0
    dx, frac = a.segment(x, y)
    return float(np.dot(a.amplitude(t), dx)) * frac


def rescale(a: FlatPulse, l: float, eta: float) -> FlatPulse:
    """A_l(t, x) = eta * A(t, x / l): spatial dilation plus strength scaling."""
    if l <= 0:
        raise ValueError("rescale needs l > 0")
    return replace(a, scale=a.scale * l, eta=a.eta * eta)


def check_field_margin(a: FlatPulse, box: Box, ip: InterparticleInteraction) -> None:
    """Warn when the field support comes within (interaction range + 2) sites
    of the box boundary; finite-volume surrogates assume that margin."""
    l_box = max(abs(c) for s in box.sites for c in s)
    margin = l_box - a.spatial_halfwidth
    needed = (ip.range_ if ip.kind == "density-density" else 0) + 2
    if margin < needed:
        warnings.warn(
            f"field halfwidth {a.spatial_halfwidth} within {margin} sites of the "
            f"box boundary (safe margin {needed})",
            BoundaryProximityWarning,
            stacklevel=2,
        )


# ---------------------------------------------------------------------------
# one-particle matrices
# ---------------------------------------------------------------------------

def build_hopping(box: Box, omega: DisorderSample, theta: float) -> np.ndarray:
    """Discrete Laplacian with hopping disorder: diagonal 2d, bond entries
    -(1 + theta*omega2) (entry row x, column x+e_j carries omega2 unconjugated)."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    n = len(box)
    h = np.zeros((n, n), dtype=complex)
    d = box.dim
    np.fill_diagonal(h, 2.0 * d)
    for (x, y) in box.bonds:  # y = x + e_j by canonical ordering
        i, j = box.index[x], box.index[y]
        h[i, j] = _hopping_entry(box, omega, theta, x, y)
        h[j, i] = np.conj(h[i, j])
    return h


def potential_diagonal(box: Box, omega: DisorderSample) -> np.ndarray:
    return np.array([omega.site(s) for s in box.sites], dtype=float)


# ---------------------------------------------------------------------------
# many-body observables
# ---------------------------------------------------------------------------

def _hopping_entry(box: Box, omega: DisorderSample, theta: float, x: Site, y: Site) -> complex:
    """Entry <e_x, Delta e_y> without building the full matrix."""
    if not box.has_bond(x, y):
        raise NotABondError(f"({x}, {y}) is not a nearest-neighbor bond of the box")
    z = omega.bond(x, y)
    lo, hi = (x, y) if x <= y else (y, x)
    val = -(1.0 + theta * z)  # row lo, column hi
    return val if (x, y) == (lo, hi) else np.conj(val)


def _scatter_bonds(rep: FockRep, box: Box, bonds, omega: DisorderSample, theta: float,
                   pair: Callable[[tuple, complex], tuple[complex, complex]],
                   layout: BlockLayout | None = None):
    """sum_b (f a_x1^* a_x2 + g a_x2^* a_x1) with (f, g) = pair(b, c_b), scattered
    from the hop triples with one index array (rep.scatter_plan); distinct
    bonds have disjoint supports, so the sum holds exactly the entries of the
    single-bond matrices.  The dense matrix, or with a layout the tuple of
    its blocks over it (a bond sum conserves the particle number)."""
    target = whole_layout(rep.dim) if layout is None else layout
    positions, signs, counts = rep.scatter_plan(bonds, target)
    fg = np.array([pair(b, _hopping_entry(box, omega, theta, *b)) for b in bonds],
                  dtype=complex).reshape(-1)  # f1, g1, f2, g2, ...
    buf = np.zeros(target.size, dtype=complex)
    buf[positions] += np.repeat(fg, counts) * signs
    blocks = target.split(buf)
    return blocks[0] if layout is None else blocks


def _quadratic(rep: FockRep, box: Box, one_particle: np.ndarray) -> np.ndarray:
    """sum_{x,y} M_{xy} a_x^dagger a_y over the nonzero entries of M."""
    h = np.zeros((rep.dim, rep.dim), dtype=complex)
    sites = box.sites
    for i, j in zip(*np.nonzero(one_particle)):
        rows, cols, signs = rep.hop(sites[i], sites[j])
        h[rows, cols] += one_particle[i, j] * signs
    return h


def box_extent(box: Box) -> int:
    """2 max |x_i| + 1 over the box: the longest density-density range it admits."""
    return 2 * max(abs(c) for s in box.sites for c in s) + 1


def interaction_matrix(rep: FockRep, box: Box, ip: InterparticleInteraction) -> np.ndarray:
    """Sum of the interparticle terms (diagonal in the occupation basis)."""
    if ip.kind == "density-density" and ip.range_ > box_extent(box):
        raise RangeExceedsBoxError(
            f"interaction range {ip.range_} exceeds box extent {box_extent(box)}")
    diag = np.zeros(rep.dim, dtype=complex)
    for supp, c in ip.pair_terms(box):
        occupied = np.logical_and.reduce([rep.occupied(s) for s in supp])
        diag[occupied] += c
    return np.diag(diag)


def build_hamiltonian(rep: FockRep, box: Box, omega: DisorderSample, theta: float,
                      lam: float, ip: InterparticleInteraction) -> np.ndarray:
    """H_L = sum <e_x,(Delta + lambda V) e_y> a_x* a_y + interparticle terms."""
    one = build_hopping(box, omega, theta) + lam * np.diag(potential_diagonal(box, omega))
    return _quadratic(rep, box, one) + interaction_matrix(rep, box, ip)


def build_w(rep: FockRep, box: Box, omega: DisorderSample, theta: float,
            a: FlatPulse, t: float, layout: BlockLayout | None = None):
    """W_t = sum <e_x,(Delta^A - Delta) e_y> a_x* a_y; zero outside [t0, t1].

    Only bond entries carry a Peierls phase, so W_t is the bond sum of
    (c e^{i phi} - c) a_x* a_y + h.c. with c = <e_x, Delta e_y>.  Dense, or
    with a layout the tuple of W_t's blocks over it, scattered straight into
    them: W_t conserves the particle number."""
    if a.is_off(t):
        zero = rep.zero()
        return zero if layout is None else layout.gather(zero)

    def pair(bond, c):
        cp = c * np.exp(1j * bond_phase(a, t, *bond))
        return cp - c, np.conj(cp) - np.conj(c)

    return _scatter_bonds(rep, box, box.bonds, omega, theta, pair, layout)


def w_time_derivative(rep: FockRep, box: Box, omega: DisorderSample, theta: float,
                      a: FlatPulse, t: float, h: float = 1e-6) -> np.ndarray:
    """Central finite difference of t -> W_t on the drive grid."""
    wp = build_w(rep, box, omega, theta, a, t + h)
    wm = build_w(rep, box, omega, theta, a, t - h)
    return (wp - wm) / (2 * h)
