"""Current observables, transport coefficients, driven currents, Ohm's law,
Duhamel fluctuations and the finite-volume Green-Kubo residual.

The paramagnetic coefficient sigma_p(x, y, t) = int_0^t rho(i[I_y, tau_s(I_x)]) ds
is evaluated in closed form over Bohr frequencies: with J in the eigenbasis,

    sigma_p = sum_{m,n} (I_y)_{mn} (I_x)_{nm} (p_m - p_n) (e^{i t nu} - 1)/nu,

nu = E_n - E_m (degenerate pairs drop out since p_m = p_n).  The literal time
quadrature of the defining integral is kept in the tests as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .csvout import write_csv
from .equilibrium import GibbsState, _cumulative_simpson, _simpson_weights, \
    _uniform_step, bohr_pairs, drive_layout, duhamel_pair_eig, evolve, free_after_pulse
from .fock import FockRep
from .lattice import Box, DisorderSample, Site, shift
from .model import FlatPulse, NotABondError, _scatter_bonds, bond_phase, \
    build_hamiltonian, build_w, InterparticleInteraction


class SupportOverflowError(Exception):
    pass


def axis_bonds(box: Box, k: int) -> list:
    """Oriented bonds (x + e_k, x) of the box along axis k, in site order."""
    e = np.eye(box.dim, dtype=int)[k]
    return [(shift(x, e), x) for x in box.sites if shift(x, e) in box.index]


def current_obs(rep: FockRep, box: Box, bonds, omega: DisorderSample,
                theta: float) -> np.ndarray:
    """sum over oriented bonds (x1, x2) of I = -2 Im(<e_x1, Delta e_x2> a_x1^* a_x2)
    = i(c a1* a2 - conj(c) a2* a1); a single bond is passed as [bond]."""
    return _scatter_bonds(rep, box, bonds, omega, theta,
                          lambda _, c: (1j * c, -1j * np.conj(c)))


def paramagnetic_partner_obs(rep: FockRep, box: Box, bonds, omega: DisorderSample,
                             theta: float) -> np.ndarray:
    """sum over oriented bonds (x1, x2) of P = 2 Re(<e_x1, Delta e_x2> a_x1^* a_x2)."""
    return _scatter_bonds(rep, box, bonds, omega, theta, lambda _, c: (c, np.conj(c)))


def diamagnetic_obs(rep: FockRep, box: Box, bonds, omega: DisorderSample, theta: float,
                    a: FlatPulse, t: float) -> np.ndarray:
    """sum over oriented bonds of the field correction to the bond current: the
    Peierls factor appears with a conjugated phase, (e^{-i arg} - 1), so that
    the eta-derivative reproduces the diamagnetic Ohm coefficient; a single
    bond is passed as [bond]."""
    if a.is_off(t):
        return rep.zero()

    def pair(bond, c):
        coef = (np.exp(-1j * bond_phase(a, t, *bond)) - 1.0) * c
        return 1j * coef, -1j * np.conj(coef)

    return _scatter_bonds(rep, box, bonds, omega, theta, pair)


@dataclass
class TransportSeries:
    """Sampled Xi_p(t) (d x d per time) plus the constant diagonal Xi_d."""

    times: np.ndarray
    xi_p: np.ndarray  # shape (nt, d, d)
    xi_d: np.ndarray  # shape (d, d), diagonal
    provenance: dict = field(default_factory=dict)
    stderr_p: Optional[np.ndarray] = None
    stderr_d: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.xi_d.shape[0]

    def to_csv(self, path) -> Path:
        d = self.dim
        cols = ["t"] + [f"xi_p[{k}][{q}]" for k in range(d) for q in range(d)]
        rows = [[t, *self.xi_p[i].ravel()] for i, t in enumerate(self.times)]
        rows.append(["xi_d", *self.xi_d.ravel()])
        return write_csv(path, cols, rows, self.provenance)


class TransportKernel:
    """Bohr-frequency representation of the coefficients averaged over the box;
    bonds (x, x+e_k) are included only when both endpoints lie in the box.
    """

    def __init__(self, rep: FockRep, box: Box, omega: DisorderSample, theta: float,
                 state: GibbsState):
        self.rep, self.box, self.omega, self.theta, self.state = rep, box, omega, theta, state
        self.dim_space = box.dim
        sd = state.spectral
        self.volume = len(box)

        # summed directional currents J_k over the box, in the eigenbasis, and
        # Xi_d from the summed kinetic partners: one bond sum per axis
        self._bond_cache: dict = {}
        self._j_eig = []
        self._xi_d = np.zeros((box.dim, box.dim))
        for k in range(box.dim):
            bonds = axis_bonds(box, k)
            self._j_eig.append(sd.to_eigenbasis(current_obs(rep, box, bonds, omega, theta)))
            self._xi_d[k, k] = state.expect(
                paramagnetic_partner_obs(rep, box, bonds, omega, theta)).real / self.volume

        # pair data: nu_{mn} = E_n - E_m at [m, n], the Duhamel weight g_mn
        self.bohr, self.pair_weight, self._tiny = bohr_pairs(state)
        self._scale = max(1.0, float(np.abs(sd.eigenvalues).max()))

        # one-sided atoms of the space-averaged coefficient
        self._build_atoms(1e-9 * self._scale)

    # -- atom assembly ------------------------------------------------------

    def _build_atoms(self, tol: float) -> None:
        d = self.dim_space
        mask = (self.bohr > 1e-12 * self._scale)
        nus = self.bohr[mask]
        order = np.argsort(nus)
        nus = nus[order]
        g = self.pair_weight[mask][order]
        # numerically-degenerate (|nu| ~ 0) residual weight, reported not asserted
        zmask = self._tiny & ~np.eye(len(self.state.weights), dtype=bool)
        gz, nu2 = self.pair_weight[zmask], self.bohr[zmask] ** 2
        coeffs = np.empty((d, d, len(nus)), dtype=complex)
        self.zero_weight = np.zeros((d, d))
        self.zero_weight_nu2 = np.zeros((d, d))  # nu^2-weighted view for mu({0})
        for k in range(d):
            for q in range(d):
                c = self._j_eig[k] * self._j_eig[q].T  # (J_k)_{mn} (J_q)_{nm}
                coeffs[k, q] = c[mask][order] * g
                cz = c[zmask] * gz
                self.zero_weight[k, q] = cz.sum().real / self.volume
                self.zero_weight_nu2[k, q] = (cz * nu2).sum().real / self.volume
        del c  # a dense dim x dim product: free it before the merge
        # merge runs of frequencies with gaps <= tol; drop weightless groups.
        # Runs of one length are summed together as the rows of one contiguous
        # array: the same pairwise reduction np.sum gives a single run, so the
        # atoms do not depend on how the runs are batched.
        starts = np.flatnonzero(np.diff(nus, prepend=-np.inf) > tol)
        lengths = np.diff(starts, append=len(nus))
        sums = np.empty((d, d, len(starts)), dtype=complex)
        nu_sums = np.empty(len(starts))
        for n in np.flatnonzero(np.bincount(lengths)):
            runs = lengths == n
            idx = starts[runs, None] + np.arange(n)
            sums[:, :, runs] = np.take(coeffs, idx, axis=2).sum(axis=3)
            nu_sums[runs] = np.take(nus, idx).sum(axis=1)
        keep = np.abs(sums).max(axis=(0, 1), initial=0.0) > 1e-14
        self.atom_nu = nu_sums[keep] / lengths[keep]
        catoms = np.ascontiguousarray(np.moveaxis(sums[:, :, keep], 2, 0)) / self.volume
        # Xi(t) = sum_nu 2[Re C (cos - 1) - Im C sin]
        self.atom_sym = catoms.real  # PSD micro-measure weights at +nu (and mirrored)
        self.atom_asym = catoms.imag

    # -- coefficient evaluation ---------------------------------------------

    def xi_p(self, t) -> np.ndarray:
        """Xi_{p,l}(t), exactly zero matrix at t = 0."""
        return self.xi_plus(t) + self.xi_minus(t)

    def xi_plus(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        cosm1 = np.cos(np.multiply.outer(t, self.atom_nu)) - 1.0
        return 2.0 * np.tensordot(cosm1, self.atom_sym, axes=([-1], [0]))

    def xi_minus(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        sin = np.sin(np.multiply.outer(t, self.atom_nu))
        return -2.0 * np.tensordot(sin, self.atom_asym, axes=([-1], [0]))

    def xi_minus_sup(self) -> float:
        """Upper bound sup_t ||[Xi_p(t)]_-||_2 <= 2 sum_nu ||Im C(nu)||_2."""
        return float(sum(2.0 * np.linalg.norm(a, 2) for a in self.atom_asym))

    def xi_d(self) -> np.ndarray:
        return self._xi_d.copy()

    def series(self, times, provenance: Optional[dict] = None) -> TransportSeries:
        times = np.asarray(times, dtype=float)
        return TransportSeries(times, self.xi_p(times), self.xi_d(),
                               dict(provenance or {}))

    # -- per-bond coefficients ----------------------------------------------

    def bond_current_eig(self, bond) -> np.ndarray:
        key = ("I", bond)
        if key not in self._bond_cache:
            mat = current_obs(self.rep, self.box, [bond], self.omega, self.theta)
            self._bond_cache[key] = self.state.spectral.to_eigenbasis(mat)
        return self._bond_cache[key]

    def sigma_p(self, bx, by, t) -> np.ndarray:
        """sigma_p(bx, by, t) for oriented bonds; t scalar or grid."""
        ix = self.bond_current_eig(bx)
        iy = self.bond_current_eig(by)
        c = (iy * ix.T) * self.pair_weight  # over (m, n)
        return self._pair_series(c, t)

    def _pair_series(self, c: np.ndarray, t) -> np.ndarray:
        """sum_{mn} c_{mn} (e^{i t nu_{mn}} - 1) with the degenerate t-linear limit."""
        t = np.asarray(t, dtype=float)
        nu = self.bohr
        reg = ~self._tiny
        cr, nur = c[reg], nu[reg]
        phases = np.exp(1j * np.multiply.outer(t, nur)) - 1.0
        out = phases @ cr
        # |nu| ~ 0 pairs add i t sum c nu, the first-order term of e^{i t nu} - 1
        ct = c[self._tiny]
        if ct.size:
            out = out + np.multiply.outer(t, 1j * (ct * nu[self._tiny]).sum())
        return out.real if out.ndim else float(out.real)

    def sigma_d(self, bond) -> float:
        mat = paramagnetic_partner_obs(self.rep, self.box, [bond], self.omega, self.theta)
        return float(self.state.expect(mat).real)


def thermal_current(kernel: TransportKernel) -> np.ndarray:
    """J_th[k] = |Lambda|^-1 sum_x rho(I_(x+e_k, x)), read off the kernel's
    eigenbasis bond sums."""
    return np.array([kernel.state.expect_eig(j).real / kernel.volume for j in kernel._j_eig])


# ---------------------------------------------------------------------------
# disorder averaging
# ---------------------------------------------------------------------------

def disorder_average(builder: Callable[[int], TransportSeries], n_samples: int) -> TransportSeries:
    """Monte Carlo mean and standard error over derived disorder streams.

    builder(i) must return the TransportSeries of realization i; the reduction
    order is fixed (ascending i), so results are reproducible and independent
    of any parallel execution of the builders.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2 for a standard error")
    series = [builder(i) for i in range(n_samples)]
    xi_p = np.stack([s.xi_p for s in series])
    xi_d = np.stack([s.xi_d for s in series])
    mean = TransportSeries(
        series[0].times, xi_p.mean(axis=0), xi_d.mean(axis=0),
        {"provenance": f"disorder-averaged over {n_samples} samples"})
    mean.stderr_p = xi_p.std(axis=0, ddof=1) / np.sqrt(n_samples)
    mean.stderr_d = xi_d.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return mean


# ---------------------------------------------------------------------------
# driven current densities
# ---------------------------------------------------------------------------

@dataclass
class CurrentDensityTrace:
    times: np.ndarray
    j_th: np.ndarray   # (d,)
    j_p: np.ndarray    # (nt, d)
    eta: float


def drive(rep: FockRep, box: Box, omega: DisorderSample, theta: float, h0: np.ndarray,
          state: GibbsState, a: FlatPulse, times, dt: float,
          observe: Callable[[float, np.ndarray], object]) -> list:
    """Evolve the state's density under H0 + W_t(a) and observe it on the grid.

    The sector decision is drive_layout's, and W_t is scattered straight into
    its blocks; after the pulse the evolution is the exact rotation in the
    state's eigenbasis when that is the eigenbasis of H0 (free_after_pulse).
    """
    rho0 = state.density
    layout = drive_layout(h0, rho0)
    h0_blocks = layout.gather(h0)

    def h_of_t(t):
        w = build_w(rep, box, omega, theta, a, t, layout)
        return tuple(hk + wk for hk, wk in zip(h0_blocks, w))

    return evolve(rho0, h_of_t, times, dt, observe,
                  free_after_pulse(a.t1, state.spectral, h0), layout)


def driven_currents(rep: FockRep, box: Box, omega: DisorderSample, theta: float,
                    lam: float, ip: InterparticleInteraction, state: GibbsState,
                    a: FlatPulse, times, dt: float) -> CurrentDensityTrace:
    """J_p along the driven evolution generated by H + W_t(A), A already scaled
    (its strength eta = a.eta)."""
    times = np.asarray(times, dtype=float)
    h0 = build_hamiltonian(rep, box, omega, theta, lam, ip)
    vol = len(box)

    para_ops = [current_obs(rep, box, axis_bonds(box, k), omega, theta)
                for k in range(box.dim)]

    j_th = np.array([state.expect(op).real / vol for op in para_ops])

    if a.eta == 0.0:
        return CurrentDensityTrace(times, j_th, np.zeros((len(times), box.dim)), 0.0)

    def observe(t, rho):
        return [np.einsum("ij,ji->", rho, op).real / vol - jt
                for op, jt in zip(para_ops, j_th)]

    j_p = np.array(drive(rep, box, omega, theta, h0, state, a, times, dt, observe))
    return CurrentDensityTrace(times, j_th, j_p, a.eta)


def ohm_linear(kernel: TransportKernel, efield: Callable[[float], float], w,
               times, efield_integral: Optional[Callable[[float], float]] = None,
               transpose_kernel: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Linear-response coefficients of Ohm's law on the grid:
    J_p(t) = int_{t0}^t (Xi_p(t-s) w) E_s ds,   J_d(t) = (Xi_d w) int_{t0}^t E_s ds.

    In the Weyl gauge int E = -amplitude(t) is known in closed form; pass it
    as efield_integral so the AC-condition (J_d = 0 after the pulse) holds
    exactly instead of to quadrature error.

    transpose_kernel=True convolves with Xi_p(t-s)^T instead.  A first-order
    Dyson expansion shows the measured response of the driven system follows
    the transposed kernel; the two coincide for d=1 and whenever the
    antisymmetric part [Xi_p]_- vanishes (time-reversal symmetric ensembles),
    which is where the plain convolution form is quoted.
    """
    times = np.asarray(times, dtype=float)
    w = np.asarray(w, dtype=float)
    d = kernel.dim_space
    h = _uniform_step(times, "ohm_linear")
    evals = np.array([efield(s) for s in times])
    # all differences t_i - t_j live on the same uniform grid
    xi_series = kernel.xi_p(times - times[0])
    if transpose_kernel:
        xi_series = np.transpose(xi_series, (0, 2, 1))
    xi_diff = xi_series @ w  # (nt, d)
    j_p = np.zeros((len(times), d))
    for i in range(1, len(times)):
        kernel_vals = xi_diff[i::-1]  # Xi((t_i - t_j)) w for j = 0..i
        wts = _simpson_weights(i, h)
        j_p[i] = wts @ (kernel_vals * evals[:i + 1, None])
    if efield_integral is not None:
        cum = np.array([efield_integral(t) for t in times])
    else:
        cum = _cumulative_simpson(evals, h)
    j_d = np.outer(cum, kernel.xi_d() @ w)
    return j_p, j_d


def pulse_efield_and_integral(a_base, w):
    """(E_s, int_{t0}^t E) of a flat pulse in direction w, taken at the origin;
    the integral is -amplitude(t) exactly (Weyl gauge, A(t0) = 0)."""
    w = np.asarray(w, dtype=float)
    origin = np.zeros(a_base.dim)
    wn = w / np.dot(w, w)

    def efield(s):
        return float(np.dot(a_base.electric(s, origin), wn))

    def integral(t):
        return -float(np.dot(a_base(t, origin), wn))

    return efield, integral


# ---------------------------------------------------------------------------
# fluctuation observables and Green-Kubo residual
# ---------------------------------------------------------------------------

def fluctuation(builder: Callable[[Site], np.ndarray], xs, state: GibbsState) -> np.ndarray:
    """F^(l)(B) = |Lambda|^{-1/2} sum_x (chi_x(B) - rho(chi_x(B)) 1).

    builder(x) realizes the translate chi_x(B); xs lists the translates that
    fit inside the box (interior-restricted sum).
    """
    xs = list(xs)
    if not xs:
        raise SupportOverflowError("no translate of the observable fits in the box")
    dim = state.spectral.dim  # the translates act on the state's Fock space
    tot = np.zeros((dim, dim), dtype=complex)
    for x in xs:
        mat = builder(x)
        tot += mat - state.expect(mat) * np.eye(dim)
    return tot / np.sqrt(len(xs))


def green_kubo_residual(kernel: TransportKernel, times) -> dict:
    """Duhamel fluctuation increment vs Xi_p,l, entry-wise max over the grid.

    increment(t)_{kq} = (F(I_k), tau_t(F(I_q)))_~ - (F(I_k), F(I_q))_~ with the
    translates of the unit-bond currents summed over the averaging box.
    """
    box, rep, state = kernel.box, kernel.rep, kernel.state
    sd = state.spectral
    d = box.dim
    flucts = []
    for k in range(d):
        # the translates of the unit-bond current are labelled by their bonds
        fk = fluctuation(lambda b: current_obs(rep, box, [b], kernel.omega, kernel.theta),
                         axis_bonds(box, k), state)
        flucts.append(sd.to_eigenbasis(fk))
    times = np.asarray(times, dtype=float)
    inc = np.zeros((len(times), d, d))
    base = np.array([[duhamel_pair_eig(flucts[k], flucts[q], state).real
                      for q in range(d)] for k in range(d)])
    e = sd.eigenvalues
    for it, t in enumerate(times):
        phase = np.exp(1j * t * e)
        for q in range(d):
            fq_t = phase[:, None] * flucts[q] * phase.conj()[None, :]
            for k in range(d):
                inc[it, k, q] = duhamel_pair_eig(flucts[k], fq_t, state).real - base[k, q]
    xi = kernel.xi_p(times)
    resid = np.abs(inc - xi)
    return {"times": times, "increment": inc, "xi_p": xi,
            "max_residual": float(resid.max()), "residual": resid}
