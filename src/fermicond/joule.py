"""Energy increments, heat production, the Joule integrand X_l and the
macroscopic Joule's-law identities at desk scale.

All four energy increments come from one driven evolution:

    S(t)  = rho_t(H) - rho(H)            internal / heat production
    P(t)  = rho_t(W_t)                   electromagnetic potential
    Ip(t) = rho_t(H + W_t) - rho(H + W_t)
    Id(t) = rho(W_t)

satisfying S + P = Ip + Id identically.  The second-order coefficient of Ip
is eta^2 l^d int int X_l with

    X_l(s1, s2) = l^-d sum_{b, b'} sigma_p(b, b', s1 - s2) E_{s1}(b) E_{s2}(b')

summed over unordered bond pairs (canonical orientation; every factor pair is
orientation-invariant), and densities are normalized by eta^2 l^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .equilibrium import GibbsState, _cumulative_simpson, _simpson_weights, evolve
from .fock import FockRep
from .lattice import Box
from .model import (FlatPulse, InterparticleInteraction, bond_phase,
                    build_hamiltonian, build_w, check_field_margin, integrated_field,
                    rescale)
from .transport import TransportKernel, ohm_linear, paramagnetic_partner_obs, \
    pulse_efield_and_integral


@dataclass
class EnergyTrace:
    """Internal, potential, paramagnetic and diamagnetic increments per time."""

    times: np.ndarray
    S: np.ndarray
    P: np.ndarray
    Ip: np.ndarray
    Id: np.ndarray
    eta: float
    l: float
    provenance: dict = field(default_factory=dict)

    def balance_defect(self) -> float:
        """max |S + P - Ip - Id| over the grid (identity up to roundoff)."""
        return float(np.abs(self.S + self.P - self.Ip - self.Id).max())

    def normalization(self) -> float:
        d = self.provenance.get("d", 1)
        return self.eta ** 2 * self.l ** d


def energy_increments(rep: FockRep, box: Box, omega, theta: float, lam: float,
                      ip: InterparticleInteraction, state: GibbsState,
                      a_base: FlatPulse, eta: float, l: float, times,
                      dt: float, warn_margin: bool = True) -> EnergyTrace:
    """Drive with H + W_t(eta A_l) and record the four increments on the grid."""
    times = np.asarray(times, dtype=float)
    a_scaled = rescale(a_base, l, eta)
    if warn_margin:
        check_field_margin(a_scaled, box, ip)
    h0 = build_hamiltonian(rep, box, omega, theta, lam, ip).mat
    e_h0 = state.expect(h0).real

    def w_mat(t):
        return build_w(rep, box, omega, theta, a_scaled, t).mat

    def h_of_t(t):
        return h0 + w_mat(t)

    def observe(t, rho):
        wt = w_mat(t)
        e_wt = state.expect(wt).real
        return (np.einsum("ij,ji->", rho, h0).real - e_h0,  # S
                np.einsum("ij,ji->", rho, wt).real,  # P
                # Ip by an independent route, for the balance check S + P = Ip + Id
                np.einsum("ij,ji->", rho, h0 + wt).real - (e_h0 + e_wt),
                e_wt)  # Id

    if eta == 0.0:
        S, P, Ip, Id = np.zeros((4, len(times)))
    else:
        S, P, Ip, Id = map(np.array, zip(*evolve(state.density, h_of_t, times, dt, observe)))
    prov = {"eta": eta, "l": l, "d": box.dim, "beta": state.beta, "theta": theta,
            "lambda": lam}
    return EnergyTrace(times, S, P, Ip, Id, eta, l, prov)


# ---------------------------------------------------------------------------
# the X integrand
# ---------------------------------------------------------------------------

@dataclass
class JouleIntegrand:
    """X_l sampled on a 2-D time grid."""

    s_grid: np.ndarray
    x_l: np.ndarray            # (ns, ns) with [i1, i2] = X_l(s1_i1, s2_i2)
    l: float

    def double_integral(self, t: float) -> float:
        """int_{t0}^t ds1 int_{t0}^{s1} ds2 X(s1, s2) by iterated Simpson."""
        return _double_time_integral(self.s_grid, self.x_l, t)


def _double_time_integral(s_grid: np.ndarray, x: np.ndarray, t: float) -> float:
    sel = s_grid <= t + 1e-12
    ts = s_grid[sel]
    n = len(ts) - 1
    if n < 1:
        return 0.0
    h = ts[1] - ts[0]
    inner = np.zeros(len(ts))
    for i in range(1, len(ts)):
        w = _simpson_weights(i, h)
        inner[i] = w @ x[i, :i + 1]
    w_out = _simpson_weights(n, h)
    return float(w_out @ inner)


def joule_integrand_x(kernel: TransportKernel, a_base: FlatPulse, l: float,
                      s_grid) -> JouleIntegrand:
    """Sample X_l(s1, s2) over the grid using the spectral pair representation.

    The sum runs over the box's unordered bonds weighted by the integrated
    electric field of the rescaled potential A_l (unit strength; the eta
    scaling is external).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    d = kernel.box.dim
    _, _, k_eig = _bond_field_weights(kernel, rescale(a_base, l, 1.0), s_grid)
    g = kernel.pair_weight
    reg = ~kernel._tiny
    phase = np.exp(1j * np.multiply.outer(s_grid, kernel.bohr[reg]))  # (ns, n_reg)
    k_reg = np.stack([k[reg] for k in k_eig])                         # (ns, n_reg)
    a = np.stack([(k.T * g)[reg] for k in k_eig])  # source coefficients, s1 slot
    # sum_r a[s1, r] k[s2, r] (e^{i (s1 - s2) nu_r} - 1) as two matrix products;
    # the phases go on in place so no array outgrows (ns, n_reg)
    x_l = -(a @ k_reg.T).real
    a *= phase
    k_reg *= np.conj(phase, out=phase)
    x_l += (a @ k_reg.T).real
    return JouleIntegrand(s_grid, x_l / l ** d, l)


def x_infinity(xi_fn: Callable[[np.ndarray], np.ndarray], a_base: FlatPulse,
               s_grid, n_space: int = 64) -> np.ndarray:
    """X_inf(s1, s2) = sum_{k,q} Xi_{kq}(s1 - s2) * int E_k(s1, x) E_q(s2, x) dx.

    The spatial integral uses the unrescaled field over its support, by
    midpoint quadrature on a tensor grid (refine n_space to check convergence);
    flat_pulse_x_infinity evaluates the separable case exactly.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    d = a_base.dim
    ns = len(s_grid)
    # tensor midpoint grid over the support
    hw = a_base.spatial_halfwidth
    axes = [np.linspace(-hw, hw, n_space, endpoint=False) + hw / n_space for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = (2 * hw / n_space) ** d
    e_vals = np.zeros((ns, len(pts), d))
    for i, s in enumerate(s_grid):
        if not a_base.is_off(s):
            for j, x in enumerate(pts):
                e_vals[i, j] = a_base.electric(s, x)
    # int E_k(s1,x) E_q(s2,x) dx for all pairs
    space = np.einsum("ipk,jpq->ijkq", e_vals, e_vals) * cell
    xi_cache = {}

    def xi_at(dt):
        key = round(float(dt), 12)
        if key not in xi_cache:
            xi_cache[key] = xi_fn(np.array([dt]))[0]
        return xi_cache[key]

    out = np.zeros((ns, ns))
    for i1 in range(ns):
        for i2 in range(ns):
            if space[i1, i2].any():
                out[i1, i2] = np.sum(xi_at(s_grid[i1] - s_grid[i2]) * space[i1, i2])
    return out


def flat_pulse_x_infinity(xi_fn, a_base: FlatPulse, w, s_grid) -> np.ndarray:
    """Exact X_inf for the spatially flat pulse: chi = indicator of the support,
    so int E_k E_q dx = (2 hw)^d eps(s1) eps(s2) w_k w_q."""
    s_grid = np.asarray(s_grid, dtype=float)
    w = np.asarray(w, dtype=float)
    vol = (2.0 * a_base.spatial_halfwidth) ** a_base.dim
    efield, _ = pulse_efield_and_integral(a_base, w)
    eps = np.array([efield(s) for s in s_grid])
    ns = len(s_grid)
    out = np.zeros((ns, ns))
    diffs = {}
    for i1 in range(ns):
        for i2 in range(ns):
            key = round(float(s_grid[i1] - s_grid[i2]), 12)
            if key not in diffs:
                xi = xi_fn(np.array([s_grid[i1] - s_grid[i2]]))[0]
                diffs[key] = float(w @ xi @ w)
            out[i1, i2] = vol * eps[i1] * eps[i2] * diffs[key]
    return out


# ---------------------------------------------------------------------------
# Joule's-law identity checks
# ---------------------------------------------------------------------------

def paramagnetic_density_check(x_int: JouleIntegrand, t: float,
                               joule_form: float) -> dict:
    """i_p(t) via the double time integral of X vs the Joule double quadrature
    int dx int ds <E, J_p>; the two quadratures are mutual oracles."""
    via_x = x_int.double_integral(t)
    return {"i_p_double_integral": via_x, "i_p_joule_form": joule_form,
            "difference": abs(via_x - joule_form)}


def joule_form_ip(kernel: TransportKernel, a_base: FlatPulse, w, times) -> np.ndarray:
    """int dx int_{t0}^t ds <E(s,x), J_p(s,x)> for the flat pulse, on the grid.

    J_p(s, x) = int_{t0}^s Xi_p(s-r) E(r, x) dr collapses to the volume factor
    times the scalar convolution.
    """
    times = np.asarray(times, dtype=float)
    w = np.asarray(w, dtype=float)
    vol = (2.0 * a_base.spatial_halfwidth) ** a_base.dim
    efield, _ = pulse_efield_and_integral(a_base, w)
    j_p, _ = ohm_linear(kernel, efield, w, times)
    integrand = np.array([efield(s) * float(w @ j_p[i]) for i, s in enumerate(times)])
    h = times[1] - times[0]
    out = np.zeros(len(times))
    for i in range(1, len(times)):
        out[i] = _simpson_weights(i, h) @ integrand[:i + 1]
    return vol * out


def diamagnetic_density(kernel: TransportKernel, a_base: FlatPulse, w, times) -> np.ndarray:
    """i_d(t) = -<w, Xi_d w> * volume * (1/2) (int_{t0}^t eps)^2 for the flat pulse.

    The sign is fixed by the finite-volume limit lim Id/(eta^2 l^d): the
    quadratic Peierls expansion of W_t gives -(phase^2/2) times the kinetic
    bond observable, so the volume * <w, Xi_d w> * (1/2)(int eps)^2 structure
    carries a global minus relative to the naive convolution form.
    """
    times = np.asarray(times, dtype=float)
    w = np.asarray(w, dtype=float)
    vol = (2.0 * a_base.spatial_halfwidth) ** a_base.dim
    efield, _ = pulse_efield_and_integral(a_base, w)
    eps = np.array([efield(s) for s in times])
    cum = _cumulative_simpson(eps, times[1] - times[0])
    return -vol * float(w @ kernel.xi_d() @ w) * 0.5 * cum ** 2


def _bond_field_weights(kernel: TransportKernel, a_l: FlatPulse, s_grid):
    """Canonical bonds, their integrated field per grid time, and the
    field-weighted current sum_b E_s(b) I_b in the eigenbasis per grid time."""
    bonds = list(kernel.box.bonds)
    ew = np.zeros((len(s_grid), len(bonds)))
    for it, s in enumerate(s_grid):
        for ib, b in enumerate(bonds):
            ew[it, ib] = integrated_field(a_l, s, b)
    cur = [kernel.bond_current_eig(b) for b in bonds]
    dimf = kernel.rep.dim
    k_eig = np.zeros((len(s_grid), dimf, dimf), dtype=complex)
    for it in range(len(s_grid)):
        if np.any(ew[it]):
            k_eig[it] = sum(ew[it, ib] * cur[ib] for ib in range(len(bonds)) if ew[it, ib])
    return bonds, ew, k_eig


def correction_term(kernel: TransportKernel, a_base: FlatPulse, l: float,
                    times) -> np.ndarray:
    """Finite-volume correction of Joule's-law items (Q)/(P):

        corr(t) = l^-d sum_{b,b'} [int_{t0}^t E_s(b) ds]
                               * [int_{t0}^t E_r(b') sigma_p(b, b', t - r) dr],

    the exact eta^2-coefficient of (P - Id)/(eta^2 l^d); the macroscopic limit
    is int dx int ds <E(s,x), J_p(t,x)> with J_p frozen at the final time.
    """
    times = np.asarray(times, dtype=float)
    a_l = rescale(a_base, l, 1.0)
    _, _, k_eig = _bond_field_weights(kernel, a_l, times)
    h = times[1] - times[0]
    g, nu = kernel.pair_weight, kernel.bohr
    # cumulative field-weighted current: sum_b [int_{t0}^t E_s(b) ds] I_b
    ka = _cumulative_simpson(k_eig, h)
    out = np.zeros(len(times))
    for it, t in enumerate(times):
        if it == 0 or not np.any(ka[it]):
            continue
        # response factor: int_{t0}^t dr K(r)_{mn} (e^{i (t-r) nu_{mn}} - 1)
        phases = np.exp(1j * np.multiply.outer(t - times[:it + 1], nu)) - 1.0
        wts = _simpson_weights(it, h)
        resp = np.einsum("s,smn,smn->mn", wts, k_eig[:it + 1], phases)
        out[it] = np.einsum("mn,nm,mn->", resp, ka[it], g).real
    return out / l ** kernel.box.dim


def diamagnetic_density_exact(kernel: TransportKernel, a_base: FlatPulse,
                              l: float, times) -> np.ndarray:
    """Exact eta^2-coefficient of Id/(eta^2 l^d):
    -(1/2) l^-d sum_b phase_b(t)^2 rho(P_b)."""
    times = np.asarray(times, dtype=float)
    a_l = rescale(a_base, l, 1.0)
    box = kernel.box
    p_exp = np.array([kernel.state.expect(
        paramagnetic_partner_obs(kernel.rep, box, [b], kernel.omega, kernel.theta).mat).real
        for b in box.bonds])
    out = np.zeros(len(times))
    for it, t in enumerate(times):
        if a_l.is_off(t):
            # cyclic: the Peierls phase vanishes with A
            continue
        phases = np.array([bond_phase(a_l, t, *b) for b in box.bonds])
        out[it] = -0.5 * float(np.dot(phases ** 2, p_exp))
    return out / l ** box.dim


def heat_production_identity(trace: EnergyTrace, kernel: TransportKernel,
                             a_base: FlatPulse, l: float, times) -> dict:
    """Residuals of the (Q) and (P) items of the macroscopic Joule's law at
    finite volume: s(t) = i_p(t) - corr(t), p(t) = i_d(t) + corr(t), with all
    three pieces evaluated as exact finite-volume eta^2-coefficients so the
    normalized residual is O(eta)."""
    times = np.asarray(times, dtype=float)
    x_int = joule_integrand_x(kernel, a_base, l, times)
    i_p_series = np.array([x_int.double_integral(t) for t in times])
    i_d_series = diamagnetic_density_exact(kernel, a_base, l, times)
    corr = correction_term(kernel, a_base, l, times)
    norm = trace.normalization()
    s_resid = np.abs(trace.S / norm - (i_p_series - corr))
    p_resid = np.abs(trace.P / norm - (i_d_series + corr))
    return {
        "times": times,
        "s_density": trace.S / norm, "s_predicted": i_p_series - corr,
        "p_density": trace.P / norm, "p_predicted": i_d_series + corr,
        "max_s_residual": float(s_resid.max()),
        "max_p_residual": float(p_resid.max()),
    }
