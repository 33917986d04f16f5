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
orientation-invariant), and densities are normalized by eta^2 l^d.  The flat
pulse's bond field factorises, E_s(b) = eps(s) w_b, so with the one
field-weighted current K = sum_b w_b I_b

    X_l(s1, s2) = l^-d eps(s1) eps(s2) F(s1 - s2),

where the lag kernel F is sigma_p paired with K on both sides.  On a uniform
grid F is needed only at the lags s_j - s_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .equilibrium import GibbsState, _cumulative_simpson, _simpson_weights, _uniform_step
from .fock import FockRep
from .lattice import Box
from .model import (FlatPulse, InterparticleInteraction, build_hamiltonian, build_w,
                    check_field_margin, rescale)
from .transport import TransportKernel, drive, ohm_linear, pulse_efield_and_integral


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
    """Drive with H + W_t(eta A_l) (transport.drive) and record the four
    increments on the grid."""
    times = np.asarray(times, dtype=float)
    a_scaled = rescale(a_base, l, eta)
    if warn_margin:
        check_field_margin(a_scaled, box, ip)
    h0 = build_hamiltonian(rep, box, omega, theta, lam, ip)
    e_h0 = state.expect(h0).real

    def observe(t, rho):
        wt = build_w(rep, box, omega, theta, a_scaled, t)
        e_wt = 0.0 if a_scaled.is_off(t) else state.expect(wt).real  # W_t = 0 off the pulse
        return (np.einsum("ij,ji->", rho, h0).real - e_h0,  # S
                np.einsum("ij,ji->", rho, wt).real,  # P
                # Ip by an independent route, for the balance check S + P = Ip + Id
                np.einsum("ij,ji->", rho, h0 + wt).real - (e_h0 + e_wt),
                e_wt)  # Id

    if eta == 0.0:
        S, P, Ip, Id = np.zeros((4, len(times)))
    else:
        S, P, Ip, Id = map(np.array, zip(*drive(rep, box, omega, theta, h0, state,
                                                a_scaled, times, dt, observe)))
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


def _lag_kernel(kernel: TransportKernel, a_base: FlatPulse, l: float, grid, who: str):
    """(h, eps, F) on a uniform grid for the rescaled pulse A_l (unit strength).

    eps(s) = -eta env'(s), so the bond field is E_s(b) = eps(s) w_b with
    w_b = bond_weight(b).  With K = sum_b w_b I_b in the eigenbasis (bonds off
    the plateau skipped), F(tau_j) = sum_{mn} Re(K_nm K_mn) g_mn
    (cos(tau_j nu_mn) - 1) over the non-degenerate pairs at tau_j = s_j - s_0,
    one lag at a time; the sine part cancels since K is Hermitian and g
    symmetric.
    """
    h = _uniform_step(grid, who)
    a_l = rescale(a_base, l, 1.0)
    k = np.zeros((kernel.rep.dim, kernel.rep.dim), dtype=complex)
    for b in kernel.box.bonds:
        if wb := a_l.bond_weight(*b):
            k += wb * kernel.bond_current_eig(b)
    reg = ~kernel._tiny
    c = (k.T * k).real[reg] * kernel.pair_weight[reg]
    nu = kernel.bohr[reg]
    f = np.array([c @ (np.cos(tau * nu) - 1.0) for tau in grid - grid[0]])
    return h, np.array([-a_l.eta * a_l.denv(s) for s in grid]), f


def _separable(eps: np.ndarray, lag_series: np.ndarray) -> np.ndarray:
    """[i1, i2] -> eps_i1 eps_i2 F(|i1 - i2| h) on a uniform grid."""
    i = np.arange(len(eps))
    return np.outer(eps, eps) * lag_series[np.abs(np.subtract.outer(i, i))]


def joule_integrand_x(kernel: TransportKernel, a_base: FlatPulse, l: float,
                      s_grid) -> JouleIntegrand:
    """Sample X_l(s1, s2) over a uniform grid from the lag kernel of the
    field-weighted current of the rescaled potential A_l (unit strength; the
    eta scaling is external)."""
    s_grid = np.asarray(s_grid, dtype=float)
    _, eps, f = _lag_kernel(kernel, a_base, l, s_grid, "joule_integrand_x")
    return JouleIntegrand(s_grid, _separable(eps, f) / l ** kernel.box.dim, l)


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
    """Exact X_inf for the spatially flat pulse on a uniform grid: chi =
    indicator of the support, so int E_k E_q dx = (2 hw)^d eps(s1) eps(s2) w_k w_q
    and X_inf = vol eps(s1) eps(s2) G(|s1 - s2|) with G(tau) = w . Xi_p(tau) w."""
    s_grid = np.asarray(s_grid, dtype=float)
    _uniform_step(s_grid, "flat_pulse_x_infinity")
    w = np.asarray(w, dtype=float)
    vol = (2.0 * a_base.spatial_halfwidth) ** a_base.dim
    efield, _ = pulse_efield_and_integral(a_base, w)
    eps = np.array([efield(s) for s in s_grid])
    return vol * _separable(eps, xi_fn(s_grid - s_grid[0]) @ w @ w)


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
    return vol * _cumulative_simpson(integrand, times[1] - times[0])


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
    cum = _cumulative_simpson(eps, _uniform_step(times, "diamagnetic_density"))
    return -vol * float(w @ kernel.xi_d() @ w) * 0.5 * cum ** 2


def correction_term(kernel: TransportKernel, a_base: FlatPulse, l: float,
                    times) -> np.ndarray:
    """Finite-volume correction of Joule's-law items (Q)/(P):

        corr(t) = l^-d sum_{b,b'} [int_{t0}^t E_s(b) ds]
                               * [int_{t0}^t E_r(b') sigma_p(b, b', t - r) dr],

    the exact eta^2-coefficient of (P - Id)/(eta^2 l^d); the macroscopic limit
    is int dx int ds <E(s,x), J_p(t,x)> with J_p frozen at the final time.
    On a uniform grid this is l^-d A(t_i) int_{t0}^{t_i} eps(r) F(t_i - r) dr,
    A the cumulative integral of eps.
    """
    times = np.asarray(times, dtype=float)
    h, eps, f = _lag_kernel(kernel, a_base, l, times, "correction_term")
    cum = _cumulative_simpson(eps, h)
    out = np.array([cum[i] * (_simpson_weights(i, h) @ (eps[:i + 1] * f[i::-1]))
                    for i in range(len(times))])
    return out / l ** kernel.box.dim


def diamagnetic_density_exact(kernel: TransportKernel, a_base: FlatPulse,
                              l: float, times) -> np.ndarray:
    """Exact eta^2-coefficient of Id/(eta^2 l^d):
    -(1/2) l^-d sum_b phase_b(t)^2 rho(P_b), phase_b(t) = eta env(t) w_b."""
    a_l = rescale(a_base, l, 1.0)
    weighted = sum(wb ** 2 * kernel.sigma_d(b) for b in kernel.box.bonds
                   if (wb := a_l.bond_weight(*b)))
    amp = np.array([a_l.eta * a_l.env(t) for t in np.asarray(times, dtype=float)])
    return -0.5 * amp ** 2 * weighted / l ** kernel.box.dim


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
